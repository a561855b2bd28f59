(** The [xsm serve] session protocol: typed requests and responses
    with symmetric JSON codecs over {!Frame}.

    A session opens with a [Hello] handshake (the server answers
    [Welcome] with the session id and protocol version) and then
    pipelines requests freely: each carries a client-chosen [id], and
    every response echoes the id of the request it answers.  The
    server processes one session's requests in order, so responses
    arrive in request order — the id is for the client's bookkeeping,
    not reordering.

    Request kinds mirror the CLI verbs: [Query] (a read-only XPath
    evaluation, answered with the string values of the result nodes
    and the epoch of the snapshot it saw), [Update] (one update-script
    command — the same grammar as [xsm update] scripts), [Validate]
    (an XML document text checked against the server's schema),
    [Stats] (the metrics registry plus server counters — or the
    OpenMetrics text exposition), [Introspect] (the flight recorder's
    digests, or the server-side spans of one propagated trace),
    [Shutdown] (graceful stop: snapshot, then exit), and [Bye] (end
    this session only).

    {b Trace propagation}: [Query]/[Update]/[Validate] optionally
    carry a traceparent-style {!trace_ctx} — the client's trace id and
    the id of its open span.  The server records its request span (and
    the phase spans under it) with the wire parent attached, so the
    client can later fetch them with [Introspect (Trace_events id)]
    and merge both processes into one Chrome trace. *)

type trace_ctx = {
  trace_id : string;  (** client-generated, opaque hex *)
  parent_span : int;  (** the client-side span awaiting this request *)
}

type introspect_what =
  | Flight  (** the flight recorder's digest rings *)
  | Trace_events of string
      (** server-side spans recorded under this propagated trace id *)

type request =
  | Hello of { client : string }
  | Query of { id : int; path : string; trace : trace_ctx option }
  | Update of { id : int; command : string; trace : trace_ctx option }
      (** one update-script line: [insert PATH XML], [insert-text PATH
          TEXT], [delete PATH], [content PATH VALUE], [attr PATH NAME
          VALUE] *)
  | Validate of { id : int; doc : string; trace : trace_ctx option }
  | Stats of { id : int; openmetrics : bool }
      (** [openmetrics] asks for the text exposition instead of the
          JSON report *)
  | Introspect of { id : int; what : introspect_what }
  | Shutdown of { id : int }
  | Bye

type response =
  | Welcome of { session : int; version : int }
  | Nodes of { id : int; epoch : int; values : string list }
      (** query result: string values, and the epoch of the snapshot
          the evaluation ran against *)
  | Applied of { id : int; epoch : int }
      (** update durably committed; [epoch] is the batch's post-epoch *)
  | Validity of { id : int; valid : bool; errors : string list }
  | Stats_reply of { id : int; body : Xsm_obs.Json.t }
      (** JSON report, or [{"openmetrics": "<text>"}] when asked *)
  | Introspect_reply of { id : int; body : Xsm_obs.Json.t }
      (** [Flight]: the recorder's {!Xsm_obs.Flight.to_json};
          [Trace_events]: [{"events": [...]}] of
          {!Xsm_obs.Trace.event_to_json} objects *)
  | Stopping of { id : int }  (** shutdown acknowledged *)
  | Failed of { id : int; message : string }
      (** the request with [id] failed; the session stays usable *)

val version : int

val request_to_json : request -> Xsm_obs.Json.t
val request_of_json : Xsm_obs.Json.t -> (request, string) result
val response_to_json : response -> Xsm_obs.Json.t
val response_of_json : Xsm_obs.Json.t -> (response, string) result

