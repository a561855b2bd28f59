(** The span tracer: nestable named spans with wall-clock timestamps,
    parent/child ids, key/value attributes and ring-buffer retention.

    Tracing is {e off} by default: {!with_span} on the disabled path
    is one ref read plus the thunk call — no clock read, no
    allocation.  When {!enabled} is set, each completed span is
    written into a ring of fixed capacity, allocated by the first
    recorded span (oldest spans are overwritten; {!dropped} counts
    them), so a traced run has bounded memory whatever its length.

    Two granularities: ordinary spans mark request phases (parse,
    plan, execute, replay) and are cheap enough to leave enabled;
    {e detail} spans ({!with_detail_span}) mark per-node work — one
    span per validated element — and additionally require {!detail},
    which only the [--trace] exporters set.  E15 measures the
    enabled-but-unexported configuration at <2% on the hot workloads.

    Exporter: {!to_chrome} emits Chrome [trace_event] JSON (load the
    file in [chrome://tracing] or Perfetto). *)

val enabled : bool ref
(** Master switch; read on every instrumentation point. *)

val detail : bool ref
(** Also record per-node detail spans (implies a span per validated
    element).  Only consulted when {!enabled} is set. *)

val set_capacity : int -> unit
(** Resize the ring (default 65536 spans).  Discards retained spans. *)

val reset : unit -> unit
(** Discard retained spans and the dropped count; open spans keep
    their nesting. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  The span is recorded when the
    thunk returns {e or raises} (the exception is re-raised; the span
    gains an ["exception"] attribute). *)

val recording : bool -> (unit -> 'a) -> 'a
(** [recording on f] runs [f] with spans recorded if [on], or if
    tracing is already {!enabled} — the span calls inside [f], and the
    {!record_span}/{!record_linked} calls of a caller that timed its
    own intervals, alike.  When it turned the switch on, it turns it
    off again as [f] returns {e or raises}.  How the daemon records
    the spans of the requests that carry a trace context, and of no
    other.  Not thread-safe: the switch is one process-wide flag, so
    callers serialize [recording] with every other span recorder. *)

val with_detail_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** {!with_span} when {!detail} is also set, plain call otherwise. *)

val record_span :
  ?attrs:(string * string) list -> string -> start_ns:int64 -> stop_ns:int64 -> unit
(** Record an already-timed root span directly (no open-span stack
    involvement) — for callers that measured an interval themselves,
    such as the server recording per-request spans whose endpoints
    were read on another thread.  The duration is clamped at zero:
    [stop_ns < start_ns] (a wall-clock step between the reads) records
    an instantaneous span, never a negative one.  Not itself
    thread-safe — concurrent recorders must serialize calls. *)

val record_linked :
  ?attrs:(string * string) list ->
  ?depth:int ->
  string ->
  parent:int ->
  start_ns:int64 ->
  stop_ns:int64 ->
  int
(** {!record_span} with an explicit parent id, returning the new
    span's id so further children can link to it — how the server
    builds a request's span tree (request → latch/plan/fsync phases)
    from intervals measured across threads.  Returns [0] without
    recording when tracing is disabled.  [parent:0] means root.  Same
    thread-safety caveat as {!record_span}. *)

val add_attr : string -> string -> unit
(** Attach a key/value attribute to the innermost open span (no-op
    when tracing is off or no span is open). *)

type event = {
  id : int;
  parent : int;  (** 0 when the span has no parent *)
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;  (** nesting depth at record time; 0 = root *)
  attrs : (string * string) list;
}

val events : unit -> event list
(** Retained completed spans, sorted by start time (a preorder of the
    span forest, since spans nest properly). *)

val dropped : unit -> int
(** Spans evicted from the ring since the last {!reset}.  Evictions
    also bump the cumulative [obs.trace.dropped] counter (which
    {!reset} does {e not} zero), so silent overflow shows up in
    [xsm stats]. *)

val event_to_json : event -> Json.t
(** Wire codec for one span: integer fields as JSON numbers, the two
    int64 nanosecond fields as decimal strings (exact), attrs as a
    string-valued object.  Inverse of {!event_of_json}. *)

val event_of_json : Json.t -> (event, string) result

val to_chrome : unit -> Json.t
(** The retained spans as a Chrome trace: [{"traceEvents": [...]}],
    one phase-["X"] (complete) event per span, [ts]/[dur] in
    microseconds, non-decreasing [ts] per thread. *)

val write_chrome : string -> (unit, string) result
(** Serialize {!to_chrome} to a file. *)

val write_chrome_groups :
  string -> (int * string * event list) list -> (unit, string) result
(** A Chrome trace over several span sets, each [(pid, process name,
    events)] group rendered as its own Chrome process (a metadata
    event carries the name), written to a file.  Timestamps must
    already be on one timeline: {!Clock.now_ns} counts from a
    process-local epoch, so events from another process need rebasing
    by the epoch difference ({!Clock.epoch_wall}, which the daemon
    ships in its [Introspect (Trace_events _)] reply).  Callers must
    also ensure span ids don't collide across groups (offset one side)
    and rewrite wire-parent links before merging. *)

