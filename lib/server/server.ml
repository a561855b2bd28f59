module Store = Xsm_xdm.Store
module Update = Xsm_schema.Update
module Labeler = Xsm_numbering.Labeler
module Wal = Xsm_persist.Wal
module Recovery = Xsm_persist.Recovery
module Snapshot = Xsm_persist.Snapshot
module Eval = Xsm_xpath.Eval.Over_store
module Seval = Xsm_xpath.Eval.Over_storage
module Bs = Xsm_storage.Block_storage
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Ds = Xsm_storage.Descriptive_schema
module Pl = Xsm_xpath.Planner.Over_store
module Spl = Xsm_xpath.Planner.Over_storage
module Planner = Xsm_xpath.Planner
module Plan = Xsm_xpath.Plan
module Json = Xsm_obs.Json
module Metrics = Xsm_obs.Metrics
module Counter = Metrics.Counter
module Gauge = Metrics.Gauge
module Histogram = Metrics.Histogram
module Trace = Xsm_obs.Trace
module Clock = Xsm_obs.Clock
module Flight = Xsm_obs.Flight
module Qlog = Xsm_obs.Qlog
module Sax = Xsm_xml.Sax
module Sv = Xsm_stream.Stream_validator
module P = Protocol

let m_sessions = Counter.make ~help:"sessions accepted" "server.sessions"
let m_requests = Counter.make ~help:"requests served" "server.requests"
let m_queries = Counter.make ~help:"query requests" "server.queries"
let m_updates = Counter.make ~help:"update requests" "server.updates"
let m_failures = Counter.make ~help:"requests answered with an error" "server.failures"
let h_query_ns = Histogram.make ~help:"query latency (ns, server side)" "server.query_ns"
let h_update_ns = Histogram.make ~help:"update latency (ns, server side)" "server.update_ns"

let g_inflight =
  Gauge.make ~help:"query/update/validate requests currently executing" "server.inflight"

(* the pager registers these on module load (xsm_pager initializes
   before this library); get-or-create returns the same handles, so a
   request can snapshot process-wide pager activity around itself *)
let m_pager_hits = Counter.make "pager.hits"
let m_pager_evictions = Counter.make "pager.evictions"

let pager_counts () = (Counter.value m_pager_hits, Counter.value m_pager_evictions)

type config = {
  socket_path : string;
  snapshot_path : string option;
  wal_path : string option;
  domains : int;
  group_commit : bool;
  use_index : bool;
  page_file : string option;
  pool_capacity : int;
  flight_capacity : int;
  slow_log : string option;
  slow_threshold_ms : float;
}

(* The served document, chosen once at boot: the resident XDM store,
   or — with a page file — the block storage alone.  Either way the
   planner exists only under [use_index]. *)
type served =
  | Resident of {
      store : Store.t;
      root : Store.node;
      labels : Labeler.t option;
      planner : Pl.t option;  (* fed each applied op's change *)
    }
  | Paged of {
      (* one buffer pool shared by every session, faulted under the
         shared latch, mutated under the exclusive one *)
      bs : Bs.t;
      page_file : Page_file.t;
      labelled : bool;  (* the shutdown snapshot carries the nids as labels *)
      planner : Spl.t option;  (* fed each applied op's change *)
    }

type t = {
  config : config;
  served : served;
  (* compiled once, for every Validate *)
  schema : Xsm_schema.Compiled.t option;
  epoch : Epoch.t;
  pool : Pool.t;
  wal : Wal.Writer.t option;
  (* without group commit, one update at a time applies and syncs —
     the E17 baseline *)
  serial : Mutex.t option;
  submissions : int Atomic.t;  (* updates submitted *)
  (* observability: the always-on digest ring, the slow-query log, the
     last planner digest (written by eval under [m], consumed by the
     same request before releasing it) *)
  flight : Flight.t;
  qlog : Qlog.t option;
  slow_ns : int64;
  last_digest : Planner.digest option ref;
  mutable inflight : int;
  (* the server mutex: metrics registry, trace ring and its recording
     switch (not thread-safe), planner evaluation, flight recorder,
     session registry.  Every span the daemon records is recorded
     under it; the pool domains and the WAL's syncs record none. *)
  m : Mutex.t;
  mutable next_session : int;
  mutable session_fds : (int * Unix.file_descr) list;
  mutable stopping : bool;
  stop_rd : Unix.file_descr;  (* self-pipe: request_stop writes, serve selects *)
  stop_wr : Unix.file_descr;
}

(* ------------------------------------------------------------------ *)
(* Update commands: the update-script grammar of `xsm update`, one
   line per request, applied under the exclusive epoch latch. *)

let ( let* ) = Result.bind

(* Dewey capture over descriptors: the WAL records a paged daemon logs
   are the resident daemon's *)
let storage_tree bs =
  {
    Wal.parent = Bs.parent;
    children = Bs.children bs;
    attribute_name =
      (fun d -> match Ds.kind (Bs.snode d) with Ds.Attribute -> Bs.node_name d | _ -> None);
    equal = (fun a b -> Bs.desc_id a = Bs.desc_id b);
  }

(* One op on the paged store, and the change its planner absorbs.  The
   refusals are [Update.apply]'s over the resident store, word for
   word. *)
let apply_paged bs (op : Bs.desc Update.op) =
  let kind d = Ds.kind (Bs.snode d) in
  (* an append lands after the parent's last attribute or child *)
  let after parent = function
    | Some before -> Bs.left_sibling before
    | None -> List.fold_left (fun _ c -> Some c) None (Bs.attributes bs parent @ Bs.children bs parent)
  in
  let insertable parent ~text =
    match kind parent with
    | Ds.Attribute | Ds.Text -> Error "append_child: attribute and text nodes have no children"
    | Ds.Document when text -> Error "append_child: a document child must be an element"
    | Ds.Document when Bs.children bs parent <> [] ->
      Error "append_child: a document node has exactly one element child"
    | Ds.Document | Ds.Element -> Ok ()
  in
  match op with
  | Update.Insert_element { parent; before; tree } ->
    let* () = insertable parent ~text:false in
    Ok (Update.Added (Bs.insert_tree bs ~parent ~after:(after parent before) tree))
  | Update.Insert_text { parent; before; text } ->
    let* () = insertable parent ~text:true in
    Ok (Update.Added (fst (Bs.insert_text bs ~parent ~after:(after parent before) text)))
  | Update.Delete node -> (
    match Bs.parent node with
    | None -> Error "delete: node has no parent"
    | Some p when kind p = Ds.Document && kind node = Ds.Element ->
      Error "delete: cannot remove the document element"
    | Some _ ->
      Bs.delete_subtree bs node;
      Ok (Update.Removed node))
  | Update.Replace_content { node; value } -> (
    match kind node with
    | Ds.Text | Ds.Attribute ->
      Bs.set_content bs node value;
      Ok (Update.Content node)
    | Ds.Document | Ds.Element -> Error "set_content: only text and attribute nodes hold content")
  | Update.Set_attribute { element; name; value } -> (
    match kind element with
    | Ds.Element -> (
      let named a = Option.equal Xsm_xml.Name.equal (Bs.node_name a) (Some name) in
      match List.find_opt named (Bs.attributes bs element) with
      | Some a ->
        Bs.set_content bs a value;
        Ok (Update.Content a)
      | None -> Ok (Update.Added (fst (Bs.insert_attribute bs ~parent:element name value))))
    | Ds.Document | Ds.Attribute | Ds.Text -> Error "set_attribute: target is not an element")

(* Apply one command to the served store.  Runs inside the exclusive
   latch section; the logged apply appends the WAL record only after a
   successful apply, and the client is only acknowledged after a sync
   covering the log as the latch left it either way.  A removed
   subtree's slots go back to the resident store once labels and
   planner have had the change. *)
let apply_command srv line =
  match srv.served with
  | Resident { store; root; labels; planner } ->
    let* op = Update.parse_command ~resolve:(Eval.eval_string store root) line in
    let* applied = Wal.apply_logged srv.wal (Wal.store_tree store) ~root ~apply:(Update.apply store) op in
    let change = Update.change applied in
    Option.iter (fun t -> Recovery.maintain_labels store t change) labels;
    Option.iter (fun p -> Pl.apply_changes p [ change ]) planner;
    Update.release store change;
    Ok ()
  | Paged { bs; planner; _ } ->
    let root = Bs.root bs in
    let* op = Update.parse_command ~resolve:(Seval.eval_string bs root) line in
    let* change = Wal.apply_logged srv.wal (storage_tree bs) ~root ~apply:(apply_paged bs) op in
    Option.iter (fun p -> Spl.apply_changes p [ change ]) planner;
    Ok ()

(* Group commit: an update applies under the exclusive latch, which
   it leaves with the log's length, then waits for a sync covering
   that length ({!Wal.Writer.force}) — outside the latch, so readers
   and the next writers proceed while the records hit the disk, and
   the updates that apply meanwhile share the next fsync.  A refused
   line waits too: its reply may rest on state another update wrote.
   Returns the outcome and the interval of the covering fsync. *)
let commit srv line =
  Atomic.incr srv.submissions;
  let run () =
    let outcome, lsn =
      Epoch.write srv.epoch (fun () ->
          let outcome = apply_command srv line in
          (outcome, Option.map Wal.Writer.lsn srv.wal))
    in
    match (srv.wal, lsn) with
    | Some w, Some lsn -> (outcome, Some (Wal.Writer.force w lsn))
    | _ -> (outcome, None)
  in
  match srv.serial with Some m -> Mutex.protect m run | None -> run ()

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let locked srv f =
  Mutex.lock srv.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.m) f

(* Entry bookkeeping for digest-carrying requests: the inflight gauge
   plus the process-wide pager counters this request will diff
   against.  Exact on the serialized planner path, best-effort under
   concurrent pool readers. *)
let begin_request srv =
  locked srv (fun () ->
      srv.inflight <- srv.inflight + 1;
      Gauge.set g_inflight (float_of_int srv.inflight));
  (Clock.now_ns (), pager_counts ())

let truncate_detail s =
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

(* One exit point for query/update/validate requests — success,
   failure and exception alike: metrics, the request's span tree
   (root + phases, carrying the propagated trace context; recorded
   only for a traced request, or when the whole process traces), the
   flight digest, and the slow-query log. *)
let finish_request srv ~session ~id ~kind ~detail ~counter ~hist ~trace ~phases ~rows
    ~fsync_ns ~outcome ~pager0 t0 =
  let stop_ns = Clock.now_ns () in
  let latency_ns =
    let d = Int64.sub stop_ns t0 in
    if Int64.compare d 0L < 0 then 0L else d
  in
  let hits1, ev1 = pager_counts () in
  locked srv (fun () ->
      Counter.incr m_requests;
      if counter != m_requests then Counter.incr counter;
      (match hist with
      | Some h -> Histogram.observe h (Int64.to_float latency_ns)
      | None -> ());
      srv.inflight <- srv.inflight - 1;
      Gauge.set g_inflight (float_of_int srv.inflight);
      (* span tree: the request root adopts the wire trace context as
         attributes; phases hang off the root.  [Introspect
         (Trace_events id)] filters the ring on the "trace" attr. *)
      let trace_attrs =
        match trace with
        | None -> []
        | Some { P.trace_id; parent_span } ->
          [ ("trace", trace_id); ("wire_parent", string_of_int parent_span) ]
      in
      Trace.recording (Option.is_some trace) (fun () ->
          let root =
            Trace.record_linked ("serve." ^ kind) ~parent:0 ~start_ns:t0 ~stop_ns
              ~attrs:
                ([ ("session", string_of_int session); ("id", string_of_int id) ]
                @ trace_attrs)
          in
          if root <> 0 then
            List.iter
              (fun (pname, p0, p1) ->
                ignore
                  (Trace.record_linked pname ~parent:root ~depth:1 ~start_ns:p0 ~stop_ns:p1
                     ~attrs:trace_attrs))
              phases);
      let slow = Int64.compare latency_ns srv.slow_ns >= 0 in
      let failed = match outcome with Flight.Failed _ -> true | Flight.Done -> false in
      (* flight digest: planner evaluations left their digest in
         [last_digest] (same request, same mutex); estimates are
         interval arithmetic, never a re-evaluation.  They read the
         planner's indexes, so under the shared latch, like the
         evaluation: each update splices its change into them under the
         exclusive one.  The plan is only materialized for the
         digests someone will read: slow requests and failures. *)
      let dg = !(srv.last_digest) in
      srv.last_digest := None;
      let route, est_lo, est_hi, plan =
        match dg with
        | None -> ("", -1, -1, None)
        | Some d ->
          Epoch.read srv.epoch @@ fun _ ->
          let lo, hi =
            match d.Planner.dg_estimate () with
            | Some e -> (
              ( e.Plan.e_rows.Plan.lo,
                match e.Plan.e_rows.Plan.hi with Some h -> h | None -> -1 ))
            | None -> (-1, -1)
          in
          (d.Planner.dg_route, lo, hi, if slow || failed then Some (Planner.digest_json d) else None)
      in
      let digest : Flight.digest =
        {
          seq = 0;
          at_ns = t0;
          kind;
          detail = truncate_detail detail;
          route;
          est_lo;
          est_hi;
          actual_rows = rows;
          pager_hits = max 0 (hits1 - fst pager0);
          pager_evictions = max 0 (ev1 - snd pager0);
          fsync_ns;
          latency_ns;
          outcome;
          session;
          request = id;
          trace_id = (match trace with Some t -> t.P.trace_id | None -> "");
          plan;
        }
      in
      Flight.record srv.flight digest;
      match srv.qlog with
      | Some q when slow -> Qlog.log q (Flight.digest_to_json digest)
      | _ -> ())

(* Stats/Introspect bookkeeping: counted, no digest — introspection
   watching itself would drown the signal it reports.  These requests
   carry no trace context, so their span is recorded only when the
   whole process traces. *)
let record_request srv ~session ~id ~name t0 =
  let stop_ns = Clock.now_ns () in
  locked srv (fun () ->
      Counter.incr m_requests;
      Trace.record_span name ~start_ns:t0 ~stop_ns
        ~attrs:[ ("session", string_of_int session); ("id", string_of_int id) ])

(* One query over the served store, as string values: through its
   planner under [use_index], navigational otherwise *)
let eval_query served path =
  match served with
  | Resident { store; root; planner; _ } ->
    Result.map
      (List.map (Store.string_value store))
      (match planner with
      | Some p -> Pl.eval_string p path
      | None -> Eval.eval_string store root path)
  | Paged { bs; planner; _ } ->
    Result.map
      (List.map (Bs.string_value bs))
      (match planner with
      | Some p -> Spl.eval_string p path
      | None -> Seval.eval_string bs (Bs.root bs) path)

let run_query srv ~traced path =
  let phases = ref [] in
  let phase name p0 p1 = phases := (name, p0, p1) :: !phases in
  let result =
    if srv.config.use_index then
      (* planner indexes are mutable (lazily built value indexes, plan
         decisions): serialized under the server mutex, and under the
         shared latch, which keeps out each update splicing its change
         into them *)
      let t_lock = Clock.now_ns () in
      locked srv (fun () ->
          let t_latch = Clock.now_ns () in
          phase "serve.lock" t_lock t_latch;
          (* the planner's spans belong to this request's trace *)
          Trace.recording traced @@ fun () ->
          Epoch.read srv.epoch (fun epoch ->
              let t_plan = Clock.now_ns () in
              phase "serve.latch" t_latch t_plan;
              let r = Result.map (fun values -> (epoch, values)) (eval_query srv.served path) in
              phase "serve.plan" t_plan (Clock.now_ns ());
              r))
    else
      (* the parallel path: evaluation on a pool domain under the shared
         latch — an immutable snapshot view.  A paged store's queries
         navigate the descriptor representation, faulting blocks
         through the shared buffer pool *)
      let t_pool = Clock.now_ns () in
      Pool.run srv.pool (fun () ->
          let t_latch = Clock.now_ns () in
          phase "serve.pool" t_pool t_latch;
          Epoch.read srv.epoch (fun epoch ->
              let t_eval = Clock.now_ns () in
              phase "serve.latch" t_latch t_eval;
              let r = Result.map (fun values -> (epoch, values)) (eval_query srv.served path) in
              phase "serve.eval" t_eval (Clock.now_ns ());
              r))
  in
  (result, List.rev !phases)

(* A request needs a verdict and its reasons, not a typed tree: one
   pass over the request text, no tree, no store, no annotation.
   Without a schema the lexer alone decides well-formedness. *)
let run_validate srv ~traced doc_text =
  let sax = Sax.of_string doc_text in
  match srv.schema with
  | None -> (
    let rec drain () = match Sax.next sax with Some _ -> drain () | None -> () in
    match drain () with
    | () -> (true, [])
    | exception Xsm_xml.Parser.Syntax e -> (false, [ Xsm_xml.Parser.error_to_string e ]))
  | Some compiled -> (
    (* the validator bumps the metrics registry and, for a traced
       request, records its span in the trace ring, neither of them
       thread-safe *)
    let schema = Xsm_schema.Compiled.schema compiled in
    let run () = Trace.recording traced (fun () -> Sv.run ~automata:compiled schema sax) in
    match locked srv run with
    | Ok _ -> (true, [])
    | Error errors -> (false, List.map Sv.error_to_string errors)
    | exception Xsm_xml.Parser.Syntax e -> (false, [ Xsm_xml.Parser.error_to_string e ]))

let stats_body srv ~openmetrics =
  locked srv (fun () ->
      Metrics.Runtime.sample ();
      if openmetrics then
        Json.Obj [ ("openmetrics", Json.Str (Metrics.to_openmetrics Metrics.default)) ]
      else
        let batches, max_batch =
          match srv.wal with
          | Some w ->
            let s = Wal.Writer.stats w in
            (s.Wal.Writer.covering_syncs, s.Wal.Writer.max_covered)
          | None -> (0, 0)
        in
        let pager_field =
          match srv.served with
          | Paged { bs; _ } -> (
            match Bs.pager bs with
            | Some p -> [ ("pager", Pager.stats_json (Pager.stats p)) ]
            | None -> [])
          | Resident _ -> []
        in
        Json.Obj
          ([
            ( "server",
              Json.Obj
                [
                  ("epoch", Json.int (Epoch.current srv.epoch));
                  ("domains", Json.int (Pool.size srv.pool));
                  ("sessions", Json.int (List.length srv.session_fds));
                  ("group_commit", Json.Bool srv.config.group_commit);
                  ( "commit",
                    Json.Obj
                      [
                        ("submissions", Json.int (Atomic.get srv.submissions));
                        ("batches", Json.int batches);
                        ("max_batch", Json.int max_batch);
                      ] );
                ] );
            ("metrics", Metrics.to_json Metrics.default);
          ]
          @ pager_field))

let introspect_body srv what =
  locked srv (fun () ->
      match what with
      | P.Flight -> Flight.to_json srv.flight
      | P.Trace_events trace_id ->
        let events =
          List.filter
            (fun (e : Trace.event) ->
              List.assoc_opt "trace" e.attrs = Some trace_id)
            (Trace.events ())
        in
        Json.Obj
          [
            ("trace_id", Json.Str trace_id);
            (* event timestamps count from this process's clock epoch;
               the client needs it to rebase them onto its own *)
            ("clock_epoch_s", Json.Num (Clock.epoch_wall ()));
            ("events", Json.Arr (List.map Trace.event_to_json events));
          ])

let fail srv ~id message =
  locked srv (fun () -> Counter.incr m_failures);
  P.Failed { id; message }

(* [handle] returns the response and what the session does after
   sending it: [`Continue] serving, [`Close] this session, or [`Stop]
   the whole server.  Stopping is deferred until after the response is
   on the wire — firing the stop pipe first would let the teardown's
   [Unix.shutdown] race the [Stopping] ack out of existence. *)
let handle srv ~session req =
  match req with
  | P.Hello _ -> (Some (P.Welcome { session; version = P.version }), `Continue)
  | P.Bye -> (None, `Close)
  | P.Query { id; path; trace } -> (
    let t0, pager0 = begin_request srv in
    let finish = finish_request srv ~session ~id ~kind:"query" ~detail:path
        ~counter:m_queries ~hist:(Some h_query_ns) ~trace ~fsync_ns:0L ~pager0 t0
    in
    match run_query srv ~traced:(Option.is_some trace) path with
    | Ok (epoch, values), phases ->
      finish ~phases ~rows:(List.length values) ~outcome:Flight.Done;
      (Some (P.Nodes { id; epoch; values }), `Continue)
    | Error e, phases ->
      finish ~phases ~rows:0 ~outcome:(Flight.Failed e);
      (Some (fail srv ~id e), `Continue)
    | exception e ->
      let msg = Printexc.to_string e in
      finish ~phases:[] ~rows:0 ~outcome:(Flight.Failed msg);
      (Some (fail srv ~id msg), `Continue))
  | P.Update { id; command; trace } -> (
    let t0, pager0 = begin_request srv in
    let finish = finish_request srv ~session ~id ~kind:"update" ~detail:command
        ~counter:m_updates ~hist:(Some h_update_ns) ~trace ~pager0 t0
    in
    match commit srv command with
    | Ok (), fsync ->
      let t1 = Clock.now_ns () in
      (* the sync that covered this update's record: it started after
         the update applied and returned before the ack *)
      let phases, fsync_ns =
        match fsync with
        | Some (f0, f1) ->
          ([ ("serve.commit", t0, t1); ("serve.wal.fsync", f0, f1) ], Int64.sub f1 f0)
        | None -> ([ ("serve.commit", t0, t1) ], 0L)
      in
      finish ~fsync_ns ~phases ~rows:0 ~outcome:Flight.Done;
      (Some (P.Applied { id; epoch = Epoch.current srv.epoch }), `Continue)
    | Error e, _ ->
      finish ~fsync_ns:0L ~phases:[] ~rows:0 ~outcome:(Flight.Failed e);
      (Some (fail srv ~id e), `Continue)
    | exception e ->
      let msg = Printexc.to_string e in
      finish ~fsync_ns:0L ~phases:[] ~rows:0 ~outcome:(Flight.Failed msg);
      (Some (fail srv ~id msg), `Continue))
  | P.Validate { id; doc; trace } ->
    let t0, pager0 = begin_request srv in
    let valid, errors = run_validate srv ~traced:(Option.is_some trace) doc in
    finish_request srv ~session ~id ~kind:"validate" ~detail:doc ~counter:m_requests
      ~hist:None ~trace ~phases:[] ~rows:(List.length errors) ~fsync_ns:0L
      ~outcome:(if valid then Flight.Done else Flight.Failed "invalid") ~pager0 t0;
    (Some (P.Validity { id; valid; errors }), `Continue)
  | P.Stats { id; openmetrics } ->
    let t0 = Clock.now_ns () in
    let body = stats_body srv ~openmetrics in
    record_request srv ~session ~id ~name:"serve.stats" t0;
    (Some (P.Stats_reply { id; body }), `Continue)
  | P.Introspect { id; what } ->
    let t0 = Clock.now_ns () in
    let body = introspect_body srv what in
    record_request srv ~session ~id ~name:"serve.introspect" t0;
    (Some (P.Introspect_reply { id; body }), `Continue)
  | P.Shutdown { id } -> (Some (P.Stopping { id }), `Stop)

let trigger_stop srv =
  srv.stopping <- true;
  try ignore (Unix.write srv.stop_wr (Bytes.make 1 's') 0 1) with Unix.Unix_error _ -> ()

let session_loop srv session fd =
  let send resp =
    match Frame.send fd (P.response_to_json resp) with Ok () -> true | Error _ -> false
  in
  let rec loop () =
    match Frame.recv fd with
    | Ok None | Error _ -> ()  (* peer gone; errors end the session *)
    | Ok (Some j) -> (
      match P.request_of_json j with
      | Error e -> if send (fail srv ~id:(-1) e) then loop ()
      | Ok req -> (
        let resp, action = handle srv ~session req in
        let sent = match resp with None -> true | Some r -> send r in
        match action with
        | `Continue -> if sent then loop ()
        | `Close -> ()
        | `Stop -> trigger_stop srv))
  in
  loop ();
  (* deregister before closing, so shutdown never touches a reused fd *)
  locked srv (fun () ->
      srv.session_fds <- List.filter (fun (s, _) -> s <> session) srv.session_fds);
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* The served store.  The paged one is built from [store], which the
   daemon then drops: the block storage is the served document. *)
let served_store config ~store ~root ?labels ~wal ~sink = function
  | None ->
    let planner =
      if config.use_index then begin
        let p = Pl.create store root in
        Pl.set_digest_sink p sink;
        Some p
      end
      else None
    in
    Resident { store; root; labels; planner }
  | Some page_file ->
    let bs = Bs.of_store ?labels store root in
    let planner =
      if config.use_index then begin
        let p = Spl.create bs (Bs.root bs) in
        Spl.set_digest_sink p sink;
        Some p
      end
      else None
    in
    ignore
      (Bs.attach_pager ?wal:(Option.map Wal.Writer.pager_hook wal) bs
         ~capacity:config.pool_capacity page_file);
    (* an op applies before its record is appended: a block it dirties
       carries the record to come, and the pool holds the block until
       that record exists *)
    Option.iter (fun w -> Bs.set_lsn_source bs (fun () -> Wal.Writer.lsn w + 1)) wal;
    Paged { bs; page_file; labelled = Option.is_some labels; planner }

exception Refused of string

let create config ~store ~root ?labels ?schema () =
  let paged = Option.is_some config.page_file in
  (* the config is refused before anything is opened *)
  let* () =
    if config.domains < 1 then Error "server: need at least one domain"
    else if paged && config.pool_capacity < 2 then Error "server: pool capacity must be >= 2"
    else if paged then Result.map_error (( ^ ) "server: page file: ") (Bs.representable store root)
    else Ok ()
  in
  (* what is open so far, closed again when a later step fails *)
  let opened = ref [] in
  let opening close = function
    | Ok v ->
      opened := (fun () -> close v) :: !opened;
      v
    | Error e -> raise (Refused e)
  in
  let last_digest = ref None in
  (* every evaluation leaves its digest for the request that ran it —
     same thread, same server mutex *)
  let sink = Some (fun d -> last_digest := Some d) in
  match
    let page_file =
      Option.map (fun path -> opening Page_file.close (Ok (Page_file.create path))) config.page_file
    in
    let qlog = Option.map (fun path -> opening Qlog.close (Qlog.create path)) config.slow_log in
    (* the updates' forces pay every fsync: none is periodic *)
    let wal =
      Option.map
        (fun path ->
          opening Wal.Writer.close
            (Result.map_error Wal.error_message (Wal.Writer.create ~sync_every:max_int path)))
        config.wal_path
    in
    (served_store config ~store ~root ?labels ~wal ~sink page_file, wal, qlog)
  with
  | exception e ->
    List.iter (fun close -> try close () with _ -> ()) !opened;
    Error (match e with Refused m -> m | e -> "server: " ^ Printexc.to_string e)
  | served, wal, qlog ->
    let stop_rd, stop_wr = Unix.pipe () in
    Ok
      {
        config;
        served;
        schema = Option.map Xsm_schema.Compiled.make schema;
        epoch = Epoch.create ();
        pool = Pool.create config.domains;
        wal;
        serial = (if config.group_commit then None else Some (Mutex.create ()));
        submissions = Atomic.make 0;
        flight = Flight.create ~capacity:config.flight_capacity ();
        qlog;
        slow_ns = Int64.of_float (config.slow_threshold_ms *. 1e6);
        last_digest;
        inflight = 0;
        m = Mutex.create ();
        next_session = 0;
        session_fds = [];
        stopping = false;
        stop_rd;
        stop_wr;
      }

let request_stop = trigger_stop

let sessions_served srv = locked srv (fun () -> srv.next_session)

let serve ?(on_ready = fun () -> ()) srv =
  (* a peer that vanishes mid-reply must surface as an EPIPE on that
     session's write, never kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (try
       if Sys.file_exists srv.config.socket_path then Sys.remove srv.config.socket_path;
       Unix.bind sock (Unix.ADDR_UNIX srv.config.socket_path);
       Unix.listen sock 64;
       Ok ()
     with
    | Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "server: %s: %s" fn (Unix.error_message err))
    | Sys_error e -> Error ("server: " ^ e))
  with
  | Error _ as e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    e
  | Ok () ->
    on_ready ();
    let threads = ref [] in
    (* accept until the stop pipe fires: select keeps the loop
       responsive to request_stop even with no connection pending *)
    let rec accept_loop () =
      if not srv.stopping then begin
        match Unix.select [ sock; srv.stop_rd ] [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | readable, _, _ ->
          if List.mem srv.stop_rd readable then ()
          else if List.mem sock readable then begin
            match Unix.accept sock with
            | exception Unix.Unix_error _ -> accept_loop ()
            | fd, _ ->
              let session =
                locked srv (fun () ->
                    let s = srv.next_session in
                    srv.next_session <- s + 1;
                    srv.session_fds <- (s, fd) :: srv.session_fds;
                    Counter.incr m_sessions;
                    s)
              in
              threads := Thread.create (fun () -> session_loop srv session fd) () :: !threads;
              accept_loop ()
          end
          else accept_loop ()
      end
    in
    accept_loop ();
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (* unblock sessions parked in recv, then wait for them *)
    locked srv (fun () ->
        List.iter
          (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          srv.session_fds);
    List.iter Thread.join !threads;
    Pool.shutdown srv.pool;
    (* checkpoint the paged store while the WAL writer is still open:
       flushing dirty pages may force a final sync *)
    (match srv.served with
    | Paged { bs; _ } -> (
      let lsn = match srv.wal with Some w -> Wal.Writer.lsn w | None -> 0 in
      try Bs.checkpoint bs ~lsn
      with e ->
        Printf.eprintf "xsm serve: page-file checkpoint failed: %s\n%!" (Printexc.to_string e))
    | Resident _ -> ());
    (* the final state, read while the page file is still open; a paged
       store's nids are its labels *)
    let final =
      match srv.config.snapshot_path, srv.served with
      | None, _ -> None
      | Some path, Resident { store; root; labels; _ } -> Some (path, Ok (store, root, labels))
      | Some path, Paged { bs; labelled; _ } ->
        Some
          ( path,
            match Bs.to_store bs with
            | store, root, nids ->
              Ok (store, root, if labelled then Some (Labeler.restore nids) else None)
            | exception e -> Error (Printexc.to_string e) )
    in
    (match srv.served with
    | Paged { page_file; _ } -> ( try Page_file.close page_file with _ -> ())
    | Resident _ -> ());
    (match srv.wal with Some w -> Wal.Writer.close w | None -> ());
    (match srv.qlog with Some q -> Qlog.close q | None -> ());
    let snap_result =
      match final with
      | None -> Ok ()
      | Some (path, state) -> (
        match
          Result.bind state (fun (store, root, labels) -> Snapshot.save ?labels ~path store root)
        with
        | Ok _ ->
          (* checkpoint: the snapshot subsumes the log, so the WAL is
             dropped — recover from the snapshot alone round-trips *)
          (match srv.config.wal_path with
          | Some wp when Sys.file_exists wp -> Sys.remove wp
          | _ -> ());
          Ok ()
        | Error e -> Error ("server: shutdown snapshot: " ^ e))
    in
    (try Unix.close srv.stop_rd with Unix.Unix_error _ -> ());
    (try Unix.close srv.stop_wr with Unix.Unix_error _ -> ());
    if Sys.file_exists srv.config.socket_path then Sys.remove srv.config.socket_path;
    snap_result
