(** The [xsm serve] daemon: one process owning one store, its labels,
    planner indexes and WAL, serving concurrent sessions over a Unix
    domain socket.

    {b One served store.}  {!create} chooses it once: the resident XDM
    store, or — with [page_file] — the §9.2 block storage alone,
    built from the booted store and paged through a buffer pool.  A
    paged daemon keeps no XDM store: reads, writes, index upkeep, the
    stats body and the shutdown checkpoint and snapshot all go to the
    block storage, whose nids are its §9.3 labels.

    {b Concurrency model.}  Each accepted connection runs on a
    systhread (cheap, mostly blocked on socket I/O).  Read-only
    queries are executed on a pool of {!Pool.size} {e domains} under
    the shared {!Epoch} latch, so they run truly in parallel against
    an immutable view of the store.  An update applies under the
    exclusive latch — readers observe the store only before or after
    it, never midway — and appends its WAL record; it leaves the latch
    with the log's length and waits for a fsync covering it
    ({!Xsm_persist.Wal.Writer.force}).  That wait is group commit: the
    updates that apply while one fsync runs share the next, so under
    load the number covered per fsync adapts to the fsync latency.  An
    update is acknowledged as soon as the fsync covering its record
    returns; after a failed fsync the log is read-only and every later
    update is refused.  With [group_commit = false] one update at a
    time applies and pays its own fsync (the E17 baseline).

    {b Lifecycle.}  The caller boots the state (fresh document,
    snapshot load, or crash recovery) and hands it to {!create};
    {!serve} binds the socket and blocks until a [Shutdown] request or
    {!request_stop} (the CLI wires SIGTERM/SIGINT to it).  Graceful
    shutdown drains sessions, snapshots the store to [snapshot_path]
    and removes the WAL it subsumes — a checkpoint — so
    [xsm recover SNAPSHOT] round-trips the final state.

    {b Telemetry.}  A request that carries a {!Protocol.trace_ctx}
    records an {!Xsm_obs.Trace} span ([serve.query], [serve.update],
    …) tagged with session and request ids and the propagated trace
    id, with phase children underneath (lock wait, latch wait,
    plan/eval, commit, WAL fsync) and the planner's and validator's
    spans recorded while it runs.  A request without one records no
    span, so a daemon that is never sent a trace context never
    allocates the span ring; a process that enabled tracing before
    {!create} ([xsm serve --trace FILE]) records every request's
    spans.  Every
    query/update/validate also leaves a digest in the always-on
    {!Xsm_obs.Flight} recorder (route, estimated vs actual rows, pager
    hit/eviction deltas, fsync and total latency, outcome); requests
    over [slow_threshold_ms] — and failures — keep their plan attached
    and, when [slow_log] is set, append a JSON line to the slow-query
    log.  [Stats] requests report the registry plus live server state,
    or the OpenMetrics text exposition; [Introspect] serves the flight
    recorder and per-trace server spans.  GC/runtime gauges are
    sampled at every [Stats] read. *)

type config = {
  socket_path : string;  (** Unix domain socket to bind *)
  snapshot_path : string option;  (** written at graceful shutdown *)
  wal_path : string option;  (** WAL appended to while serving *)
  domains : int;  (** read-pool size, >= 1 *)
  group_commit : bool;  (** [false]: one apply and one fsync per update (baseline) *)
  use_index : bool;  (** route queries through the planner (serialized)
                         instead of the parallel pure evaluator *)
  page_file : string option;
      (** when set, serve a disk-paged {!Xsm_storage.Block_storage}
          instead of the XDM store, under a buffer pool backed by this
          file: every query and update faults its blocks through the
          pool, shared by all read domains.  Checkpointed at graceful
          shutdown. *)
  pool_capacity : int;  (** buffer-pool capacity in blocks, >= 2 *)
  flight_capacity : int;  (** flight-recorder ring size (digests) *)
  slow_log : string option;  (** append slow-request JSON lines here *)
  slow_threshold_ms : float;
      (** a request at least this slow keeps its plan in the flight
          digest and goes to [slow_log] *)
}

type t

val create :
  config ->
  store:Xsm_xdm.Store.t ->
  root:Xsm_xdm.Store.node ->
  ?labels:Xsm_numbering.Labeler.t ->
  ?schema:Xsm_schema.Ast.schema ->
  unit ->
  (t, string) result
(** Assemble a server over booted state.  Opens the WAL writer (the
    file must be a WAL or fresh — {!Xsm_persist.Wal.Writer.create}
    semantics), spawns the domain pool and builds the planner.  Each
    committed update hands its change to the planner and, on a
    resident server, to label maintenance; a paged one builds its block storage from [store] (nids
    from [labels] when given) and drops [store].  The config is
    checked before anything is opened, and a later failure closes
    what was opened: [Error] leaves no open file behind.  A paged
    server refuses a store carrying what block storage does not keep
    ({!Xsm_storage.Block_storage.representable}), such as the type
    annotations of a validated snapshot. *)

val serve : ?on_ready:(unit -> unit) -> t -> (unit, string) result
(** Bind, listen and run until stopped; [on_ready] fires once the
    socket accepts connections (test/bench synchronization).  Returns
    after graceful teardown: sessions joined, snapshot written, WAL
    checkpointed, pool shut down. *)

val request_stop : t -> unit
(** Initiate graceful shutdown from outside a session — signal
    handlers, tests.  Async-signal-safe: writes one byte to the
    stop pipe. *)

val sessions_served : t -> int
(** Sessions accepted so far (for tests). *)


val apply_paged :
  Xsm_storage.Block_storage.t ->
  Xsm_storage.Block_storage.desc Xsm_schema.Update.op ->
  (Xsm_storage.Block_storage.desc Xsm_schema.Update.change, string) result
(** The apply a paged server runs for every committed update: one op
    on its block storage, and the change its planner absorbs.  Refuses
    what {!Xsm_schema.Update.apply} refuses, with the same messages. *)
