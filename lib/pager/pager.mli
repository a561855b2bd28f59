(** The buffer pool: a bounded set of resident blocks over a
    {!Page_file}, with 2Q replacement and WAL-ordered write-back.

    The pager does not know what a block {e is}: the client hands it
    {!handlers} that serialize a block to a blob, restore one from a
    blob, and drop one's in-memory payload.  The pager owns the
    residency decisions — which blocks are in memory, when a dirty one
    is written back, which one a fault evicts.

    {b Replacement (2Q).}  A first-touch block enters the [A1in] FIFO;
    evicted from there it leaves a ghost entry in [A1out]; only a
    fault that hits a ghost — proof of re-reference — enters the [Am]
    LRU working set.  A sequential scan therefore streams through
    [A1in] (at most capacity/4 of the pool) and cannot displace the
    re-read working set in [Am] (the blocks whose values point reads
    and mutations keep coming back to); {!touch}'s [~scan] hint keeps
    even ghost hits out of [Am] for deliberate extent scans.

    {b WAL ordering.}  Dirty frames carry the newest WAL LSN covering
    their changes.  A frame is written back only after [force] has
    made that LSN durable, so no page image with unsynced WAL records
    ever reaches disk (audited by the crash sweep over
    {!Page_file.iter_pages}).  A dirty frame whose covering record is
    not even written yet ([lsn > current_lsn ()], the bulk-load window
    between an append and its subtree's record), or can no longer be
    made durable (a log whose sync failed lowers [current_lsn] to its
    durable records), is unstealable: the pool overflows past capacity
    rather than flushing unlogged state, so reads go on after a failed
    sync.

    {b Reading, writing and pinning.}  A payload read that fits in
    one callback goes through {!read}: fault and read share one
    critical section, so no concurrent fault can evict the block in
    between.  A mutation calls {!write} before it mutates: fault and
    mark-dirty share one section, as fault and read do.  A window
    that spans other pager calls — a mutation that registers a new
    block while its source is mid-surgery — is bracketed by
    [write ~pin:true] + {!unpin}; pinned frames are never
    evicted.  When every frame is pinned or WAL-held, a fault is
    admitted past capacity and counted in [pin_overflows] — graceful
    overflow, not failure.

    Thread-safe: one mutex per pool; handler callbacks run under it
    and must not re-enter the pager.  A handler or WAL hook that raises
    (an injected crash from [force]) releases the mutex on the way
    out. *)

type t

type handlers = {
  serialize : int -> string;
      (** block id -> blob payload; runs under the pool mutex, so a
          client may encode into one reused buffer *)
  deserialize : int -> string -> unit;  (** restore a faulted block *)
  on_evict : int -> unit;  (** drop the in-memory payload *)
}

type wal_hook = {
  current_lsn : unit -> int;
      (** records appended so far that a [force] can still make
          durable: after a failed sync, only the durable ones *)
  synced_lsn : unit -> int;  (** records durable (at a sync point) *)
  force : int -> unit;  (** make records up to an LSN durable *)
}

val create : capacity:int -> handlers:handlers -> ?wal:wal_hook -> Page_file.t -> t
(** A pool of at most [capacity] resident blocks ([Invalid_argument]
    below 2).  Opening over a checkpointed file loads its block
    directory: every known block starts cold and faultable. *)

val touch : ?pin:bool -> ?scan:bool -> t -> int -> [ `Hit | `Miss ]
(** Access a block, faulting it from the page file if cold (evicting
    under 2Q to make room).  [Invalid_argument] for a block id never
    registered nor present in the reopened directory. *)

val read : t -> int -> (unit -> 'a) -> 'a
(** [read t id reader] accesses block [id] like {!touch} (faulting it
    in if cold) and runs [reader] while the block is resident, all
    under the pool mutex.  [reader] must not call back into the
    pager. *)

val write : ?pin:bool -> t -> int -> lsn:int -> unit
(** [write t id ~lsn] accesses block [id] like {!touch} and records
    that it changes under WAL position [lsn] (pass 0 when no WAL
    governs the store), in one critical section — the one call a
    mutation makes {e before} it mutates: the block is resident and
    will be written back before it can be evicted.  [~pin] pins it
    too, for a mutation whose window spans other pager calls. *)

val unpin : t -> int -> unit

val register_new : ?lsn:int -> t -> int -> unit
(** Admit a freshly created block: resident, no disk image yet.  With
    [~lsn] it is dirty from birth under that WAL position (a clean
    frame with no disk image would be evicted without write-back). *)

val mark_dirty : t -> int -> lsn:int -> unit
(** Record that a resident block changed under WAL position [lsn]
    ({!write} without the access). *)

val flush_all : t -> unit
(** Write back every dirty resident block (WAL-ordered); nothing is
    evicted. *)

val checkpoint : t -> lsn:int -> meta:string -> unit
(** Flush all dirty blocks, persist the block directory plus the
    client's [meta] payload, stamp the file clean at [lsn], fsync.
    After this the file alone reconstructs the store. *)

val read_meta : Page_file.t -> ((int * int) list * string) option
(** The checkpoint metadata of a page file: the block directory
    [(block id, blob head page)] and the client's payload — [None]
    when the file has never been checkpointed. *)

val clear : t -> unit
(** Flush, then evict everything (ghosts included): a cold pool over
    an intact page file — the cold-cache benchmark reset. *)

val blob_head : t -> int -> int option
(** The head page of a block's on-disk image, if it has one. *)

val file : t -> Page_file.t

type stats = {
  accesses : int;
  hits : int;
  reads : int;  (** faults served from the page file *)
  writes : int;  (** block images written (write-back + checkpoint) *)
  evictions : int;
  pin_overflows : int;
  resident : int;
  dirty : int;
  capacity : int;
}

val stats : t -> stats
(** This pool's counters — private {!Xsm_obs} cells; the registry's
    [pager.*] metrics aggregate every pool in the process. *)

val hit_ratio : stats -> float option
(** [hits / accesses], [None] for an untouched pool. *)

val stats_json : stats -> Xsm_obs.Json.t
(** The canonical JSON rendering ([hit_ratio] is [null] for an
    untouched pool) — shared by [xsm stats] and the daemon's stats
    endpoint. *)

val reset_stats : t -> unit
