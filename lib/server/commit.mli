(** Group commit in two stages: each submission is acknowledged at the
    fsync that covers it.

    Durability demands that an update is acknowledged only after its
    WAL record reached disk, and an fsync costs far more than applying
    the update.  Paying one fsync {e per request} caps write
    throughput at [1/t_fsync] regardless of concurrency.  Group commit
    amortizes it, and pipelining the two stages keeps it from adding
    waits of its own:

    - {b Apply.}  One applier at a time drains the queued submissions
      and runs them as one batch (in the server: apply each update
      under the exclusive epoch latch and append its WAL record).  It
      leaves the stage as soon as the batch has applied, so the next
      batch applies while this one syncs.
    - {b Sync.}  One syncer at a time.  A sync covers every batch that
      had applied when it started, oldest first.  A submitter returns
      as soon as a completed sync covers its batch; if no sync is
      running it syncs itself, otherwise it waits and looks again.  No
      submitter waits for a batch applied after its own.

    Submissions arriving while a sync runs apply meanwhile and share
    the next sync, so under load the number covered per fsync adapts to
    the fsync latency (the log flush pipelining of Aether, and of
    PostgreSQL's [XLogFlush]).

    The module is policy-free: [apply] and [sync] are injected, so
    tests drive it with plain lists and a gated "fsync", and the server
    wires them to the epoch latch and the real WAL. *)

type ('req, 'res) t

val create :
  ?limit:int -> apply:('req list -> 'res list) -> sync:(unit -> unit) -> unit -> ('req, 'res) t
(** [apply batch] executes one batch and returns one result per
    request, in order; it is only ever called by one applier at a time.
    If it raises (or returns a list of the wrong length), every
    submission of that batch fails with that exception and no sync
    covers it.

    [sync ()] makes durable everything the batches applied so far
    wrote; it is only ever called by one syncer at a time, and may run
    beside an [apply].  If it raises, every submission it covered fails
    with that exception.

    [limit] caps the submissions per batch and per sync (default:
    unlimited).  [limit:1] makes every request pay its own apply and
    its own sync — the E17 baseline. *)

val submit : ('req, 'res) t -> 'req -> 'res * (int64 * int64)
(** Hand in a request and block until a sync covering its batch has
    returned.  Returns the request's result and the start and stop
    ({!Xsm_obs.Clock.now_ns}) of that sync.  Re-raises the exception of
    a failed apply or sync.  Thread-safe. *)

type stats = {
  submissions : int;  (** requests submitted *)
  batches : int;  (** [sync] calls — fsyncs, in the server *)
  max_batch : int;  (** the most submissions one sync covered *)
}

val stats : ('req, 'res) t -> stats
