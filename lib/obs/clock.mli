(** Time sources for telemetry and benchmarking.

    Two clocks, deliberately distinguished: {!now_ns} is {e elapsed
    wall time} (what a user waits for — includes fsync, page faults,
    scheduler preemption), {!cpu_ns} is {e process CPU time} (what the
    code computed).  Benchmarks of I/O-bound paths must use the wall
    clock: timing a per-record-fsync WAL with [Sys.time] reports the
    microseconds the CPU spent submitting the write and misses the
    milliseconds the disk spent syncing it. *)

val now_ns : unit -> int64
(** Wall-clock nanoseconds since an arbitrary process-local epoch
    (module load), made {e non-decreasing}: the underlying source is
    [Unix.gettimeofday], which can step backwards (NTP adjustment, VM
    migration), so reads are clamped to the largest value previously
    returned — a backwards step shows up as a stretch of equal reads,
    never as time running in reverse.  The clamp is atomic, so the
    guarantee holds across domains.  {!Trace} additionally clamps span
    durations at recording time, so exported traces never contain
    negative durations even for spans whose endpoints were read before
    this module's watermark advanced. *)

val epoch_wall : unit -> float
(** The process-local epoch {!now_ns} counts from, as Unix wall-clock
    seconds.  Timestamps from two processes live on different epochs;
    to merge them (the [xsm client --trace] client+server trace), shift
    one side by the difference of the two epochs.  Exchanging the epoch
    costs ~1 µs of [gettimeofday] float granularity — fine for trace
    visualization, not a time-sync protocol. *)

val cpu_ns : unit -> int64
(** Process CPU nanoseconds ([Sys.time]-based), for attributing how
    much of a wall-clock interval was spent computing. *)

val seconds : (unit -> unit) -> float
(** Wall-clock seconds one call of the thunk takes. *)
