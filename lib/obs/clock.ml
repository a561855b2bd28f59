(* Unix.gettimeofday gives wall time as a float of seconds since the
   Unix epoch — at today's epoch values that float has ~1 µs of
   mantissa granularity, too coarse near the epoch of interest.
   Re-basing on a process-local epoch keeps the subtraction exact and
   the int64 nanosecond conversion faithful.

   The wall clock can step backwards (NTP slew, manual adjustment, VM
   migration); a raw read is therefore not usable as an elapsed-time
   source — a span straddling a step would report a negative duration.
   [now_ns] repairs this by never returning a value below the largest
   one it has handed out, via a CAS loop on an [Atomic] so the
   guarantee holds across domains too. *)

let epoch = Unix.gettimeofday ()

let raw_ns () = Int64.of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

let watermark = Atomic.make 0L

let rec now_ns () =
  let t = raw_ns () in
  let seen = Atomic.get watermark in
  if Int64.compare t seen <= 0 then seen
  else if Atomic.compare_and_set watermark seen t then t
  else now_ns ()

let epoch_wall () = epoch

let cpu_ns () = Int64.of_float (Sys.time () *. 1e9)

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0
