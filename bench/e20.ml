(* E20: the price of observability under serve load.

   The daemon ships with part of its observability layer
   unconditionally on: every request leaves a digest in the flight
   recorder and GC gauges are sampled at batch boundaries.  Spans are
   recorded only for requests that carry a trace context, or for every
   request when the process runs as [xsm serve --trace FILE].  The
   claim this experiment defends is that even whole-process tracing
   costs under 5% of loopback serve throughput.

   Method: one in-process server per variant (same document, same
   workload, one closed-loop client over the Unix socket, 90% indexed
   queries / 10% updates), measured as end-to-end requests per second,
   best of [trials] runs per variant:

   - {b obs on}: whole-process tracing, what [--trace] does — every
     request's root, phase and planner spans recorded, a superset of
     what a traced request records — plus flight digests, runtime
     sampling, estimate-vs-actual on every planner digest.
   - {b obs off}: no spans, the daemon's default for untraced
     requests.  The flight recorder has no off switch by design, so
     this variant prices the span layer on top of the always-on
     digest floor; the digest floor itself is priced separately below
     as ns/record.

   Also reported: the micro-cost of one flight-recorder record and of
   rendering the full registry as OpenMetrics text (what a scrape
   pays).

   With [--smoke] the run is small and asserts the headline bound
   (used by CI): on-throughput >= 0.95x off-throughput. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Server = Xsm_server.Server
module Client = Xsm_server.Client
module Clock = Xsm_obs.Clock
module Flight = Xsm_obs.Flight
module Metrics = Xsm_obs.Metrics

let instance = ref 0

let with_server ~obs f =
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:120 ~papers:60 () in
  let dnode = Convert.load store doc in
  incr instance;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsm-e20-%d-%d.sock" (Unix.getpid ()) !instance)
  in
  let config =
    {
      Server.socket_path = sock;
      snapshot_path = None;
      wal_path = None (* no fsync in the loop: it would drown the effect measured *);
      domains = 2;
      group_commit = true;
      use_index = true (* planner path: digests carry routes and estimates *);
      page_file = None;
      pool_capacity = 64;
      flight_capacity = 256;
      slow_log = None;
      slow_threshold_ms = 10.0;
    }
  in
  let srv =
    match Server.create config ~store ~root:dnode () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let ready = Semaphore.Binary.make false in
  let outcome = ref (Ok ()) in
  let t =
    Thread.create
      (fun () ->
        outcome := Server.serve ~on_ready:(fun () -> Semaphore.Binary.release ready) srv)
      ()
  in
  Semaphore.Binary.acquire ready;
  (* [create] leaves the switch alone: the traced variant turns
     tracing on for the whole process, as [--trace] does, and the
     baseline makes sure it is off *)
  if obs then Xsm_obs.Obs.enable () else Xsm_obs.Obs.disable ();
  let result = f sock in
  Server.request_stop srv;
  Thread.join t;
  Xsm_obs.Obs.disable ();
  (match !outcome with Ok () -> () | Error e -> failwith e);
  result

(* closed loop: one client, a fixed request script, wall-clock req/s *)
let run_load sock ~requests =
  let c = match Client.connect ~client:"e20" sock with Ok c -> c | Error e -> failwith e in
  let t0 = Clock.now_ns () in
  for j = 0 to requests - 1 do
    if j mod 10 = 9 then (
      match Client.update c (Printf.sprintf "attr /library seq x%d" j) with
      | Ok _ -> ()
      | Error e -> failwith e)
    else
      match Client.query c "//author" with Ok _ -> () | Error e -> failwith e
  done;
  let t1 = Clock.now_ns () in
  Client.close c;
  float_of_int requests /. (Int64.to_float (Int64.sub t1 t0) /. 1e9)

(* one warmup pass then [trials] interleaved off/on pairs, best of
   each: successive server boots run measurably faster as the major
   heap grows, so measuring all-off-then-all-on would credit the
   second variant with the warmup *)
let throughput_pair ~requests ~trials =
  ignore (with_server ~obs:true (fun sock -> run_load sock ~requests));
  let best_off = ref 0.0 and best_on = ref 0.0 in
  for _ = 1 to trials do
    let off = with_server ~obs:false (fun sock -> run_load sock ~requests) in
    let on = with_server ~obs:true (fun sock -> run_load sock ~requests) in
    if off > !best_off then best_off := off;
    if on > !best_on then best_on := on
  done;
  (!best_off, !best_on)

(* the always-on digest floor: ns per Flight.record on a warm ring,
   keep policy included (everything Done, so evictions hit the
   slow-tail insertion path) *)
let flight_record_ns () =
  let f = Flight.create ~capacity:256 () in
  let d : Flight.digest =
    {
      seq = 0;
      at_ns = 0L;
      kind = "query";
      detail = "//author";
      route = "index";
      est_lo = 100;
      est_hi = 200;
      actual_rows = 150;
      pager_hits = 0;
      pager_evictions = 0;
      fsync_ns = 0L;
      latency_ns = 50_000L;
      outcome = Flight.Done;
      session = 0;
      request = 0;
      trace_id = "";
      plan = None;
    }
  in
  let n = 200_000 in
  let t0 = Clock.now_ns () in
  for i = 1 to n do
    Flight.record f { d with latency_ns = Int64.of_int (i land 0xffff) }
  done;
  let t1 = Clock.now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. float_of_int n

(* what one scrape pays: render the full default registry *)
let openmetrics_render_us () =
  Metrics.Runtime.sample ();
  let n = 500 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    ignore (Metrics.to_openmetrics Metrics.default)
  done;
  let t1 = Clock.now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. float_of_int n /. 1e3

let run ?(smoke = false) () =
  let requests = if smoke then 400 else 4000 in
  let trials = 3 in
  Printf.printf "E20 observability overhead (in-process daemon, loopback, %d requests, best of %d)\n"
    requests trials;
  let off, on = throughput_pair ~requests ~trials in
  let overhead = (off -. on) /. off *. 100.0 in
  Printf.printf "  obs off  %10.0f req/s\n" off;
  Printf.printf "  obs on   %10.0f req/s\n" on;
  Printf.printf "  overhead %9.1f%%\n" overhead;
  Printf.printf "  flight record        %8.1f ns/digest (always-on floor)\n"
    (flight_record_ns ());
  Printf.printf "  openmetrics render   %8.1f us/scrape\n" (openmetrics_render_us ());
  if smoke then
    if on >= 0.95 *. off then print_endline "  smoke: OK (full observability within 5%)"
    else begin
      Printf.printf "  smoke: FAIL (observability costs %.1f%% > 5%%)\n" overhead;
      exit 1
    end
