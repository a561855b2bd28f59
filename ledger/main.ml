(* The repository benchmark: four workloads over the paths users run,
   end-to-end metrics from untraced runs, a per-layer breakdown from
   traced ones.  See README.md in this directory for the workloads,
   metrics and how to run, trace and compare.

   One run:      main.exe --workload W --seed N --seconds S --trace 0|1
   The ledger:   main.exe --ledger OUT.json --seed N [--repeat R]
                          [--traced DIR] [--compare PREV.json]
   Comparison:   main.exe --compare PREV.json CUR.json
   Smoke:        main.exe --ledger-smoke *)

module Json = Xsm_obs.Json
module H = Harness

let workloads = [ "ingest"; "serve_read"; "serve_write"; "serve_paged" ]

(* The declared metrics, as BENCHMARK.json lists them. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_ms", "ms"); ("p90_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("stream.sax_ns_per_event", "ns");
    ("stream.validate_ns_per_event", "ns");
    ("stream.load_ns_per_event", "ns");
    ("stream.events_per_op", "count");
    ("pager.writeback_us_per_op", "us");
    ("pager.writes_per_op", "count");
    ("pager.evictions_per_op", "count");
    ("pager.accesses_per_op", "count");
    ("pager.faults_per_op", "count");
    ("pager.hit_ratio", "ratio");
    ("storage.checkpoint_ms", "ms");
    ("storage.blocks_per_frame", "ratio");
    ("persist.wal_append_us_per_op", "us");
    ("persist.wal_fsync_us_per_op", "us");
    ("persist.wal_syncs_per_op", "count");
    ("persist.wal_bytes_per_op", "B");
    ("persist.snapshot_load_ms", "ms");
    ("persist.replay_us_per_op", "us");
    ("server.roundtrip_overhead_us", "us");
    ("server.lock_wait_us", "us");
    ("server.latch_wait_us", "us");
    ("server.pool_wait_us", "us");
    ("server.commit_us", "us");
    ("server.fsync_us", "us");
    ("server.commit_mean_batch", "count");
    ("xpath.plan_us", "us");
    ("xpath.eval_us", "us");
    ("xpath.fallback_share", "ratio");
    ("xpath.fallback_time_share", "ratio");
    ("index.maintain_us_per_op", "us");
    ("index.epochs", "count");
    ("index.vi_drops", "count");
    ("core.validate_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
  ]

let setups ~smoke = if smoke then 2 else 15

let run_workload w ~seed ~seconds ~smoke ~traced ~trace_dir =
  let setups = setups ~smoke in
  match w with
  | "ingest" -> Ingest.run ~seed ~seconds ~smoke ~traced ~trace_dir
  | "serve_read" -> Serve.run Serve.Read ~seed ~seconds ~setups ~smoke ~traced ~trace_dir
  | "serve_write" -> Serve.run Serve.Write ~seed ~seconds ~setups ~smoke ~traced ~trace_dir
  | "serve_paged" -> Serve.run Serve.Paged ~seed ~seconds ~setups ~smoke ~traced ~trace_dir
  | w -> failwith ("unknown workload " ^ w)

(* One run, the benchmark's own interface: the rows, then the result
   object as the last line.  A failed check makes the run incorrect
   and the exit code non-zero. *)
let single w ~seed ~seconds ~smoke ~traced ~trace_dir =
  (* the load generator takes the second CPU of the placement (see
     Harness): re-executed under taskset once, same pid *)
  (match Lazy.force H.placement with
  | Some (daemon, generator) when Sys.getenv_opt H.placement_var = None ->
    Unix.putenv H.placement_var (Printf.sprintf "%d,%d" daemon generator);
    let argv = H.pinned (Some generator) (Sys.executable_name :: List.tl (Array.to_list Sys.argv)) in
    Unix.execvp (List.hd argv) (Array.of_list argv)
  | _ -> ());
  (* no run may outlive its budget, children included *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "ledger: run exceeded its time budget";
         H.kill_all ();
         exit 3));
  ignore (Unix.alarm (min 175 (60 + (4 * int_of_float seconds))));
  (* a run that breaks off still ends with a result line, an incorrect one *)
  let o =
    try run_workload w ~seed ~seconds ~smoke ~traced ~trace_dir
    with e ->
      H.kill_all ();
      { H.rows = []; attempted = 1; failed = 1; errors = [ Printexc.to_string e ] }
  in
  H.print_rows ~workload:w o.H.rows;
  let declared = if traced then per_layer else end_to_end in
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : H.metric) -> m.name = name) o.H.rows with
        | Some m -> m
        | None ->
          (* a layer the workload does not pass through reads 0; an
             end-to-end metric is never absent *)
          if not traced then missing := name :: !missing;
          H.metric name unit_ 0.)
      declared
  in
  let errors =
    o.H.errors @ List.map (fun n -> "no value for end-to-end metric " ^ n) (List.rev !missing)
  in
  List.iter (fun e -> prerr_endline ("ledger: check failed: " ^ e)) errors;
  let correct = errors = [] && o.H.failed = 0 in
  H.print_result ~correct ~attempted:(max 1 o.H.attempted) ~failed:o.H.failed metrics;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* The ledger: every workload in a fresh child, repeated, summarized   *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  rows : H.metric list;
}

let run_child ?(echo = true) w ~seed ~seconds ~smoke ~traced ~trace_dir =
  let args =
    [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if traced then "1" else "0") ]
    @ (match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> [])
    @ if smoke then [ "--smoke" ] else []
  in
  let c = H.spawn args in
  let rec lines acc = match H.read_line c with Some l -> lines (l :: acc) | None -> acc in
  let rev_lines = lines [] in
  let exited_ok = match H.wait c with () -> true | exception Failure _ -> false in
  let rows =
    List.find_map
      (fun l ->
        let p = String.length H.rows_prefix in
        if String.starts_with ~prefix:H.rows_prefix l then
          match Json.parse (String.sub l p (String.length l - p)) with
          | Ok (Json.Arr rs) -> Some (List.filter_map H.metric_of_json rs)
          | _ -> None
        else None)
      rev_lines
    |> Option.value ~default:[]
  in
  (* echo the human-readable rows, not the machine lines *)
  if echo then
    List.iter
      (fun l ->
        if not (String.starts_with ~prefix:H.rows_prefix l || String.starts_with ~prefix:"{" l) then
          print_endline l)
      (List.rev rev_lines);
  let result = match rev_lines with last :: _ -> Json.parse last | [] -> Error "no output" in
  match result with
  | Ok j ->
    {
      correct = exited_ok && Json.member "correct" j = Some (Json.Bool true);
      attempted = int_of_float (H.json_num [ "attempted" ] j);
      failed = int_of_float (H.json_num [ "failed" ] j);
      rows;
    }
  | Error _ -> { correct = false; attempted = 1; failed = 1; rows }

let summary values =
  let q1, q3 = H.quartiles values in
  (H.median_of_list values, q1, q3)

(* Runs of one workload, keyed by metric name: every value in run
   order, its unit and sample counts. *)
let workload_json runs =
  let names =
    List.concat_map (fun r -> List.map (fun (m : H.metric) -> (m.name, m.unit_)) r.rows) runs
    |> List.sort_uniq compare
  in
  let metric (name, unit_) =
    let ms =
      List.filter_map (fun r -> List.find_opt (fun (m : H.metric) -> m.name = name) r.rows) runs
    in
    let values = List.map (fun (m : H.metric) -> m.value) ms in
    let median, q1, q3 = summary values in
    ( name,
      Json.Obj
        [
          ("unit", Json.Str unit_);
          ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
          ("samples", Json.Arr (List.map (fun (m : H.metric) -> Json.int m.samples) ms));
          ("median", Json.Num median);
          ("q1", Json.Num q1);
          ("q3", Json.Num q3);
        ] )
  in
  Json.Obj
    [
      ("correct", Json.Arr (List.map (fun r -> Json.Bool r.correct) runs));
      ("attempted", Json.Arr (List.map (fun r -> Json.int r.attempted) runs));
      ("failed", Json.Arr (List.map (fun r -> Json.int r.failed) runs));
      ("metrics", Json.Obj (List.map metric names));
    ]

let write_json path j =
  let oc = open_out path in
  output_string oc (Json.to_string j ^ "\n");
  close_out oc

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Comparison against a previous ledger                                *)

type bound = { metric : string; better : string; bound : float }

let bounds_of benchmark =
  match Json.member "end_to_end" (read_json benchmark) with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun j ->
        match (Json.member "name" j, Json.member "better" j, Json.member "bound" j) with
        | Some (Json.Str metric), Some (Json.Str better), Some (Json.Num bound) ->
          Some { metric; better; bound }
        | _ -> None)
      ms
  | _ -> failwith (benchmark ^ ": no end_to_end list")

(* Rows only some workloads report, so the benchmark interface, which
   needs every end-to-end metric on every workload, cannot carry them,
   and the p99, which every workload reports but whose run-to-run
   spread on a shared host is wider than any bound the interface
   allows; only --compare gates them.  Where their run-to-run spread is
   wider than the bound, the verdict is "unresolved", never
   "unchanged". *)
let workload_bounds =
  [
    { metric = "p99_ms"; better = "lower"; bound = 0.10 };
    { metric = "ingest_mb_s"; better = "higher"; bound = 0.05 };
    { metric = "space_amp"; better = "lower"; bound = 0.01 };
    { metric = "recover_s"; better = "lower"; bound = 0.10 };
    { metric = "read_p50_ms"; better = "lower"; bound = 0.05 };
    { metric = "read_p99_ms"; better = "lower"; bound = 0.10 };
    { metric = "write_p50_ms"; better = "lower"; bound = 0.10 };
    { metric = "write_p99_ms"; better = "lower"; bound = 0.10 };
  ]

let values j =
  match Json.member "values" j with
  | Some (Json.Arr vs) -> List.filter_map (function Json.Num v -> Some v | _ -> None) vs
  | _ -> []

let ints key j =
  match Json.member key j with
  | Some (Json.Arr vs) -> List.fold_left (fun s -> function Json.Num v -> s +. v | _ -> s) 0. vs
  | _ -> 0.

(* The rule of the choosing-metrics guide (section 6.5 and 8): a
   median worse by more than the bound is a regression; a spread wider
   than the bound leaves the pairing unresolved unless every run of one
   side beats every run of the other; a gain needs nine tenths of the
   run pairs and a median shift beyond the previous runs' spread. *)
let verdict b prev cur =
  let better x y = if b.better = "lower" then x < y else x > y in
  let m0, q1p, q3p = summary prev and m1, q1c, q3c = summary cur in
  let worse = (if b.better = "lower" then m1 -. m0 else m0 -. m1) /. Float.abs m0 in
  let spread = Float.max ((q3p -. q1p) /. Float.abs m0) ((q3c -. q1c) /. Float.abs m1) in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) prev) cur in
  let all_worse = List.for_all (fun c -> List.for_all (fun p -> better p c) prev) cur in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip prev cur in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let status =
    if worse > b.bound then if spread > b.bound && not all_worse then "unresolved" else "regressed"
    else if
      worse < 0.
      && -.worse > (q3p -. q1p) /. Float.abs m0
      && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    then "improved"
    else if spread > b.bound && not all_better then "unresolved"
    else "unchanged"
  in
  (status, worse, spread)

let compare_ledgers ~benchmark prev cur =
  let bounds = bounds_of benchmark @ workload_bounds in
  let regressions = ref 0 in
  Printf.printf "\n%-12s %-14s %12s %12s %9s %8s  %s\n" "workload" "metric" "previous" "current"
    "worse by" "bound" "verdict";
  List.iter
    (fun w ->
      match (H.json_at [ "workloads"; w ] prev, H.json_at [ "workloads"; w ] cur) with
      | Some p, Some c ->
        List.iter
          (fun b ->
            match (H.json_at [ "metrics"; b.metric ] p, H.json_at [ "metrics"; b.metric ] c) with
            | Some pm, Some cm when values pm <> [] && values cm <> [] ->
              let status, worse, spread = verdict b (values pm) (values cm) in
              if status = "regressed" then incr regressions;
              Printf.printf "%-12s %-14s %12.5g %12.5g %8.1f%% %7.0f%%  %s (spread %.1f%%)\n" w
                b.metric (H.median_of_list (values pm)) (H.median_of_list (values cm)) (100. *. worse)
                (100. *. b.bound) status (100. *. spread)
            | None, None -> ()
            | _ -> Printf.printf "%-12s %-14s missing on one side\n" w b.metric)
          bounds;
        let frac j = ints "failed" j /. Float.max 1. (ints "attempted" j) in
        let f0 = frac p and f1 = frac c in
        let status =
          if f1 > f0 then begin
            incr regressions;
            "regressed"
          end
          else "unchanged"
        in
        Printf.printf "%-12s %-14s %12.5g %12.5g %9s %8s  %s\n" w "fail_frac" f0 f1 "" "0" status
      | _ -> Printf.printf "%-12s missing on one side\n" w)
    workloads;
  !regressions

(* ------------------------------------------------------------------ *)
(* Driving the ledger                                                  *)

let ledger ~out ~seed ~seconds ~repeat ~traced_dir =
  (* repeats interleave the workloads rather than running each one R
     times in a row, so slow drift in the machine spreads over all *)
  let runs = List.map (fun w -> (w, ref [])) workloads in
  for _ = 1 to repeat do
    List.iter
      (fun w ->
        let r = run_child w ~seed ~seconds ~smoke:false ~traced:false ~trace_dir:None in
        let cell = List.assoc w runs in
        cell := r :: !cell)
      workloads
  done;
  let runs = List.map (fun (w, cell) -> (w, List.rev !cell)) runs in
  let traced =
    match traced_dir with
    | None -> []
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      List.map
        (fun w ->
          let r = run_child w ~seed ~seconds ~smoke:false ~traced:true ~trace_dir:(Some dir) in
          let ops rs = List.find_opt (fun (m : H.metric) -> m.name = "ops_per_s") rs in
          let untraced =
            List.filter_map
              (fun r -> Option.map (fun (m : H.metric) -> m.value) (ops r.rows))
              (List.assoc w runs)
          in
          let overhead =
            match ops r.rows with Some m -> m.value /. H.median_of_list untraced | None -> nan
          in
          Printf.printf "%-12s tracing: traced/untraced ops_per_s = %.3f\n" w overhead;
          ( w,
            Json.Obj
              [
                ("correct", Json.Bool r.correct);
                ("traced_over_untraced_ops_per_s", Json.Num overhead);
                ( "layers",
                  Json.Obj
                    (List.filter_map
                       (fun (name, _) ->
                         List.find_opt (fun (m : H.metric) -> m.name = name) r.rows
                         |> Option.map (fun (m : H.metric) ->
                                ( name,
                                  Json.Obj
                                    [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] )))
                       per_layer) );
              ] ))
        workloads
  in
  (match traced_dir with
  | Some dir -> write_json (Filename.concat dir "layers.json") (Json.Obj traced)
  | None -> ());
  let j =
    Json.Obj
      [
        ("seed", Json.int seed);
        ("seconds", Json.Num seconds);
        ("repeat", Json.int repeat);
        ("workloads", Json.Obj (List.map (fun (w, rs) -> (w, workload_json rs)) runs));
      ]
  in
  write_json out j;
  Printf.printf "\n%-12s %-22s %14s %14s %14s %6s\n" "workload" "metric" "median" "q1" "q3" "unit";
  List.iter
    (fun (w, rs) ->
      match H.json_at [ "metrics" ] (workload_json rs) with
      | Some (Json.Obj ms) ->
        List.iter
          (fun (name, m) ->
            if List.mem_assoc name end_to_end || not (String.contains name '.') then
              Printf.printf "%-12s %-22s %14.6g %14.6g %14.6g %6s\n" w name
                (H.json_num [ "median" ] m)
                (H.json_num [ "q1" ] m) (H.json_num [ "q3" ] m)
                (match Json.member "unit" m with Some (Json.Str u) -> u | _ -> ""))
          ms
      | _ -> ())
    runs;
  let ok =
    List.for_all (fun (_, rs) -> List.for_all (fun r -> r.correct && r.failed = 0) rs) runs
    && List.for_all (fun (_, t) -> Json.member "correct" t = Some (Json.Bool true)) traced
  in
  (j, ok)

(* ------------------------------------------------------------------ *)
(* Smoke: tiny inputs, every declared metric present and finite, every
   check passing.  No speed bounds. *)

let smoke ~benchmark =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match bounds_of benchmark with
  | bs ->
    let declared = List.map (fun b -> b.metric) bs |> List.sort compare in
    if declared <> List.sort compare (List.map fst end_to_end) then
      fail "%s declares other end-to-end metrics than the benchmark reports" benchmark
  | exception (Sys_error _ | Failure _) -> fail "%s unreadable" benchmark);
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let r = run_child ~echo:false w ~seed:1 ~seconds:0.3 ~smoke:true ~traced ~trace_dir:None in
          if not r.correct then fail "%s (trace %b): a check failed" w traced;
          List.iter
            (fun (name, _) ->
              match List.find_opt (fun (m : H.metric) -> m.name = name) r.rows with
              | Some m when Float.is_finite m.value -> ()
              | Some _ -> fail "%s: %s is not finite" w name
              | None ->
                (* per-layer rows a workload has no layer for read 0 *)
                if not traced then fail "%s: %s missing" w name)
            (if traced then per_layer else end_to_end))
        [ false; true ])
    workloads;
  match !failures with
  | [] -> print_endline "ledger smoke: every workload ran, every check passed"
  | fs ->
    List.iter (fun f -> prerr_endline ("ledger smoke: " ^ f)) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt_in key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: r -> opt_in key r
    | [] -> None
  in
  let opt key = opt_in key args in
  let flag key = List.mem key args in
  let seed = Option.fold ~none:1 ~some:int_of_string (opt "--seed") in
  let seconds = Option.fold ~none:20. ~some:float_of_string (opt "--seconds") in
  let benchmark = Option.value ~default:"BENCHMARK.json" (opt "--benchmark") in
  match args with
  | [ "--ingest-child"; dir; traced; trace_file; file; records ] ->
    Ingest.child ~dir ~traced:(bool_of_string traced)
      ~trace_file:(if trace_file = "-" then None else Some trace_file)
      (file, int_of_string records)
  | [ "--ingest-recover"; dir; records ] -> Ingest.recover_child ~dir ~records:(int_of_string records)
  | [ "--serve-child"; w; dir; traced; pool ] ->
    let w = List.find (fun v -> Serve.name v = w) Serve.[ Read; Write; Paged ] in
    Serve.server_child w ~dir ~traced:(bool_of_string traced) ~pool_capacity:(int_of_string pool)
  | [ "--recover-child"; dir; zone_first ] ->
    Serve.recover_child ~dir ~zone_first:(int_of_string zone_first)
  | _ when flag "--ledger-smoke" -> smoke ~benchmark
  | _ when opt "--workload" <> None ->
    single (Option.get (opt "--workload")) ~seed ~seconds ~smoke:(flag "--smoke")
      ~traced:(opt "--trace" = Some "1") ~trace_dir:(opt "--trace-dir")
  | _ when opt "--ledger" <> None ->
    let out = Option.get (opt "--ledger") in
    let repeat = Option.fold ~none:1 ~some:int_of_string (opt "--repeat") in
    let cur, ok = ledger ~out ~seed ~seconds ~repeat ~traced_dir:(opt "--traced") in
    let regressions =
      match opt "--compare" with
      | Some prev -> compare_ledgers ~benchmark (read_json prev) cur
      | None -> 0
    in
    if (not ok) || regressions > 0 then exit 1
  | "--compare" :: prev :: cur :: _ ->
    if compare_ledgers ~benchmark (read_json prev) (read_json cur) > 0 then exit 1
  | _ ->
    prerr_endline
      "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
      \       main.exe --ledger OUT.json [--seed N] [--seconds S] [--repeat R] [--traced DIR] \
       [--compare PREV.json]\n\
      \       main.exe --compare PREV.json CUR.json\n\
      \       main.exe --ledger-smoke";
    exit 2
