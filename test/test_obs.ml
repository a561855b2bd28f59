(* The telemetry core (lib/obs) and its instrumentation contracts:
   span nesting/ordering invariants, ring retention, histogram bucket
   boundaries, the qcheck quantile law (monotone in the rank, bounded
   by the observed min/max), the Chrome trace-event exporter
   round-trip, and the planner's index/fallback/pruned counters
   against [explain] on a fixed query set. *)

module Q = QCheck
module Trace = Xsm_obs.Trace
module Metrics = Xsm_obs.Metrics
module Json = Xsm_obs.Json
module Counter = Metrics.Counter
module Histogram = Metrics.Histogram
module Ast = Xsm_schema.Ast
module Tree = Xsm_xml.Tree

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* run [f] with tracing on and leave the tracer exactly as we found
   it, whatever happens — other tests (and E15's premise that tracing
   is off by default) depend on it *)
let traced f =
  Trace.enabled := true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.enabled := false;
      Trace.detail := false;
      Trace.reset ())
    f

(* ---------------- spans ---------------- *)

let span_nesting () =
  traced (fun () ->
      Trace.with_span "a" (fun () ->
          Trace.with_span ~attrs:[ ("k", "v") ] "b" (fun () ->
              Trace.with_span "c" ignore);
          Trace.with_span "d" ignore);
      let evs = Trace.events () in
      check_int "four spans" 4 (List.length evs);
      (* events are sorted by start time: a preorder of the forest *)
      check Alcotest.(list string) "preorder" [ "a"; "b"; "c"; "d" ]
        (List.map (fun (e : Trace.event) -> e.name) evs);
      let by_name n = List.find (fun (e : Trace.event) -> e.name = n) evs in
      let a = by_name "a" and b = by_name "b" and c = by_name "c" and d = by_name "d" in
      check_int "root has no parent" 0 a.parent;
      check_int "b under a" a.id b.parent;
      check_int "c under b" b.id c.parent;
      check_int "d under a (sibling of b)" a.id d.parent;
      check_int "a at depth 0" 0 a.depth;
      check_int "b at depth 1" 1 b.depth;
      check_int "c at depth 2" 2 c.depth;
      check_int "d at depth 1" 1 d.depth;
      check_str "attrs preserved" "v" (List.assoc "k" b.attrs);
      (* a child lies within its parent's window *)
      check Alcotest.bool "b starts after a" true (b.start_ns >= a.start_ns);
      check Alcotest.bool "b ends before a" true
        (Int64.add b.start_ns b.dur_ns <= Int64.add a.start_ns a.dur_ns))

let span_disabled_is_transparent () =
  Trace.reset ();
  check Alcotest.bool "tracing off" false !Trace.enabled;
  let r = Trace.with_span "quiet" (fun () -> 42) in
  check_int "thunk result" 42 r;
  check_int "nothing recorded" 0 (List.length (Trace.events ()))

let span_records_on_raise () =
  traced (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "kaput")
       with Failure _ -> ());
      match Trace.events () with
      | [ e ] ->
        check_str "span name" "boom" e.name;
        check Alcotest.bool "exception attr" true (List.mem_assoc "exception" e.attrs)
      | evs -> Alcotest.failf "expected one span, got %d" (List.length evs))

let detail_spans_gated () =
  traced (fun () ->
      Trace.detail := false;
      Trace.with_detail_span "fine" ignore;
      check_int "no detail span without the flag" 0 (List.length (Trace.events ()));
      Trace.detail := true;
      Trace.with_detail_span "fine" ignore;
      check_int "detail span with the flag" 1 (List.length (Trace.events ())))

(* the daemon's per-request switch: on for the thunk alone, off again
   whether it returns or raises, and never off for a process that
   traces everything *)
let recording_is_scoped () =
  let names () = List.map (fun (e : Trace.event) -> e.name) (Trace.events ()) in
  Trace.reset ();
  check Alcotest.bool "tracing off" false !Trace.enabled;
  Trace.recording false (fun () -> Trace.with_span "off" ignore);
  check Alcotest.(list string) "off: nothing recorded" [] (names ());
  Trace.recording true (fun () -> Trace.with_span "on" ignore);
  check Alcotest.bool "off after return" false !Trace.enabled;
  (match Trace.recording true (fun () -> Trace.with_span "boom" (fun () -> failwith "kaput")) with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the exception must escape");
  check Alcotest.bool "off after raise" false !Trace.enabled;
  check Alcotest.(list string) "spans of the on scopes" [ "on"; "boom" ] (names ());
  Trace.reset ();
  traced (fun () ->
      Trace.recording false (fun () -> Trace.with_span "all" ignore);
      Trace.recording true ignore;
      check Alcotest.bool "a traced process stays traced" true !Trace.enabled;
      check Alcotest.(list string) "recorded regardless" [ "all" ] (names ()))

(* recording a span allocates: the duration is a boxed int64 (3
   words); [with_span] also boxes its two clock reads and allocates the
   closure and option that find its frame again, 15 words in all *)
let words_per_span () =
  traced (fun () ->
      (* the first span allocates the ring *)
      Trace.with_span "warm" ignore;
      let n = 1000 in
      let per_span f =
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          f ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int n
      in
      let nested = per_span (fun () -> Trace.with_span "s" ignore) in
      let linked =
        per_span (fun () -> ignore (Trace.record_linked "r" ~parent:0 ~start_ns:1L ~stop_ns:2L))
      in
      let ceiling what limit words =
        if words > limit then
          Alcotest.failf "%s: %.2f words per span, ceiling %.0f" what words limit
      in
      ceiling "with_span" 15. nested;
      ceiling "record_linked" 3. linked)

let ring_retention () =
  traced (fun () ->
      Trace.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Trace.set_capacity 65536)
        (fun () ->
          for i = 1 to 6 do
            Trace.with_span (Printf.sprintf "s%d" i) ignore
          done;
          let evs = Trace.events () in
          check_int "ring holds capacity spans" 4 (List.length evs);
          check_int "older spans counted as dropped" 2 (Trace.dropped ());
          check Alcotest.(list string) "newest spans survive"
            [ "s3"; "s4"; "s5"; "s6" ]
            (List.map (fun (e : Trace.event) -> e.name) evs)))

(* ---------------- histogram buckets ---------------- *)

let bucket_boundaries () =
  (* bucket 0 holds values <= 1; bucket i holds (2^(i-1), 2^i] *)
  check_int "0.5 in bucket 0" 0 (Histogram.bucket_index 0.5);
  check_int "1.0 in bucket 0" 0 (Histogram.bucket_index 1.0);
  check_int "1.5 in bucket 1" 1 (Histogram.bucket_index 1.5);
  check_int "2.0 in bucket 1 (inclusive bound)" 1 (Histogram.bucket_index 2.0);
  check_int "2.0+eps in bucket 2" 2 (Histogram.bucket_index 2.000001);
  check_int "1024 in bucket 10" 10 (Histogram.bucket_index 1024.0);
  check Alcotest.(float 0.0) "bound of bucket 10" 1024.0 (Histogram.bucket_bound 10);
  (* the boundary law on a spread of magnitudes *)
  List.iter
    (fun v ->
      let i = Histogram.bucket_index v in
      check Alcotest.bool
        (Printf.sprintf "%g below its bucket bound" v)
        true
        (v <= Histogram.bucket_bound i);
      if i > 0 then
        check Alcotest.bool
          (Printf.sprintf "%g above the previous bound" v)
          true
          (v > Histogram.bucket_bound (i - 1)))
    [ 0.001; 1.0; 3.0; 7.99; 8.0; 8.01; 1e6; 1e9; 3.5e9 ]

let histogram_observations () =
  let reg = Metrics.create () in
  let h = Histogram.make ~registry:reg "t.lat" in
  List.iter (Histogram.observe h) [ 1.0; 2.0; 2.0; 7.0; 100.0 ];
  check_int "count" 5 (Histogram.count h);
  check Alcotest.(float 1e-9) "sum" 112.0 (Histogram.sum h);
  check Alcotest.(float 0.0) "min" 1.0 (Histogram.min_value h);
  check Alcotest.(float 0.0) "max" 100.0 (Histogram.max_value h);
  check
    Alcotest.(list (pair (float 0.0) int))
    "non-empty buckets"
    [ (1.0, 1); (2.0, 2); (8.0, 1); (128.0, 1) ]
    (Histogram.buckets h)

let quantile_law =
  let gen =
    Q.make
      ~print:Q.Print.(list float)
      Q.Gen.(
        list_size (int_range 1 60)
          (map (fun x -> Float.abs x +. 0.001) (float_range (-1e9) 1e9)))
  in
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:200 ~name:"histogram quantiles monotone and bounded" gen
       (fun values ->
         let reg = Metrics.create () in
         let h = Histogram.make ~registry:reg "law.lat" in
         List.iter (Histogram.observe h) values;
         let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ] in
         let results = List.map (Histogram.quantile h) qs in
         let lo = Histogram.min_value h and hi = Histogram.max_value h in
         let bounded = List.for_all (fun v -> v >= lo && v <= hi) results in
         let rec monotone = function
           | a :: (b :: _ as rest) -> a <= b && monotone rest
           | _ -> true
         in
         bounded && monotone results))

(* ---------------- Chrome trace round-trip ---------------- *)

let chrome_round_trip () =
  traced (fun () ->
      Trace.with_span ~attrs:[ ("q", "//a \"quoted\"") ] "query" (fun () ->
          Trace.with_span "parse" ignore;
          Trace.with_span "execute" ignore);
      let text = Json.to_string (Trace.to_chrome ()) in
      match Json.parse text with
      | Error e -> Alcotest.failf "exporter output does not parse: %s" e
      | Ok json -> (
        match Json.member "traceEvents" json with
        | Some (Json.Arr evs) ->
          check_int "one event per span" 3 (List.length evs);
          let ts_of ev =
            match Json.member "ts" ev with
            | Some (Json.Num t) -> t
            | _ -> Alcotest.fail "event without a numeric ts"
          in
          let rec non_decreasing = function
            | a :: (b :: _ as rest) -> ts_of a <= ts_of b && non_decreasing rest
            | _ -> true
          in
          check Alcotest.bool "ts non-decreasing" true (non_decreasing evs);
          List.iter
            (fun ev ->
              (match Json.member "ph" ev with
              | Some (Json.Str "X") -> ()
              | _ -> Alcotest.fail "events must be phase-X (complete)");
              match Json.member "name" ev with
              | Some (Json.Str _) -> ()
              | _ -> Alcotest.fail "event without a name")
            evs
        | _ -> Alcotest.fail "no traceEvents array"))

let json_escaping_round_trip () =
  let j =
    Json.Obj
      [
        ("text", Json.Str "line\nbreak \"quote\" back\\slash \ttab");
        ("nums", Json.Arr [ Json.int 42; Json.Num 2.5; Json.Null; Json.Bool true ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> check Alcotest.bool "round-trips structurally" true (j = j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let json_unicode_escapes () =
  (* \uXXXX decodes to UTF-8 across the one/two/three-byte ranges *)
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | Ok (Json.Str s) -> check_str input expected s
      | Ok _ -> Alcotest.failf "%s: not a string" input
      | Error e -> Alcotest.failf "%s: %s" input e)
    [
      ({|"A"|}, "A");
      ({|"é"|}, "\xc3\xa9");
      ({|"€"|}, "\xe2\x82\xac");
      ({|"aAb"|}, "aAb");
    ];
  (* malformed escapes are errors, not crashes *)
  List.iter
    (fun input ->
      match Json.parse input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: must be refused" input)
    [ {|"\u00"|}; {|"\uzzzz"|}; {|"\q"|}; {|"\|} ]

let json_deep_nesting () =
  let depth = 400 in
  let text = String.make depth '[' ^ "1" ^ String.make depth ']' in
  (match Json.parse text with
  | Ok j ->
    let rec unwrap d = function
      | Json.Arr [ inner ] -> unwrap (d + 1) inner
      | Json.Num 1.0 -> check_int "nesting depth preserved" depth d
      | _ -> Alcotest.fail "unexpected shape"
    in
    unwrap 0 j
  | Error e -> Alcotest.failf "deep nesting: %s" e);
  let objs =
    String.concat "" (List.init depth (fun _ -> {|{"k":|}))
    ^ "null" ^ String.make depth '}'
  in
  match Json.parse objs with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep objects: %s" e

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let json_truncated_inputs () =
  (* every truncation is an error, and errors that carry a position
     point into the input *)
  List.iter
    (fun (input, fragment) ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "%S: truncated input must be refused" input
      | Error e ->
        check Alcotest.bool
          (Printf.sprintf "%S: error %S mentions %S" input e fragment)
          true (contains ~needle:fragment e))
    [
      ({|"abc|}, "unterminated string");
      ({|[1, 2|}, "at 5: expected , or ] in array");
      ({|{"a": 1|}, "at 7: expected , or } in object");
      ({|{"a"|}, "expected :");
      ("", "end of input");
      ({|[1 2]|}, "at 3");
      ({|{"a": 1 "b": 2}|}, "at 8");
      ("[1, 2] tail", "trailing garbage at 7");
    ]

(* ---------------- flight recorder ---------------- *)

module Flight = Xsm_obs.Flight

let digest ?(latency_ns = 1_000L) ?(outcome = Flight.Done) ?(kind = "query") n : Flight.digest
    =
  {
    seq = 0;
    at_ns = Int64.of_int n;
    kind;
    detail = Printf.sprintf "//q%d" n;
    route = "index";
    est_lo = 1;
    est_hi = 4;
    actual_rows = 2;
    pager_hits = 0;
    pager_evictions = 0;
    fsync_ns = 0L;
    latency_ns;
    outcome;
    session = 0;
    request = n;
    trace_id = "";
    plan = None;
  }

let flight_ring_keeps_recent () =
  let f = Flight.create ~capacity:4 () in
  for i = 1 to 6 do
    Flight.record f (digest i)
  done;
  check_int "recorded counts every digest" 6 (Flight.recorded f);
  let recent = List.map (fun (d : Flight.digest) -> d.request) (Flight.recent f) in
  check Alcotest.(list int) "ring holds the newest, oldest first" [ 3; 4; 5; 6 ] recent;
  let seqs = List.map (fun (d : Flight.digest) -> d.seq) (Flight.recent f) in
  check Alcotest.(list int) "sequence numbers stamped in order" [ 3; 4; 5; 6 ] seqs

let flight_tail_policy () =
  let f = Flight.create ~capacity:4 () in
  (* fill the ring with an error and a notably slow request, then
     flood it: eviction must not lose them *)
  Flight.record f (digest ~outcome:(Flight.Failed "boom") 1);
  Flight.record f (digest ~latency_ns:9_999_999L 2);
  for i = 3 to 12 do
    Flight.record f (digest ~latency_ns:(Int64.of_int (10 * i)) i)
  done;
  (match Flight.kept_errors f with
  | [ d ] ->
    check_int "the error digest survived" 1 d.request;
    (match d.outcome with
    | Flight.Failed m -> check_str "message kept" "boom" m
    | Flight.Done -> Alcotest.fail "kept error lost its outcome")
  | ds -> Alcotest.failf "expected one kept error, got %d" (List.length ds));
  let slow = List.map (fun (d : Flight.digest) -> d.request) (Flight.kept_slow f) in
  check Alcotest.bool "the slowest evicted digest survived" true (List.mem 2 slow);
  (* the kept-slow list is the tail: ascending latency, bounded *)
  let lats = List.map (fun (d : Flight.digest) -> d.latency_ns) (Flight.kept_slow f) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> Int64.compare a b <= 0 && ascending rest
    | _ -> true
  in
  check Alcotest.bool "kept-slow ascending by latency" true (ascending lats);
  check Alcotest.bool "kept-slow bounded" true (List.length slow <= 4)

let flight_json_shape () =
  let f = Flight.create ~capacity:4 () in
  Flight.record f (digest 1);
  Flight.record f (digest ~outcome:(Flight.Failed "nope") 2);
  let j = Flight.to_json f in
  (match Json.member "recent" j with
  | Some (Json.Arr ds) -> check_int "both digests listed" 2 (List.length ds)
  | _ -> Alcotest.fail "no recent array");
  let d = Flight.digest_to_json (digest 1) in
  (match Json.member "est_rows" d with
  | Some (Json.Arr [ Json.Num lo; Json.Num hi ]) ->
    check_int "est lo" 1 (int_of_float lo);
    check_int "est hi" 4 (int_of_float hi)
  | _ -> Alcotest.fail "est_rows must be [lo, hi]");
  (match Json.member "outcome" d with
  | Some (Json.Str "ok") -> ()
  | _ -> Alcotest.fail "ok outcome renders as \"ok\"");
  let d' : Flight.digest = { (digest 3) with est_lo = -1; est_hi = -1 } in
  match Json.member "est_rows" (Flight.digest_to_json d') with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail "missing estimate renders as null"

(* ---------------- OpenMetrics exposition ---------------- *)

module Om = Xsm_obs.Openmetrics

let openmetrics_names () =
  check Alcotest.bool "plain name valid" true (Om.valid_name "wal_fsync_ns");
  check Alcotest.bool "colon allowed" true (Om.valid_name "ns:metric");
  check Alcotest.bool "dot invalid" false (Om.valid_name "wal.fsync_ns");
  check Alcotest.bool "leading digit invalid" false (Om.valid_name "2fast");
  check Alcotest.bool "empty invalid" false (Om.valid_name "");
  check_str "dots become underscores" "wal_fsync_ns" (Om.sanitize "wal.fsync_ns");
  check_str "leading digit prefixed" "_2fast" (Om.sanitize "2fast");
  check Alcotest.bool "sanitize output always valid" true
    (List.for_all
       (fun s -> Om.valid_name (Om.sanitize s))
       [ "a.b.c"; "9"; "-"; "pager.writeback_ns"; "\xc3\xa9" ])

let openmetrics_render_grammar () =
  let text =
    Om.render
      [
        Om.Counter { name = "server.requests"; help = "requests \"served\"\n"; value = 7 };
        Om.Gauge { name = "runtime.heap_words"; help = "heap"; value = 123456.0 };
        Om.Histogram
          {
            name = "wal.fsync_ns";
            help = "fsync latency";
            count = 3;
            sum = 42.5;
            buckets = [ (1.0, 1); (2.0, 0); (8.0, 2) ];
          };
      ]
  in
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun l -> l <> "") lines in
  check_str "terminated by # EOF" "# EOF" (List.nth lines (List.length lines - 1));
  (* every non-comment line is <valid-name>[{labels}] <value> *)
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then begin
        let name_end =
          match (String.index_opt line ' ', String.index_opt line '{') with
          | Some s, Some b -> min s b
          | Some s, None -> s
          | _ -> Alcotest.failf "sample line without a value: %s" line
        in
        check Alcotest.bool
          (Printf.sprintf "series name valid in %S" line)
          true
          (Om.valid_name (String.sub line 0 name_end))
      end)
    lines;
  (* counters expose under the _total suffix *)
  check Alcotest.bool "counter _total series" true
    (contains ~needle:"\nserver_requests_total 7" text);
  check Alcotest.bool "counter TYPE line" true
    (contains ~needle:"# TYPE server_requests counter" text);
  (* help strings stay on one line: the newline is escaped (quotes
     pass through — only label values quote-escape in OpenMetrics) *)
  check Alcotest.bool "help escaped" true
    (contains ~needle:"requests \"served\"\\n" text);
  (* histogram buckets are cumulative and end at +Inf = count *)
  check Alcotest.bool "bucket le=1" true
    (contains ~needle:{|wal_fsync_ns_bucket{le="1"} 1|} text);
  check Alcotest.bool "bucket le=2 cumulative" true
    (contains ~needle:{|wal_fsync_ns_bucket{le="2"} 1|} text);
  check Alcotest.bool "bucket le=8 cumulative" true
    (contains ~needle:{|wal_fsync_ns_bucket{le="8"} 3|} text);
  check Alcotest.bool "+Inf bucket equals count" true
    (contains ~needle:{|wal_fsync_ns_bucket{le="+Inf"} 3|} text);
  check Alcotest.bool "sum series" true (contains ~needle:"wal_fsync_ns_sum 42.5" text);
  check Alcotest.bool "count series" true (contains ~needle:"wal_fsync_ns_count 3" text)

let openmetrics_collision_refused () =
  match
    Om.render
      [
        Om.Counter { name = "a.b"; help = ""; value = 1 };
        Om.Counter { name = "a_b"; help = ""; value = 2 };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "colliding sanitized names must be refused"

let openmetrics_registry_scrape () =
  (* the real registry renders, parses as the grammar, and carries
     every registered metric exactly once *)
  let reg = Metrics.create () in
  let c = Counter.make ~registry:reg ~help:"ops" "om.ops" in
  let h = Histogram.make ~registry:reg ~help:"lat" "om.lat_ns" in
  Counter.incr c;
  Histogram.observe h 3.0;
  let text = Metrics.to_openmetrics reg in
  check Alcotest.bool "ops family present" true
    (contains ~needle:"# TYPE om_ops counter" text);
  check Alcotest.bool "histogram family present" true
    (contains ~needle:"# TYPE om_lat_ns histogram" text);
  let count_type_lines =
    List.length
      (List.filter
         (fun l -> has_prefix "# TYPE om_ops " l)
         (String.split_on_char '\n' text))
  in
  check_int "each family typed exactly once" 1 count_type_lines

(* ---------------- counters and cells ---------------- *)

let counter_cells_sum () =
  let reg = Metrics.create () in
  let c = Counter.make ~registry:reg "t.ops" in
  let a = Counter.cell c and b = Counter.cell c in
  Counter.incr c;
  Counter.cell_add a 10;
  Counter.cell_incr b;
  check_int "cell a" 10 (Counter.cell_value a);
  check_int "cell b" 1 (Counter.cell_value b);
  check_int "registry total sums cells" 12 (Counter.value c);
  check Alcotest.bool "get-or-create returns the same handle" true
    (Counter.value (Counter.make ~registry:reg "t.ops") = 12)

(* ---------------- planner counters vs explain ---------------- *)

(* the library schema of test_analysis, trimmed to what the queries
   touch: book(title, author+, issue?) with issue(publisher, year) *)
let library_schema =
  let open Ast in
  let issue =
    complex
      (Some
         (sequence
            [
              elem_p (element "publisher" (named_type "xs:string"));
              elem_p (element "year" (named_type "xs:gYear"));
            ]))
  in
  let book =
    complex
      (Some
         (sequence
            [
              elem_p (element "title" (named_type "xs:string"));
              elem_p
                (element "author" ~repetition:(repeat 1 None) (named_type "xs:string"));
              elem_p (element "issue" ~repetition:optional (named_type "Issue"));
            ]))
  in
  schema
    ~complex_types:[ ("Issue", issue); ("Book", book) ]
    (element "library"
       (Anonymous
          (complex
             (Some
                (sequence
                   [ elem_p (element "book" ~repetition:many (named_type "Book")) ])))))

let library_doc =
  let e name children = Tree.Element (Tree.elem name ~children) in
  let t s = Tree.Text s in
  Tree.document
    (Tree.elem "library"
       ~children:
         [
           e "book"
             [
               e "title" [ t "Foundations" ];
               e "author" [ t "Abiteboul" ];
               e "issue" [ e "publisher" [ t "AW" ]; e "year" [ t "1995" ] ];
             ];
           e "book" [ e "title" [ t "Sedna" ]; e "author" [ t "Novak" ] ];
         ])

let planner_counters_match_explain () =
  let store, dnode =
    match Xsm_schema.Validator.validate_document library_doc library_schema with
    | Ok sd -> sd
    | Error es ->
      Alcotest.failf "fixture invalid: %s"
        (String.concat "; " (List.map Xsm_schema.Validator.error_to_string es))
  in
  let module Pl = Xsm_xpath.Planner.Over_store in
  let planner = Pl.create store dnode in
  Pl.set_pruner planner (Xsm_analysis.Query_static.pruner
       (Xsm_analysis.Schema_graph.build (Xsm_schema.Compiled.make library_schema)));
  (* the registry handles the planner bumps: get-or-create by name *)
  let c_hits = Counter.make "planner.index_hits"
  and c_fallbacks = Counter.make "planner.fallbacks"
  and c_pruned = Counter.make "planner.pruned" in
  let hits0 = Counter.value c_hits
  and fallbacks0 = Counter.value c_fallbacks
  and pruned0 = Counter.value c_pruned
  and local_pruned0 = Pl.pruned_count planner in
  let queries =
    [
      "/library/book/title";
      "//author";
      "/library/book[issue/year='1995']/title";
      "/library/book[1]";
      "//book[2]/title";
      "/library/magazine";
      "/library/book/isbn";
    ]
  in
  let expect_hits = ref 0 and expect_fallbacks = ref 0 and expect_pruned = ref 0 in
  List.iter
    (fun q ->
      let p = Xsm_xpath.Path_parser.parse_exn q in
      let verdict = Pl.explain planner p in
      (if has_prefix "index" verdict then incr expect_hits
       else if has_prefix "fallback" verdict then incr expect_fallbacks
       else if has_prefix "pruned" verdict then incr expect_pruned
       else Alcotest.failf "%s: unclassifiable explain %S" q verdict);
      ignore (Pl.eval planner p))
    queries;
  check_int "every query classified" (List.length queries)
    (!expect_hits + !expect_fallbacks + !expect_pruned);
  (* the fixed set exercises all three outcomes *)
  check Alcotest.bool "set contains index hits" true (!expect_hits > 0);
  check Alcotest.bool "set contains fallbacks" true (!expect_fallbacks > 0);
  check Alcotest.bool "set contains pruned queries" true (!expect_pruned > 0);
  check_int "index_hits counter matches explain" !expect_hits
    (Counter.value c_hits - hits0);
  check_int "fallbacks counter matches explain" !expect_fallbacks
    (Counter.value c_fallbacks - fallbacks0);
  check_int "pruned counter matches explain" !expect_pruned
    (Counter.value c_pruned - pruned0);
  check_int "per-planner pruned view agrees" !expect_pruned
    (Pl.pruned_count planner - local_pruned0)

(* ---------------- clock and span clamps ---------------- *)

let clock_monotone () =
  (* the raw source (gettimeofday) may step backwards; now_ns clamps
     to a watermark, so no read ever precedes an earlier one *)
  let last = ref (Xsm_obs.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Xsm_obs.Clock.now_ns () in
    if t < !last then Alcotest.failf "now_ns went backwards: %Ld after %Ld" t !last;
    last := t
  done;
  (* the watermark is shared: a read that happens-after another
     thread's reads (join) can never precede them *)
  let t_before = Xsm_obs.Clock.now_ns () in
  let maxima = Array.make 4 0L in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let m = ref 0L in
            for _ = 1 to 1_000 do
              m := max !m (Xsm_obs.Clock.now_ns ())
            done;
            maxima.(i) <- !m)
          ())
  in
  List.iter Thread.join threads;
  let t_after = Xsm_obs.Clock.now_ns () in
  Array.iter
    (fun m ->
      check Alcotest.bool "thread reads follow the pre-spawn read" true (m >= t_before);
      check Alcotest.bool "post-join read follows thread reads" true (t_after >= m))
    maxima

let record_span_clamps_negative () =
  traced (fun () ->
      Trace.record_span ~attrs:[ ("k", "v") ] "neg" ~start_ns:100L ~stop_ns:40L;
      Trace.record_span "pos" ~start_ns:40L ~stop_ns:100L;
      let evs = Trace.events () in
      check_int "both recorded" 2 (List.length evs);
      let by_name n = List.find (fun (e : Trace.event) -> e.name = n) evs in
      let neg = by_name "neg" and pos = by_name "pos" in
      check Alcotest.int64 "backwards interval clamps to zero" 0L neg.dur_ns;
      check Alcotest.int64 "start kept" 100L neg.start_ns;
      check_str "attrs kept" "v" (List.assoc "k" neg.attrs);
      check Alcotest.int64 "forward interval kept" 60L pos.dur_ns)

(* ---------------- suite ---------------- *)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and preorder" `Quick span_nesting;
        Alcotest.test_case "disabled tracer is transparent" `Quick
          span_disabled_is_transparent;
        Alcotest.test_case "span recorded on raise" `Quick span_records_on_raise;
        Alcotest.test_case "detail spans need the detail flag" `Quick
          detail_spans_gated;
        Alcotest.test_case "ring retention keeps the newest" `Quick ring_retention;
        Alcotest.test_case "recording switch is scoped" `Quick recording_is_scoped;
        Alcotest.test_case "words per recorded span" `Quick words_per_span;
        Alcotest.test_case "histogram bucket boundaries" `Quick bucket_boundaries;
        Alcotest.test_case "histogram observation bookkeeping" `Quick
          histogram_observations;
        quantile_law;
        Alcotest.test_case "chrome trace round-trip" `Quick chrome_round_trip;
        Alcotest.test_case "json escaping round-trip" `Quick json_escaping_round_trip;
        Alcotest.test_case "json unicode escapes" `Quick json_unicode_escapes;
        Alcotest.test_case "json deep nesting" `Quick json_deep_nesting;
        Alcotest.test_case "json truncated inputs carry positions" `Quick
          json_truncated_inputs;
        Alcotest.test_case "flight ring keeps the newest" `Quick flight_ring_keeps_recent;
        Alcotest.test_case "flight tail policy keeps errors and slowest" `Quick
          flight_tail_policy;
        Alcotest.test_case "flight digest json shape" `Quick flight_json_shape;
        Alcotest.test_case "openmetrics name grammar" `Quick openmetrics_names;
        Alcotest.test_case "openmetrics exposition grammar" `Quick
          openmetrics_render_grammar;
        Alcotest.test_case "openmetrics collision refused" `Quick
          openmetrics_collision_refused;
        Alcotest.test_case "openmetrics registry scrape" `Quick
          openmetrics_registry_scrape;
        Alcotest.test_case "counter cells sum into the registry" `Quick
          counter_cells_sum;
        Alcotest.test_case "planner counters match explain" `Quick
          planner_counters_match_explain;
        Alcotest.test_case "clock is monotone across threads" `Quick clock_monotone;
        Alcotest.test_case "record_span clamps negative durations" `Quick
          record_span_clamps_negative;
      ] );
  ]
