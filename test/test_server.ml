(* The session daemon: frame codec, protocol codec, epoch latch,
   domain pool, and an in-process end-to-end server with
   concurrent sessions checking snapshot isolation — a reader's
   (epoch, answer) pairs must be a function: one epoch, one state. *)

module Json = Xsm_obs.Json
module Frame = Xsm_server.Frame
module P = Xsm_server.Protocol
module Epoch = Xsm_server.Epoch
module Pool = Xsm_server.Pool
module Server = Xsm_server.Server
module Client = Xsm_server.Client

let temp_name suffix =
  let f = Filename.temp_file "xsm_server_test" suffix in
  Sys.remove f;
  f

(* ---------------- frame ---------------- *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = Json.Obj [ ("op", Json.Str "hello"); ("n", Json.int 42) ] in
  (match Frame.send a payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Frame.recv b with
  | Ok (Some j) -> Alcotest.(check string) "payload" (Json.to_string payload) (Json.to_string j)
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error e -> Alcotest.fail e);
  (* several frames back to back arrive in order *)
  List.iter
    (fun i ->
      match Frame.send a (Json.int i) with Ok () -> () | Error e -> Alcotest.fail e)
    [ 1; 2; 3 ];
  List.iter
    (fun i ->
      match Frame.recv b with
      | Ok (Some j) -> Alcotest.(check string) "pipelined" (Json.to_string (Json.int i)) (Json.to_string j)
      | _ -> Alcotest.fail "pipelined frame lost")
    [ 1; 2; 3 ];
  Unix.close a;
  (match Frame.recv b with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected clean EOF"
  | Error e -> Alcotest.fail ("expected clean EOF, got: " ^ e));
  Unix.close b

let test_frame_too_large () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = Json.Str (String.make (Frame.max_frame + 1) 'x') in
  (match Frame.send a big with
  | Error e -> Alcotest.(check bool) "names the size" true (String.length e > 0)
  | Ok () -> Alcotest.fail "oversized frame must be refused");
  Unix.close a;
  Unix.close b

(* ---------------- protocol ---------------- *)

let roundtrip_request r =
  match P.request_of_json (P.request_to_json r) with
  | Ok r' -> Alcotest.(check bool) "request survives json" true (r = r')
  | Error e -> Alcotest.fail e

let roundtrip_response r =
  match P.response_of_json (P.response_to_json r) with
  | Ok r' -> Alcotest.(check bool) "response survives json" true (r = r')
  | Error e -> Alcotest.fail e

let test_protocol_roundtrip () =
  List.iter roundtrip_request
    [
      P.Hello { client = "test" };
      P.Query { id = 3; path = "//book/title"; trace = None };
      P.Query
        { id = 3; path = "//book"; trace = Some { trace_id = "cafe01"; parent_span = 7 } };
      P.Update { id = 4; command = "insert /library <x/>"; trace = None };
      P.Update
        {
          id = 4;
          command = "delete //x";
          trace = Some { trace_id = "beef"; parent_span = 1 };
        };
      P.Validate { id = 5; doc = "<a/>"; trace = None };
      P.Stats { id = 6; openmetrics = false };
      P.Stats { id = 6; openmetrics = true };
      P.Introspect { id = 9; what = P.Flight };
      P.Introspect { id = 10; what = P.Trace_events "cafe01" };
      P.Shutdown { id = 7 };
      P.Bye;
    ];
  List.iter roundtrip_response
    [
      P.Welcome { session = 1; version = P.version };
      P.Nodes { id = 3; epoch = 17; values = [ "a"; "b" ] };
      P.Applied { id = 4; epoch = 18 };
      P.Validity { id = 5; valid = false; errors = [ "boom" ] };
      P.Stats_reply { id = 6; body = Json.Obj [ ("x", Json.int 1) ] };
      P.Introspect_reply { id = 9; body = Json.Obj [ ("recent", Json.Arr []) ] };
      P.Stopping { id = 7 };
      P.Failed { id = 8; message = "no" };
    ]

let test_protocol_errors () =
  (match P.request_of_json (Json.Obj [ ("op", Json.Str "frobnicate") ]) with
  | Error e -> Alcotest.(check bool) "unknown op named" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown op must be refused");
  match P.request_of_json (Json.Obj [ ("op", Json.Str "query"); ("id", Json.int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing field must be refused"

(* ---------------- epoch ---------------- *)

let test_epoch_counts_batches () =
  let e = Epoch.create () in
  Alcotest.(check int) "starts at 0" 0 (Epoch.current e);
  Epoch.read e (fun ep -> Alcotest.(check int) "read sees 0" 0 ep);
  ignore (Epoch.write e (fun () -> ()));
  Alcotest.(check int) "write bumps" 1 (Epoch.current e);
  (* a raising writer may have mutated: the epoch must still move *)
  (try Epoch.write e (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising write bumps too" 2 (Epoch.current e);
  Epoch.read e (fun ep -> Alcotest.(check int) "read sees 2" 2 ep)

let test_epoch_excludes_writers () =
  let e = Epoch.create () in
  let writing = ref false in
  let violations = ref 0 in
  let stop = ref false in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            while not !stop do
              Epoch.read e (fun _ -> if !writing then incr violations);
              Thread.yield ()
            done)
          ())
  in
  for _ = 1 to 50 do
    Epoch.write e (fun () ->
        writing := true;
        Thread.yield ();
        writing := false)
  done;
  stop := true;
  List.iter Thread.join readers;
  Alcotest.(check int) "no reader overlapped a writer" 0 !violations

(* ---------------- pool ---------------- *)

let test_pool_runs_and_raises () =
  let p = Pool.create 2 in
  Alcotest.(check int) "size" 2 (Pool.size p);
  Alcotest.(check int) "result" 7 (Pool.run p (fun () -> 3 + 4));
  (match Pool.run p (fun () -> failwith "pool boom") with
  | exception Failure m -> Alcotest.(check string) "exception crosses domains" "pool boom" m
  | _ -> Alcotest.fail "expected the task's exception");
  (* many tasks from many threads all complete *)
  let total = Atomic.make 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            for j = 0 to 24 do
              Atomic.fetch_and_add total (Pool.run p (fun () -> i + j)) |> ignore
            done)
          ())
  in
  List.iter Thread.join threads;
  let expect = List.init 8 (fun i -> List.init 25 (fun j -> i + j)) |> List.concat |> List.fold_left ( + ) 0 in
  Alcotest.(check int) "all tasks ran" expect (Atomic.get total);
  Pool.shutdown p;
  match Pool.run p (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run after shutdown must be refused"

(* ---------------- server end to end ---------------- *)

let boot_library () =
  let doc =
    match Xsm_xml.Parser.parse_document "<library><book><title>One</title></book></library>" with
    | Ok d -> d
    | Error e -> Alcotest.fail (Xsm_xml.Parser.error_to_string e)
  in
  let store = Xsm_xdm.Store.create () in
  let root = Xsm_xdm.Convert.load store doc in
  (store, root)

let config ?(domains = 2) ?(group_commit = true) ?snapshot_path ?wal_path ?page_file
    ?(pool_capacity = 64) ?(use_index = false) ?(flight_capacity = 64) ?slow_log
    ?(slow_threshold_ms = 10.0) () =
  { Server.socket_path = temp_name ".sock"; snapshot_path; wal_path; domains; group_commit;
    use_index; page_file; pool_capacity; flight_capacity; slow_log; slow_threshold_ms }

(* run [f socket srv] against [srv] serving on [socket], then stop it
   gracefully *)
let serving socket srv f =
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let outcome = ref (Ok ()) in
  let server_thread =
    Thread.create
      (fun () ->
        outcome :=
          Server.serve
            ~on_ready:(fun () ->
              Mutex.lock ready_m;
              ready := true;
              Condition.signal ready_c;
              Mutex.unlock ready_m)
            srv)
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Thread.join server_thread;
      match !outcome with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("server teardown: " ^ e))
    (fun () -> f socket srv)

let with_server ?domains ?group_commit ?snapshot_path ?wal_path ?page_file ?pool_capacity
    ?use_index ?flight_capacity ?slow_log ?slow_threshold_ms ?schema f =
  let store, root = boot_library () in
  let config =
    config ?domains ?group_commit ?snapshot_path ?wal_path ?page_file ?pool_capacity ?use_index
      ?flight_capacity ?slow_log ?slow_threshold_ms ()
  in
  match Server.create config ~store ~root ?schema () with
  | Ok srv -> serving config.Server.socket_path srv f
  | Error e -> Alcotest.fail e

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let test_server_session_basics () =
  with_server (fun sock _srv ->
      let c = ok (Client.connect sock) in
      let epoch0, titles = ok (Client.query c "//title") in
      Alcotest.(check (list string)) "initial titles" [ "One" ] titles;
      Alcotest.(check int) "fresh server at epoch 0" 0 epoch0;
      let epoch1 = ok (Client.update c "insert /library <book><title>Two</title></book>") in
      Alcotest.(check bool) "update advances the epoch" true (epoch1 > epoch0);
      let _, titles = ok (Client.query c "//title") in
      Alcotest.(check (list string)) "update visible" [ "One"; "Two" ] titles;
      (* an update that fails leaves the session usable *)
      (match Client.update c "delete //nothing/here" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "deleting a missing node must fail");
      let _, titles = ok (Client.query c "//title") in
      Alcotest.(check (list string)) "state undamaged" [ "One"; "Two" ] titles;
      (* well-formedness validation without a schema *)
      let valid, _ = ok (Client.validate c "<a><b/></a>") in
      Alcotest.(check bool) "well-formed doc accepted" true valid;
      let valid, errors = ok (Client.validate c "<a><b></a>") in
      Alcotest.(check bool) "malformed doc refused" false valid;
      Alcotest.(check bool) "with a reason" true (errors <> []);
      (match ok (Client.stats c) with
      | Json.Obj _ as body -> (
        match Json.member "server" body with
        | Some _ -> ()
        | None -> Alcotest.fail "stats body must carry server info")
      | _ -> Alcotest.fail "stats body must be an object");
      Client.close c)

(* the daemon compiles its schema once, at create: Validate requests
   determinize no content model *)
let test_server_validate_compiles_nothing () =
  let compiles = Xsm_obs.Metrics.Counter.make "validate.automaton_compiles" in
  with_server ~schema:Xsm_schema.Samples.library_schema (fun sock _srv ->
      let c = ok (Client.connect sock) in
      let valid_doc =
        Xsm_xml.Printer.to_string (Xsm_schema.Samples.library_document ~books:2 ~papers:1 ())
      in
      let before = Xsm_obs.Metrics.Counter.value compiles in
      for i = 1 to 20 do
        if i mod 2 = 0 then
          Alcotest.(check bool) "valid document" true (fst (ok (Client.validate c valid_doc)))
        else
          let valid, errors = ok (Client.validate c "<library><magazine/></library>") in
          Alcotest.(check bool) "invalid document" false valid;
          Alcotest.(check bool) "with reasons" true (errors <> [])
      done;
      Alcotest.(check int) "no determinization across 20 requests" before
        (Xsm_obs.Metrics.Counter.value compiles);
      Client.close c)

let test_server_snapshot_isolation () =
  with_server ~domains:2 (fun sock _srv ->
      let writers = 4 and inserts = 12 in
      let writer_threads =
        List.init writers (fun i ->
            Thread.create
              (fun () ->
                let c = ok (Client.connect ~client:(Printf.sprintf "w%d" i) sock) in
                for _ = 1 to inserts do
                  ignore (ok (Client.update c "insert /library <x/>"))
                done;
                Client.close c)
              ())
      in
      (* concurrent readers record (epoch, visible count) pairs *)
      let observations = Queue.create () in
      let obs_m = Mutex.create () in
      let reader_threads =
        List.init 2 (fun i ->
            Thread.create
              (fun () ->
                let c = ok (Client.connect ~client:(Printf.sprintf "r%d" i) sock) in
                for _ = 1 to 30 do
                  let epoch, xs = ok (Client.query c "//x") in
                  Mutex.lock obs_m;
                  Queue.push (epoch, List.length xs) observations;
                  Mutex.unlock obs_m
                done;
                Client.close c)
              ())
      in
      List.iter Thread.join (writer_threads @ reader_threads);
      let final = ok (Client.connect sock) in
      let _, xs = ok (Client.query final "//x") in
      Alcotest.(check int) "every committed insert visible" (writers * inserts) (List.length xs);
      Client.close final;
      (* snapshot isolation: the same epoch never shows two different
         states — a reader can land before or after a batch, never
         inside one *)
      let by_epoch = Hashtbl.create 32 in
      Queue.iter
        (fun (epoch, count) ->
          match Hashtbl.find_opt by_epoch epoch with
          | None -> Hashtbl.add by_epoch epoch count
          | Some seen ->
            Alcotest.(check int)
              (Printf.sprintf "epoch %d stable" epoch)
              seen count)
        observations)

let test_server_checkpoint_roundtrip () =
  let snapshot_path = temp_name ".snap" in
  let wal_path = temp_name ".wal" in
  with_server ~snapshot_path ~wal_path (fun sock _srv ->
      let c = ok (Client.connect sock) in
      ignore (ok (Client.update c "insert /library <book><title>Two</title></book>"));
      ignore (ok (Client.update c "content /library/book/title/text() Uno"));
      Alcotest.(check bool) "wal grows while serving" true (Sys.file_exists wal_path);
      Client.close c);
  (* graceful stop checkpointed: snapshot present, WAL subsumed *)
  Alcotest.(check bool) "snapshot written at shutdown" true (Sys.file_exists snapshot_path);
  Alcotest.(check bool) "wal removed by the checkpoint" false (Sys.file_exists wal_path);
  let store, root, _labels, _meta =
    match Xsm_persist.Snapshot.load ~path:snapshot_path with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (match Xsm_xpath.Eval.Over_store.eval_string store root "//title" with
  | Ok nodes ->
    Alcotest.(check (list string))
      "recovered state is the served state" [ "Uno"; "Two" ]
      (List.map (Xsm_xdm.Store.string_value store) nodes)
  | Error e -> Alcotest.fail e);
  Sys.remove snapshot_path

let test_server_protocol_shutdown () =
  let store, root = boot_library () in
  let socket_path = temp_name ".sock" in
  let config =
    {
      Server.socket_path;
      snapshot_path = None;
      wal_path = None;
      domains = 1;
      group_commit = true;
      use_index = false;
      page_file = None;
      pool_capacity = 64;
      flight_capacity = 64;
      slow_log = None;
      slow_threshold_ms = 10.0;
    }
  in
  let srv = match Server.create config ~store ~root () with Ok s -> s | Error e -> Alcotest.fail e in
  let outcome = ref (Error "never ran") in
  let ready_sem = Semaphore.Binary.make false in
  let t =
    Thread.create
      (fun () ->
        outcome := Server.serve ~on_ready:(fun () -> Semaphore.Binary.release ready_sem) srv)
      ()
  in
  Semaphore.Binary.acquire ready_sem;
  let c = ok (Client.connect socket_path) in
  ok (Client.shutdown c);
  Client.close c;
  Thread.join t;
  (match !outcome with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("serve after Shutdown request: " ^ e));
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* the disk-paged store: updates applied to it, queries answered over
   it (faulting through the tiny shared pool from the read domains),
   pager counters in the stats body, clean checkpointed page file
   after teardown *)
let test_server_paged_store () =
  let page_file = temp_name ".pages" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists page_file then Sys.remove page_file)
    (fun () ->
      with_server ~domains:2 ~page_file ~pool_capacity:2 (fun sock _srv ->
          let c = ok (Client.connect sock) in
          let _, titles = ok (Client.query c "//title") in
          Alcotest.(check (list string)) "query over the paged store" [ "One" ] titles;
          ignore (ok (Client.update c "insert /library <book><title>Two</title></book>"));
          ignore (ok (Client.update c "content /library/book[2]/title/text() Deux"));
          let _, titles = ok (Client.query c "//title") in
          Alcotest.(check (list string)) "updates visible" [ "One"; "Deux" ] titles;
          ignore (ok (Client.update c "delete /library/book[2]"));
          let _, titles = ok (Client.query c "//title") in
          Alcotest.(check (list string)) "delete visible" [ "One" ] titles;
          (match Json.member "pager" (ok (Client.stats c)) with
          | Some (Json.Obj _ as pager) ->
            (match Json.member "accesses" pager with
            | Some (Json.Num n) ->
              Alcotest.(check bool) "queries count as block accesses" true (n > 0.)
            | _ -> Alcotest.fail "pager.accesses missing")
          | _ -> Alcotest.fail "stats body must carry the pager object");
          Client.close c);
      (* graceful teardown checkpointed the store: the file alone
         reconstructs it *)
      let pf = Xsm_pager.Page_file.open_existing page_file in
      Alcotest.(check bool) "page file clean after shutdown" true (Xsm_pager.Page_file.clean pf);
      let bs = Xsm_storage.Block_storage.of_page_file ~capacity:2 pf in
      let doc = Xsm_storage.Block_storage.to_document bs in
      let s = Xsm_xml.Printer.to_string doc in
      Alcotest.(check string) "reopened page file holds the final state"
        "<?xml version=\"1.0\"?>\n<library><book><title>One</title></book></library>" s;
      Xsm_pager.Page_file.close pf)

(* ---------------- one served store: paged = resident ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let oracle_doc =
  "<library><book id=\"b1\"><title>One</title></book><book id=\"b2\"><title>Two</title></book></library>"

(* every update kind — a fragment with mixed content and a comment, a
   text node next to another, a new and a replaced attribute, deleted
   attributes (the queries read them after) — plus refused updates *)
let oracle_updates =
  [
    "insert /library <book id=\"b3\"><title>Three</title><note>a<i>b</i>c<!-- x -->d</note></book>";
    "insert-text /library/book[1] tail";
    "insert-text /library/book[1] more";
    "attr /library/book[2] lang en";
    "attr /library/book[1] id B1";
    "content /library/book[2]/title/text() Deux";
    "delete /library/book[3]/note/i";
    "insert /library/book[3]/note <b>bold</b>";
    "delete /library/book[1]";
    "content /library/book[1] not-text";
    "delete //nothing";
    "insert /library <paper/>";
    "insert-text /library/paper first";
    "delete /library/book[1]/@id";
    "delete //@lang";
  ]

let oracle_queries =
  [ "//title"; "/library/book/@id"; "//@lang"; "//text()"; "/library/book[title = 'Deux']/@lang";
    "//note"; "/library/*" ]

(* One daemon over the labelled base snapshot takes the history; its
   replies, its WAL as the shutdown checkpoint finds it, and its
   shutdown snapshot. *)
let run_history ~dir ~base ~paged ~use_index =
  let file suffix =
    Filename.concat dir
      ((if paged then "paged" else "resident") ^ (if use_index then "-index" else "") ^ suffix)
  in
  let wal_path = file ".wal" and snapshot_path = file ".snap" in
  let store, root, labels, _ = ok (Xsm_persist.Snapshot.load ~path:base) in
  let config =
    config ~snapshot_path ~wal_path ?page_file:(if paged then Some (file ".pages") else None)
      ~pool_capacity:2 ~use_index ()
  in
  let srv = ok (Server.create config ~store ~root ?labels ()) in
  let replies = ref [] and wal = ref "" in
  let note r = replies := r :: !replies in
  serving config.Server.socket_path srv (fun sock _ ->
      let c = ok (Client.connect sock) in
      let queries () =
        List.iter
          (fun q ->
            note
              (match Client.query c q with
              | Ok (epoch, values) -> Printf.sprintf "%s @%d: %s" q epoch (String.concat "|" values)
              | Error e -> Printf.sprintf "%s: error %s" q e))
          oracle_queries
      in
      queries ();
      List.iter
        (fun u ->
          note
            (match Client.update c u with
            | Ok epoch -> Printf.sprintf "%s: applied @%d" u epoch
            | Error e -> Printf.sprintf "%s: error %s" u e);
          queries ())
        oracle_updates;
      wal := read_file wal_path;
      Client.close c);
  (List.rev !replies, !wal, read_file snapshot_path)

(* One fixed history through a resident daemon and a paged one
   (labels, WAL, snapshot, a 2-block pool), with and without the
   index: every reply equal, the WAL and the shutdown snapshot
   byte-identical, and the paged daemon's WAL replays over the base to
   the resident's final state. *)
let test_server_paged_equals_resident () =
  let dir = temp_name ".oracle" in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let base = Filename.concat dir "base.snap" in
      let doc =
        ok (Result.map_error Xsm_xml.Parser.error_to_string (Xsm_xml.Parser.parse_document oracle_doc))
      in
      let store = Xsm_xdm.Store.create () in
      let root = Xsm_xdm.Convert.load store doc in
      let labels = Xsm_numbering.Labeler.label_tree store root in
      ignore (ok (Xsm_persist.Snapshot.save ~labels ~path:base store root));
      List.iter
        (fun use_index ->
          let what s = if use_index then s ^ " (index)" else s in
          let r_replies, r_wal, r_snap = run_history ~dir ~base ~paged:false ~use_index in
          let p_replies, p_wal, p_snap = run_history ~dir ~base ~paged:true ~use_index in
          Alcotest.(check bool) (what "the history ran") true
            (List.mem "//title @12: Deux|Three" r_replies);
          Alcotest.(check (list string)) (what "every reply equal") r_replies p_replies;
          Alcotest.(check bool) (what "WAL bytes equal") true (r_wal = p_wal);
          Alcotest.(check bool) (what "shutdown snapshot bytes equal") true (r_snap = p_snap);
          let replay = Filename.concat dir "replay.wal" in
          write_file replay p_wal;
          let store, root, labels, _ =
            ok
              (Result.map_error Xsm_persist.Recovery.error_message
                 (Xsm_persist.Recovery.recover ~snapshot:base ~wal:replay ()))
          in
          Alcotest.(check bool) (what "the paged WAL replays to the resident state") true
            (ok (Xsm_persist.Snapshot.encode ?labels store root) = r_snap))
        [ false; true ])

(* a refused create closes what it opened and creates no WAL *)
let test_server_create_failure_closes () =
  let store, root = boot_library () in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let wal_path = temp_name ".wal" in
  let foreign = temp_name ".notwal" in
  write_file foreign "not a write-ahead log";
  let pages = temp_name ".pages" and slow_log = temp_name ".slow" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ foreign; pages; slow_log ])
    (fun () ->
      List.iter
        (fun (what, config, wal) ->
          let fds = open_fds () in
          (match Server.create config ~store ~root () with
          | Ok _ -> Alcotest.failf "%s: create must fail" what
          | Error _ -> ());
          Alcotest.(check int) (what ^ ": no descriptor left open") fds (open_fds ());
          Alcotest.(check bool) (what ^ ": no WAL created") false
            (wal && Sys.file_exists wal_path))
        [
          ( "pool capacity 1",
            config ~wal_path ~slow_log ~page_file:pages ~pool_capacity:1 (),
            true );
          ( "page file in a missing directory",
            config ~wal_path ~slow_log
              ~page_file:(Filename.concat (temp_name ".missing") "p.pages")
              (),
            true );
          (* page file and slow log open, then the WAL is refused *)
          ("foreign WAL file", config ~wal_path:foreign ~slow_log ~page_file:pages (), false);
        ])

(* the flight recorder end to end: with a 0ms slow threshold every
   request keeps its plan, failures keep their digests, and the slow
   log gains one parseable JSON line per request *)
let test_server_flight_recorder () =
  let slow_log = temp_name ".slow" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists slow_log then Sys.remove slow_log)
    (fun () ->
      with_server ~use_index:true ~slow_log ~slow_threshold_ms:0.0 (fun sock _srv ->
          let c = ok (Client.connect sock) in
          let _, titles = ok (Client.query c "//title") in
          Alcotest.(check (list string)) "query answered" [ "One" ] titles;
          (match Client.update c "delete //nothing" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "expected a failing update");
          let flight = ok (Client.introspect c P.Flight) in
          let recent =
            match Json.member "recent" flight with
            | Some (Json.Arr ds) -> ds
            | _ -> Alcotest.fail "flight body missing recent"
          in
          Alcotest.(check bool) "digests recorded" true (List.length recent >= 2);
          let str d k = match Json.member k d with Some (Json.Str s) -> s | _ -> "" in
          let qd =
            match List.filter (fun d -> str d "kind" = "query") recent with
            | d :: _ -> d
            | [] -> Alcotest.fail "no query digest"
          in
          Alcotest.(check string) "query digest detail" "//title" (str qd "detail");
          Alcotest.(check bool) "query digest routed" true (str qd "route" <> "");
          (match Json.member "plan" qd with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.fail "slow query digest must carry its plan");
          (match Json.member "est_rows" qd with
          | Some (Json.Arr _) | Some Json.Null -> ()
          | _ -> Alcotest.fail "est_rows must be an interval or null");
          let failed =
            List.exists
              (fun d ->
                match Json.member "outcome" d with Some (Json.Obj _) -> true | _ -> false)
              recent
          in
          Alcotest.(check bool) "failed update digest kept" true failed;
          Client.close c);
      let ic = open_in slow_log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check bool) "slow log written" true (List.length !lines >= 2);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok (Json.Obj _ as d) -> (
            match Json.member "latency_ns" d with
            | Some (Json.Num _) -> ()
            | _ -> Alcotest.fail "slow-log line missing latency")
          | Ok _ | Error _ -> Alcotest.failf "slow-log line not an object: %s" line)
        !lines)

(* trace propagation over the wire: a traced query's server spans are
   retrievable by trace id — one root carrying the wire parent, phase
   children nested within its window; untraced requests stay out *)
let test_server_trace_propagation () =
  with_server (fun sock _srv ->
      let c = ok (Client.connect sock) in
      let trace = { P.trace_id = "trace-e2e"; parent_span = 41 } in
      ignore (ok (Client.query ~trace c "//title"));
      ignore (ok (Client.query c "//book"));
      let body = ok (Client.introspect c (P.Trace_events "trace-e2e")) in
      let events =
        match Json.member "events" body with
        | Some (Json.Arr evs) ->
          List.map
            (fun j ->
              match Xsm_obs.Trace.event_of_json j with
              | Ok e -> e
              | Error e -> Alcotest.fail e)
            evs
        | _ -> Alcotest.fail "no events array"
      in
      Alcotest.(check bool) "spans recorded under the trace" true (events <> []);
      let roots = List.filter (fun (e : Xsm_obs.Trace.event) -> e.parent = 0) events in
      (match roots with
      | [ root ] ->
        Alcotest.(check string) "root span kind" "serve.query" root.name;
        Alcotest.(check string) "wire parent attached" "41"
          (List.assoc "wire_parent" root.attrs);
        Alcotest.(check string) "trace id attached" "trace-e2e"
          (List.assoc "trace" root.attrs);
        let children =
          List.filter (fun (e : Xsm_obs.Trace.event) -> e.parent = root.id) events
        in
        Alcotest.(check bool) "phase spans under the root" true (children <> []);
        List.iter
          (fun (e : Xsm_obs.Trace.event) ->
            Alcotest.(check bool)
              (e.name ^ " within the root window")
              true
              (e.start_ns >= root.start_ns
              && Int64.add e.start_ns e.dur_ns <= Int64.add root.start_ns root.dur_ns))
          children
      | _ -> Alcotest.failf "expected one root span, got %d" (List.length roots));
      Client.close c)

(* ---------------- per-request tracing ---------------- *)

module Trace = Xsm_obs.Trace

(* a span as these tests compare it: its name and its attribute keys *)
let recorded () =
  List.sort compare
    (List.map
       (fun (e : Trace.event) ->
         e.name ^ "[" ^ String.concat "," (List.sort compare (List.map fst e.attrs)) ^ "]")
       (Trace.events ()))

let m_trace_dropped = Xsm_obs.Metrics.Counter.make "obs.trace.dropped"

(* untraced requests of every kind record no span: after more of them
   than an 8-slot ring holds, it is still empty and dropped nothing *)
let test_server_untraced_records_nothing () =
  Xsm_obs.Obs.disable ();
  Trace.set_capacity 8;
  Fun.protect
    ~finally:(fun () -> Trace.set_capacity 65536)
    (fun () ->
      let dropped = Xsm_obs.Metrics.Counter.value m_trace_dropped in
      with_server ~use_index:true ~schema:Xsm_schema.Samples.library_schema (fun sock _srv ->
          let c = ok (Client.connect sock) in
          for i = 1 to 10 do
            ignore (ok (Client.query c "//title"));
            ignore (ok (Client.query c "/library/book[1]/title"));
            ignore (ok (Client.update c (Printf.sprintf "attr /library seq x%d" i)));
            ignore (ok (Client.validate c "<library/>"));
            ignore (ok (Client.stats c))
          done;
          Client.close c);
      Alcotest.(check (list string)) "no span recorded" [] (recorded ());
      Alcotest.(check int) "no span dropped" dropped
        (Xsm_obs.Metrics.Counter.value m_trace_dropped))

(* a traced request records the spans every request recorded while
   the daemon traced them all — its root and phases, and the planner's
   and validator's spans — and an exception inside one leaves
   recording off *)
let test_server_traced_spans () =
  Xsm_obs.Obs.disable ();
  with_server ~use_index:true ~schema:Xsm_schema.Samples.library_schema (fun sock _srv ->
      let c = ok (Client.connect sock) in
      let trace = { P.trace_id = "t-spans"; parent_span = 3 } in
      let spans_of request =
        Trace.reset ();
        request ();
        recorded ()
      in
      let root kind = Printf.sprintf "serve.%s[id,session,trace,wire_parent]" kind in
      let phase name = name ^ "[trace,wire_parent]" in
      Alcotest.(check (list string)) "planner route"
        [ "plan.index[]"; phase "serve.latch"; phase "serve.lock"; phase "serve.plan";
          root "query" ]
        (spans_of (fun () -> ignore (ok (Client.query ~trace c "//title"))));
      Alcotest.(check (list string)) "fallback route"
        [ "plan.fallback[reason]"; "plan.index[]"; phase "serve.latch"; phase "serve.lock";
          phase "serve.plan"; root "query" ]
        (spans_of (fun () -> ignore (ok (Client.query ~trace c "/library/book[1]/title"))));
      Alcotest.(check (list string)) "update"
        [ phase "serve.commit"; root "update" ]
        (spans_of (fun () -> ignore (ok (Client.update ~trace c "attr /library seq s"))));
      let valid_doc =
        Xsm_xml.Printer.to_string (Xsm_schema.Samples.library_document ~books:2 ~papers:1 ())
      in
      Alcotest.(check (list string)) "validate"
        [ root "validate"; "stream.validate[]" ]
        (spans_of (fun () -> ignore (ok (Client.validate ~trace c valid_doc))));
      (* the lexer raises inside the traced validator *)
      Alcotest.(check (list string)) "validate raising"
        [ root "validate"; "stream.validate[exception]" ]
        (spans_of (fun () ->
             Alcotest.(check bool) "malformed" false
               (fst (ok (Client.validate ~trace c "<library><book>")))));
      Alcotest.(check bool) "recording off after the exception" false !Trace.enabled;
      Alcotest.(check (list string)) "untraced after traced" []
        (spans_of (fun () -> ignore (ok (Client.query c "//title"))));
      Client.close c)

let m_wal_syncs = Xsm_obs.Metrics.Counter.make "wal.syncs"

(* an update is acknowledged at one fsync and pays no other, with group
   commit and in the per-request baseline alike *)
let test_server_one_fsync_per_update () =
  List.iter
    (fun group_commit ->
      let wal_path = temp_name ".wal" in
      with_server ~group_commit ~wal_path (fun sock _srv ->
          let c = ok (Client.connect sock) in
          let before = Xsm_obs.Metrics.Counter.value m_wal_syncs in
          for i = 1 to 5 do
            ignore (ok (Client.update c (Printf.sprintf "attr /library seq s%d" i)))
          done;
          Alcotest.(check int)
            (Printf.sprintf "group_commit=%b: wal.syncs per 5 updates" group_commit)
            5
            (Xsm_obs.Metrics.Counter.value m_wal_syncs - before);
          Client.close c);
      Sys.remove wal_path)
    [ true; false ]

(* every acknowledged update on a WAL-backed daemon carries the fsync
   that covered its record: a serve.wal.fsync span within its
   serve.commit span, also when two sessions' updates overlap *)
let test_server_fsync_spans () =
  let wal_path = temp_name ".wal" in
  let trace_id s i = Printf.sprintf "fsync-%d-%d" s i in
  with_server ~wal_path (fun sock _srv ->
      (* each writer keeps its own errors *)
      let errors = Array.make 3 [] in
      let writer s =
        let error e = errors.(s) <- e :: errors.(s) in
        Thread.create
          (fun () ->
            match Client.connect sock with
            | Error e -> error e
            | Ok c ->
              for i = 1 to 10 do
                let trace = { P.trace_id = trace_id s i; parent_span = 1 } in
                match Client.update ~trace c (Printf.sprintf "attr /library s%d v%d" s i) with
                | Ok _ -> ()
                | Error e -> error e
              done;
              Client.close c)
          ()
      in
      List.iter Thread.join [ writer 1; writer 2 ];
      Alcotest.(check (list string)) "every update acknowledged" []
        (List.concat (Array.to_list errors));
      let c = ok (Client.connect sock) in
      for s = 1 to 2 do
        for i = 1 to 10 do
          let id = trace_id s i in
          let events =
            match Json.member "events" (ok (Client.introspect c (P.Trace_events id))) with
            | Some (Json.Arr evs) -> List.map (fun j -> ok (Trace.event_of_json j)) evs
            | _ -> Alcotest.fail "no events array"
          in
          let span name =
            match List.filter (fun (e : Trace.event) -> e.name = name) events with
            | [ e ] -> e
            | l -> Alcotest.failf "%s: %d %s spans" id (List.length l) name
          in
          let commit = span "serve.commit" and fsync = span "serve.wal.fsync" in
          let stop (e : Trace.event) = Int64.add e.start_ns e.dur_ns in
          Alcotest.(check bool)
            (id ^ ": fsync within commit")
            true
            (fsync.start_ns >= commit.start_ns && stop fsync <= stop commit)
        done
      done;
      Client.close c);
  Sys.remove wal_path

(* the openmetrics stats variant: scrapeable text with the server
   counter families present and the terminator in place *)
let test_server_openmetrics () =
  with_server (fun sock _srv ->
      let c = ok (Client.connect sock) in
      ignore (ok (Client.query c "//title"));
      let body = ok (Client.stats ~openmetrics:true c) in
      (match Json.member "openmetrics" body with
      | Some (Json.Str text) ->
        let has needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "requests family" true (has "# TYPE server_requests counter");
        Alcotest.(check bool) "runtime gauge sampled" true (has "runtime_heap_words ");
        Alcotest.(check bool) "terminated" true (has "# EOF")
      | _ -> Alcotest.fail "openmetrics stats reply must carry the text");
      Client.close c)

let suite =
  [
    ( "server.frame",
      [
        Alcotest.test_case "roundtrip and EOF" `Quick test_frame_roundtrip;
        Alcotest.test_case "oversized refused" `Quick test_frame_too_large;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "malformed refused" `Quick test_protocol_errors;
      ] );
    ( "server.epoch",
      [
        Alcotest.test_case "counts batches" `Quick test_epoch_counts_batches;
        Alcotest.test_case "excludes writers" `Quick test_epoch_excludes_writers;
      ] );
    ( "server.pool",
      [ Alcotest.test_case "runs and raises" `Quick test_pool_runs_and_raises ] );
    ( "server.sessions",
      [
        Alcotest.test_case "query/update/validate/stats" `Quick test_server_session_basics;
        Alcotest.test_case "snapshot isolation" `Quick test_server_snapshot_isolation;
        Alcotest.test_case "validate compiles nothing" `Quick
          test_server_validate_compiles_nothing;
        Alcotest.test_case "checkpoint roundtrip" `Quick test_server_checkpoint_roundtrip;
        Alcotest.test_case "paged store" `Quick test_server_paged_store;
        Alcotest.test_case "paged = resident" `Quick test_server_paged_equals_resident;
        Alcotest.test_case "create failure closes" `Quick
          test_server_create_failure_closes;
        Alcotest.test_case "flight recorder and slow log" `Quick
          test_server_flight_recorder;
        Alcotest.test_case "trace propagation" `Quick test_server_trace_propagation;
        Alcotest.test_case "untraced requests record nothing" `Quick
          test_server_untraced_records_nothing;
        Alcotest.test_case "traced requests record their spans" `Quick
          test_server_traced_spans;
        Alcotest.test_case "one fsync per update" `Quick test_server_one_fsync_per_update;
        Alcotest.test_case "fsync spans within commit" `Quick test_server_fsync_spans;
        Alcotest.test_case "openmetrics stats" `Quick test_server_openmetrics;
        Alcotest.test_case "protocol shutdown" `Quick test_server_protocol_shutdown;
      ] );
  ]
