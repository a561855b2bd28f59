(* The [ingest] workload: document bytes -> section 6.1 stream
   validation -> durable pages, the path [xsm load --schema --page-file
   --pool-capacity 48 --wal --snapshot] runs.

   As with [xsm load], every document is loaded by a process of its own.
   The parent writes a few seeded record corpora, then re-executes
   itself once per document, for a fixed number of documents.  Each
   child analyses the schema and opens the document's page file, WAL
   and snapshot base — that is set-up, which ends when it reports
   ready — then streams the document: SAX events feed the streaming
   validator and the bulk loader, blocks page through a 48-frame pool
   with WAL-ordered write-back, the WAL fsyncs every 64 records, and a
   checkpoint ends the load.  One operation is one batch of 64 records,
   the WAL's durability unit.

   Checks: every document's stream verdict is valid and its descriptor
   count is what the generator predicts; after the measured phase a
   fresh process recovers the last document from snapshot + WAL, which
   must hold every record. *)

module Sax = Xsm_stream.Sax
module SV = Xsm_stream.Stream_validator
module BL = Xsm_stream.Bulk_load
module Bs = Xsm_storage.Block_storage
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Wal = Xsm_persist.Wal
module Snapshot = Xsm_persist.Snapshot
module Store = Xsm_xdm.Store
module Metrics = Xsm_obs.Metrics
module Trace = Xsm_obs.Trace
module Clock = Xsm_obs.Clock
module Json = Xsm_obs.Json
module H = Harness

let pool_capacity = 48
let sync_every = 64
let batch_records = 64

(* the library registers these; get-or-create hands back its handles *)
let h_writeback = Metrics.Histogram.make "pager.writeback_ns"
let h_append = Metrics.Histogram.make "wal.append_ns"
let h_fsync = Metrics.Histogram.make "wal.fsync_ns"
let c_syncs = Metrics.Counter.make "wal.syncs"

type registry_point = { writeback : float; append : float; fsync : float; syncs : int }

let registry_point () =
  {
    writeback = Metrics.Histogram.sum h_writeback;
    append = Metrics.Histogram.sum h_append;
    fsync = Metrics.Histogram.sum h_fsync;
    syncs = Metrics.Counter.value c_syncs;
  }

type paths = { pages : string; wal : string; snap : string }

let paths dir =
  {
    pages = Filename.concat dir "ingest.pages";
    wal = Filename.concat dir "ingest.wal";
    snap = Filename.concat dir "ingest.snap";
  }

type target = { pf : Page_file.t; writer : Wal.Writer.t; bl : BL.t; sv : SV.t }

(* Open a document's durable target the way [xsm load] does: a fresh
   WAL, the bare root snapshotted as the recovery base when its start
   tag completes, the pager attached before the first append. *)
let open_target p =
  let tables = (Xsm_analysis.Analyzer.analyze H.record_schema).Xsm_analysis.Analyzer.tables in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ p.pages; p.wal; p.snap ];
  let writer =
    H.ok_or_fail (Result.map_error Wal.error_message (Wal.Writer.create ~sync_every p.wal))
  in
  let on_root root =
    let store = Store.create () in
    let dnode = Xsm_xdm.Convert.load store (Xsm_xml.Tree.document root) in
    ignore (H.ok_or_fail (Snapshot.save ~path:p.snap store dnode))
  in
  let bl = BL.create ~wal:writer ~on_root () in
  let storage = BL.storage bl in
  let pf = Page_file.create p.pages in
  ignore (Bs.attach_pager ~wal:(Wal.Writer.pager_hook writer) storage ~capacity:pool_capacity pf);
  Bs.set_lsn_source storage (fun () -> Wal.Writer.lsn writer + 1);
  { pf; writer; bl; sv = SV.create ~automata:tables H.record_schema }

(* The document child.  With [traced] each call into the lexer, the
   validator and the loader is timed separately; the plain loop only
   watches the WAL position for batch boundaries.  Prints one JSON
   line: the batch latencies, the sums, its peak RSS, failed checks. *)
let child ~dir ~traced ~trace_file (file, records) =
  let p = paths dir in
  let t = open_target p in
  H.signal_ready ();
  if traced then Xsm_obs.Obs.enable ();
  let latencies = H.Samples.create () in
  let errors = ref [] in
  let fail msg = errors := msg :: !errors in
  let sax_ns = ref 0. and validate_ns = ref 0. and load_ns = ref 0. and events = ref 0 in
  let w0 = Gc.minor_words () and majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let r0 = registry_point () in
  let ic = open_in_bin file in
  let sax = Sax.of_channel ic in
  let next_boundary = ref batch_records in
  let batch_start = ref (Clock.now_ns ()) in
  let rec loop () =
    let t0 = if traced then Clock.now_ns () else 0L in
    match Sax.next sax with
    | None -> ()
    | Some ev ->
      if traced then begin
        let t1 = Clock.now_ns () in
        SV.feed t.sv ev (Sax.event_position sax);
        let t2 = Clock.now_ns () in
        BL.feed t.bl ev;
        let t3 = Clock.now_ns () in
        sax_ns := !sax_ns +. Int64.to_float (Int64.sub t1 t0);
        validate_ns := !validate_ns +. Int64.to_float (Int64.sub t2 t1);
        load_ns := !load_ns +. Int64.to_float (Int64.sub t3 t2)
      end
      else begin
        SV.feed t.sv ev (Sax.event_position sax);
        BL.feed t.bl ev
      end;
      incr events;
      if Wal.Writer.lsn t.writer >= !next_boundary then begin
        let now = Clock.now_ns () in
        H.Samples.push latencies (Int64.to_float (Int64.sub now !batch_start) /. 1e6);
        Trace.record_span "ingest.batch" ~start_ns:!batch_start ~stop_ns:now;
        batch_start := now;
        next_boundary := !next_boundary + batch_records
      end;
      loop ()
  in
  Trace.with_span "ingest.stream" loop;
  close_in ic;
  let storage, _ = BL.finish t.bl in
  let r1 = registry_point () in
  let c0 = Clock.now_ns () in
  Trace.with_span "ingest.checkpoint" (fun () -> Bs.checkpoint storage ~lsn:(Wal.Writer.lsn t.writer));
  let checkpoint_ns = H.since_ns c0 in
  let r2 = registry_point () in
  Wal.Writer.close t.writer;
  let ps = Pager.stats (Option.get (Bs.pager storage)) in
  Page_file.close t.pf;
  (match SV.finish t.sv with
  | Ok _ -> ()
  | Error (e :: _) -> fail ("stream verdict invalid: " ^ SV.error_to_string e)
  | Error [] -> fail "stream verdict invalid");
  let expected = H.corpus_descriptors records in
  if Bs.descriptor_count storage <> expected then
    fail
      (Printf.sprintf "%d descriptors, the generator predicts %d" (Bs.descriptor_count storage)
         expected);
  (match trace_file with
  | Some f -> ( match Trace.write_chrome f with Ok () -> () | Error e -> fail e)
  | None -> ());
  let f = float_of_int in
  (* sums by name, nanoseconds for the [_ns] ones; the parent adds
     them up over the documents *)
  let sums =
    [
      ("records", f records);
      (* the last partial batch is synced by [finish]: work done, but
         not a latency sample of a full batch *)
      ("batches", f ((records + batch_records - 1) / batch_records));
      ("bytes", f (H.file_size file));
      ("events", f !events);
      ("sax_ns", !sax_ns);
      ("validate_ns", !validate_ns);
      (* the loader's own time: pager write-back and WAL work happen
         inside its calls *)
      ( "load_self_ns",
        !load_ns -. (r1.writeback -. r0.writeback) -. (r1.append -. r0.append)
        -. (r1.fsync -. r0.fsync) );
      ("writeback_ns", r2.writeback -. r0.writeback);
      ("append_ns", r2.append -. r0.append);
      ("fsync_ns", r2.fsync -. r0.fsync);
      ("syncs", f (r2.syncs - r0.syncs));
      ("wal_bytes", f (H.file_size p.wal));
      ("page_bytes", f (H.file_size p.pages));
      ("checkpoint_ns", checkpoint_ns);
      ("blocks", f (Bs.block_count storage));
      ("accesses", f ps.Pager.accesses);
      ("hits", f ps.Pager.hits);
      ("faults", f ps.Pager.reads);
      ("writes", f ps.Pager.writes);
      ("evictions", f ps.Pager.evictions);
      ("minor_words", Gc.minor_words () -. w0);
      ("major_collections", f ((Gc.quick_stat ()).Gc.major_collections - majors0));
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "latencies",
              Json.Arr (List.map (fun x -> Json.Num x) (Array.to_list (H.Samples.to_array latencies)))
            );
            ("sums", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) sums));
            ("rss_kb", Json.int (H.vmhwm_kb_self ()));
            ("errors", Json.Arr (List.map (fun e -> Json.Str e) (List.rev !errors)));
          ]))

(* Recovery in a fresh process: the last document's snapshot base and
   WAL must give back every record. *)
let recover_child ~dir ~records =
  let p = paths dir in
  let r = H.recover ~snap:p.snap ~wal:p.wal in
  let recovered =
    match Store.children r.H.store r.H.root with
    | [ doc ] -> List.length (Store.children r.H.store doc)
    | _ -> -1
  in
  let errors =
    if recovered = records && r.H.replayed = records then []
    else
      [
        Json.Str
          (Printf.sprintf "recovered %d records (%d replayed), the document had %d" recovered
             r.H.replayed records);
      ]
  in
  print_endline (Json.to_string (H.recovery_json r [ ("errors", Json.Arr errors) ]))

(* Inputs per scale: corpus size, number of distinct corpora cycled,
   and documents loaded per second of [--seconds].  The measured phase
   loads a fixed number of documents, rate x seconds; the rate is set
   so it takes about [--seconds] on the 2-vCPU machine. *)
let doc_bytes ~smoke = if smoke then 150_000 else 2_000_000
let corpus_count = 3
let documents_per_s ~smoke = if smoke then 10. else 1.8

(* Wait for a child's one result line. *)
let result_of c =
  let line = H.read_line c in
  H.wait c;
  match Option.map Json.parse line with
  | Some (Ok j) -> j
  | _ -> failwith "ingest child printed no result"

let run ~seed ~seconds ~smoke ~traced ~trace_dir =
  H.with_workdir "ingest" @@ fun dir ->
  let corpora =
    Array.init corpus_count (fun i ->
        let f = Filename.concat dir (Printf.sprintf "corpus-%d.xml" i) in
        (f, H.write_corpus f ~seed ~corpus:i ~target_bytes:(doc_bytes ~smoke)))
  in
  let sums = Hashtbl.create 32 in
  let get k = Option.value ~default:0. (Hashtbl.find_opt sums k) in
  let setups = ref [] and rss = ref [] and errors = ref [] and docs = ref 0 in
  let latencies = H.Samples.create () in
  (* Documents go to the two CPUs of the placement in turn.  Outside
     load on the host slows one CPU for tens of seconds at a time; a
     run that used only one would read ~12% slow or fast as a whole. *)
  let turn = ref 0 in
  let cpu () =
    incr turn;
    Option.map (fun (a, b) -> if !turn mod 2 = 0 then a else b) (Lazy.force H.placement)
  in
  (* one document in a process of its own: spawn -> ready is set-up *)
  let load ~record ~trace_file (file, records) =
    let t0 = Clock.now_ns () in
    let c =
      H.spawn ?cpu:(cpu ())
        [ "--ingest-child"; dir; string_of_bool traced; Option.value ~default:"-" trace_file; file;
          string_of_int records ]
    in
    H.await_ready c;
    let setup = H.since_ns t0 /. 1e9 in
    let j = result_of c in
    errors := !errors @ H.json_strings "errors" j;
    if record then begin
      incr docs;
      setups := setup :: !setups;
      rss := (H.json_num [ "rss_kb" ] j /. 1024.) :: !rss;
      (match Json.member "latencies" j with
      | Some (Json.Arr xs) -> List.iter (function Json.Num x -> H.Samples.push latencies x | _ -> ()) xs
      | _ -> ());
      match Json.member "sums" j with
      | Some (Json.Obj kvs) ->
        List.iter (function k, Json.Num v -> Hashtbl.replace sums k (get k +. v) | _ -> ()) kvs
      | _ -> ()
    end
  in
  let k = ref 0 in
  let next () =
    incr k;
    corpora.(!k mod Array.length corpora)
  in
  let documents = max 1 (int_of_float (documents_per_s ~smoke *. seconds)) in
  (* warm-up: 5% as many documents, at least one *)
  for _ = 1 to max 1 (documents / 20) do
    load ~record:false ~trace_file:None (next ())
  done;
  let t0 = Clock.now_ns () in
  let last = ref (next ()) in
  let trace_file = Option.map (fun d -> Filename.concat d "trace_ingest.json") trace_dir in
  load ~record:true ~trace_file !last;
  (* and stop early only on a machine far slower than the one the rate
     was set on *)
  for _ = 2 to documents do
    if H.since_ns t0 /. 1e9 < 3. *. seconds then begin
      last := next ();
      load ~record:true ~trace_file:None !last
    end
  done;
  let elapsed = H.since_ns t0 /. 1e9 in
  let r = result_of (H.spawn [ "--ingest-recover"; dir; string_of_int (snd !last) ]) in
  errors := !errors @ H.json_strings "errors" r;
  let snap_ms = H.json_num [ "snapshot_ms" ] r and replay_ms = H.json_num [ "replay_ms" ] r in
  let replayed = H.json_num [ "replayed" ] r in
  let n = H.Samples.length latencies in
  if n < 1000 && not smoke then
    errors := Printf.sprintf "only %d batch latencies, a p99 needs 1000" n :: !errors;
  let ops = get "records" /. float_of_int batch_records in
  let per_op x = x /. ops in
  let per_event x = x /. Float.max 1. (get "events") in
  let d = float_of_int !docs in
  let m = H.metric in
  let rows =
    [
      m "setup_s" "s" (H.median_of_list !setups) ~samples:!docs;
      m "ops_per_s" "1/s" (get "batches" /. elapsed) ~samples:(int_of_float (get "batches"));
    ]
    @ H.latency_rows ~min_p99:(if smoke then 0 else 1000) "" latencies
    @ [
      m "peak_rss_mb" "MB" (H.median_of_list !rss) ~samples:!docs;
      m "ingest_mb_s" "MB/s" (get "bytes" /. 1e6 /. elapsed) ~samples:!docs;
      m "space_amp" "ratio" (get "page_bytes" /. get "bytes") ~samples:!docs;
      m "recover_s" "s" ((snap_ms +. replay_ms) /. 1e3) ~samples:(int_of_float replayed);
    ]
    @ (if traced then
         [
           m "stream.sax_ns_per_event" "ns" (per_event (get "sax_ns"));
           m "stream.validate_ns_per_event" "ns" (per_event (get "validate_ns"));
           m "stream.load_ns_per_event" "ns" (per_event (get "load_self_ns"));
         ]
       else [])
    @ [
        m "stream.events_per_op" "count" (per_op (get "events"));
        m "pager.writeback_us_per_op" "us" (per_op (get "writeback_ns" /. 1e3));
        m "pager.writes_per_op" "count" (per_op (get "writes"));
        m "pager.evictions_per_op" "count" (per_op (get "evictions"));
        m "pager.accesses_per_op" "count" (per_op (get "accesses"));
        m "pager.faults_per_op" "count" (per_op (get "faults"));
        m "pager.hit_ratio" "ratio" (get "hits" /. Float.max 1. (get "accesses"));
        m "storage.checkpoint_ms" "ms" (get "checkpoint_ns" /. 1e6 /. d) ~samples:!docs;
        m "storage.blocks_per_frame" "ratio" (get "blocks" /. d /. float_of_int pool_capacity);
        m "persist.wal_append_us_per_op" "us" (per_op (get "append_ns" /. 1e3));
        m "persist.wal_fsync_us_per_op" "us" (per_op (get "fsync_ns" /. 1e3));
        m "persist.wal_syncs_per_op" "count" (per_op (get "syncs"));
        m "persist.wal_bytes_per_op" "B" (per_op (get "wal_bytes"));
        m "persist.snapshot_load_ms" "ms" snap_ms;
        m "persist.replay_us_per_op" "us" (replay_ms *. 1e3 /. Float.max 1. replayed);
        m "gc.minor_words_per_op" "words" (per_op (get "minor_words"));
        m "gc.major_collections" "count" (get "major_collections");
      ]
  in
  { H.rows; attempted = int_of_float (get "batches"); failed = 0; errors = !errors }
