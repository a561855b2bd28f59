(* xsm — command-line front end.

   Subcommands:
     validate  SCHEMA.xsd DOC.xml     validate a document against a schema
                                      (--stream: one SAX pass, O(depth) memory)
     load      DOC.xml                bulk-load a document into block storage from
                                      a SAX event stream (WAL, indexes, validation)
     check     SCHEMA.xsd             schema well-formedness (§3 + UPA)
     analyze   SCHEMA.xsd             static analysis: UPA witnesses, reachability,
                                      satisfiability, cardinalities, query pruning
     query     DOC.xml PATH           evaluate an XPath-subset query
     update    DOC.xml SCRIPT         run an update script, optionally with live
                                      indexes and a write-ahead log
     snapshot  DOC.xml OUT            write a binary snapshot of the loaded store
     recover   SNAP                   load a snapshot and replay a WAL tail
     dataguide DOC.xml                print the descriptive schema (§9.1)
     labels    DOC.xml                print nodes with Sedna labels (§9.3)
     roundtrip SCHEMA.xsd DOC.xml     check g(f(X)) =_c X (§8)
     stats     DOC.xml SCRIPT         replay a workload, print the metrics
                                      registry as JSON (DESIGN.md §10)
     serve                            run the concurrent session daemon over a
                                      Unix socket (DESIGN.md §12): parallel
                                      snapshot reads, group-committed writes
     client    --socket PATH          one-shot request against a running daemon
     bench-serve                      closed-loop daemon load generator (E17)

   validate, load, query, update, recover, stats, serve and bench-serve
   also take --trace FILE.json (Chrome trace_event export, including
   per-element detail spans) and --metrics (registry dump to stderr on
   exit).

   Every flag is declared once below (the shared vocabulary) and every
   store is opened through [open_store]; update scripts and daemon
   update requests share one grammar ([Update.parse_command]) and one
   logged apply ([Wal.apply_logged]).

   Exit codes: 0 ok; 1 invalid input (validation failure, bad script
   line, failed query); 2 unusable arguments or unreadable files;
   3 corrupt persistent input (a --wal file that is not a WAL) or an
   injected WAL crash point fired (fault-injection runs only). *)

open Cmdliner
module Store = Xsm_xdm.Store
module Update = Xsm_schema.Update
module Validator = Xsm_schema.Validator
module Compiled = Xsm_schema.Compiled
module Bs = Xsm_storage.Block_storage
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Wal = Xsm_persist.Wal
module Recovery = Xsm_persist.Recovery
module Snapshot = Xsm_persist.Snapshot
module Planner = Xsm_xpath.Planner
module Path_parser = Xsm_xpath.Path_parser
module Analyzer = Xsm_analysis.Analyzer
module Json = Xsm_obs.Json
module Obs = Xsm_obs.Obs
module Trace = Xsm_obs.Trace
module Metrics = Xsm_obs.Metrics
module Sax = Xsm_xml.Sax

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* unusable arguments or unreadable files: exit 2 *)
let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* invalid input (a failed query, a rejected document): exit 1 *)
let fail msg =
  prerr_endline msg;
  exit 1

let or_die = function Ok v -> v | Error msg -> die "%s" msg

(* '-' denotes standard input for document positionals; Arg.file would
   reject it, so those take plain strings and resolve them here. *)
let read_doc_source path =
  if path = "-" then In_channel.input_all stdin
  else if Sys.file_exists path then read_file path
  else die "%s: no such file or directory" path

let with_doc_channel path f =
  if path = "-" then f stdin
  else if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
  end
  else die "%s: no such file or directory" path

let load_document path =
  match Xsm_xml.Parser.parse_document (read_doc_source path) with
  | Ok d -> Ok d
  | Error e -> Error (Printf.sprintf "%s: %s" path (Xsm_xml.Parser.error_to_string e))

(* A schema file: its document, which also declares the identity
   constraints, and its abstract syntax. *)
let read_schema path =
  let doc = or_die (load_document path) in
  match Xsm_xsd.Reader.schema_of_document doc with
  | Ok s -> (doc, s)
  | Error e -> die "%s: %s" path (Xsm_xsd.Reader.error_to_string e)

(* The raw schema, unchecked: only the commands that inspect schemas
   (check, analyze, canonicalize, roundtrip) read it this way; every
   other --schema goes through [load_checked_schema]. *)
let load_schema path = snd (read_schema path)

(* Corrupt persistent input — a WAL that is not a WAL — exits 3, the
   shared corrupt-input code; environmental failures stay at 2. *)
let die_wal_error e =
  prerr_endline (Wal.error_message e);
  exit (match e with Wal.Not_a_wal _ -> 3 | Wal.Io _ -> 2)

let die_recovery_error e =
  prerr_endline (Recovery.error_message e);
  exit (match e with Recovery.Corrupt_wal _ -> 3 | Recovery.Failed _ -> 2)

(* An injected WAL crash point fired: report how far the log got and
   exit 3. *)
let with_crash wal f =
  try f ()
  with Wal.Crashed ->
    Option.iter
      (fun w ->
        Printf.eprintf "wal: injected crash after %d records\n" (Wal.Writer.records_written w))
      wal;
    exit 3

let report_pager bs =
  match Bs.pager bs with
  | None -> ()
  | Some p ->
    let s = Pager.stats p in
    Printf.eprintf "pager: %d accesses (%d hits), %d reads, %d writes, %d evictions%s%s\n"
      s.Pager.accesses s.hits s.reads s.writes s.evictions
      (if s.pin_overflows = 0 then ""
       else Printf.sprintf ", %d pin overflows" s.pin_overflows)
      (match Pager.hit_ratio s with
      | Some r -> Printf.sprintf ", hit ratio %.3f" r
      | None -> "")

(* Differential-maintenance stats, as the historical prose line plus a
   bare JSON object on its own stderr line — scripts extract the
   latter with [grep '^{"maintenance"' | jq] instead of pattern-matching
   the prose. *)
let report_maintenance (s : Planner.maintenance_stats) =
  Format.eprintf "maintenance: epochs=%d applied=%d vi_drops=%d@." s.Planner.epochs
    s.Planner.applied s.Planner.vi_drops;
  Format.eprintf "%s@."
    (Json.to_string
       (Json.Obj
          [
            ( "maintenance",
              Json.Obj
                [
                  ("epochs", Json.int s.Planner.epochs);
                  ("applied", Json.int s.Planner.applied);
                  ("vi_drops", Json.int s.Planner.vi_drops);
                ] );
          ]))

let print_store store root =
  match Store.kind store root with
  | Store.Kind.Document ->
    print_string (Xsm_xml.Printer.to_string (Xsm_xdm.Convert.to_document store root))
  | _ -> print_endline (Xsm_xml.Printer.element_to_string (Xsm_xdm.Convert.to_element store root))

(* ------------------------------------------------------------------ *)
(* Telemetry: --trace/--metrics, shared by the data-touching commands.
   Exporting runs from at_exit so a mid-run [exit] (script errors,
   injected crashes) still flushes what was recorded. *)

let setup_obs trace_path metrics =
  if trace_path <> None then Obs.enable ~detail:true ();
  if trace_path <> None || metrics then
    at_exit (fun () ->
        (match trace_path with
        | None -> ()
        | Some p -> (
          match Trace.write_chrome p with
          | Ok () -> ()
          | Error e -> Printf.eprintf "trace: %s\n" e));
        if metrics then Format.eprintf "%a@." Metrics.pp Metrics.default)

(* ------------------------------------------------------------------ *)
(* The shared vocabulary: each flag is declared once; a subcommand
   passes its own default or doc string where they differ. *)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let opt_string ?(docv = "FILE") name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let opt_int ?(docv = "N") name default doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let obs_term =
  Term.(
    const setup_obs
    $ opt_string "trace"
        "Record a span trace of the run (including per-element detail spans) and write it to \
         $(docv) as Chrome trace_event JSON — load the file in chrome://tracing or Perfetto."
    $ flag "metrics" "Dump the metrics registry on stderr when the command exits.")

let schema_pos n =
  Arg.(required & pos n (some file) None & info [] ~docv:"SCHEMA" ~doc:"XSD schema file")

let doc_pos n =
  Arg.(required & pos n (some file) None & info [] ~docv:"DOC" ~doc:"XML document file")

let doc_or_stdin_pos n =
  Arg.(
    required & pos n (some string) None
    & info [] ~docv:"DOC" ~doc:"XML document file ($(b,-) reads standard input)")

let schema_opt ?(docv = "SCHEMA") doc =
  Arg.(value & opt (some file) None & info [ "schema" ] ~docv ~doc)

(* block and pool capacities: a full block splits in two halves and a
   fault evicts around the frame it admits, so neither works below 2 *)
let capacity =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 2 -> Ok n
    | Some _ -> Error (Printf.sprintf "invalid value '%s', expected an integer of at least 2" s)
    | None -> Error (Printf.sprintf "invalid value '%s', expected an integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let opt_capacity name default doc =
  Arg.(value & opt capacity default & info [ name ] ~docv:"N" ~doc)

let pool_capacity ?doc default =
  opt_capacity "pool-capacity" default
    (match doc with
    | Some d -> d
    | None ->
      Printf.sprintf "Buffer-pool capacity in blocks with $(b,--page-file) (default %d)." default)

(* parallel readers beyond the core count only add GC synchronization;
   default to what the machine can actually run *)
let domains ~docv doc =
  opt_int ~docv "domains" (max 1 (min 4 (Domain.recommended_domain_count () - 1))) doc

let socket_arg =
  Arg.(
    value
    & opt string (Filename.concat (Filename.get_temp_dir_name ()) "xsm-serve.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket path")

(* --wal, --snapshot, --sync-every, --crash-after, --crash-partial: a
   logged run of [load] or [update]. *)
type logging = {
  wal : string option;
  snapshot : string option;
  sync_every : int;
  crash : Wal.crash option;
}

let logging_term ~wal_doc ~snapshot_doc =
  let crash_after =
    Arg.(
      value & opt (some int) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Fault injection: once $(docv) WAL records are fully on disk, abort mid-write of \
             the next record and exit with code 3 (requires $(b,--wal)).")
  in
  let make wal snapshot sync_every crash_after partial_bytes =
    let crash =
      Option.map
        (fun n ->
          { Wal.after_records = n; partial_bytes; fsync_fails = false; before_fsync = ignore })
        crash_after
    in
    { wal; snapshot; sync_every; crash }
  in
  Term.(
    const make $ opt_string "wal" wal_doc $ opt_string "snapshot" snapshot_doc
    $ opt_int "sync-every" 1
        "Fsync the WAL after every $(docv)-th record (default 1: every record)."
    $ crash_after
    $ opt_int ~docv:"BYTES" "crash-partial" 0
        "With $(b,--crash-after): leave $(docv) bytes of the torn record behind (0 = cut \
         cleanly at the record boundary).")

(* A fresh snapshot is a fresh base: an old log would replay against
   the wrong state, so it pairs with an empty WAL. *)
let open_wal l =
  match l.wal with
  | None ->
    if l.crash <> None then die "--crash-after requires --wal";
    None
  | Some p -> (
    if l.snapshot <> None && Sys.file_exists p then Sys.remove p;
    match Wal.Writer.create ?crash:l.crash ~sync_every:l.sync_every p with
    | Ok w -> Some w
    | Error e -> die_wal_error e)

(* ------------------------------------------------------------------ *)
(* Opening a store: a document, or a snapshot with its WAL tail
   replayed on top.  A block storage is paged by [attach_pages]. *)

type opened = {
  store : Store.t;
  root : Store.node;
  labels : Xsm_numbering.Labeler.t option;
  recovered : Recovery.stats option;
}

type source =
  | Document of string
  | Snapshot of { path : string; wal : string option; truncate : bool }

let store_of_document doc =
  let store = Store.create () in
  { store; root = Xsm_xdm.Convert.load store doc; labels = None; recovered = None }

let open_store = function
  | Document path -> store_of_document (or_die (load_document path))
  | Snapshot { path; wal; truncate } -> (
    match Recovery.recover ~truncate ~snapshot:path ?wal () with
    | Ok (store, root, labels, stats) -> { store; root; labels; recovered = Some stats }
    | Error e -> die_recovery_error e)

(* Page a block storage through a bounded pool over a new page file.
   [cold] flushes and drops every frame and zeroes the counters, so the
   accesses that follow are real faults, not warm hits. *)
let attach_pages ?wal ?(cold = false) bs ~capacity path =
  let pf = Page_file.create path in
  let p = Bs.attach_pager ?wal bs ~capacity pf in
  if cold then begin
    Pager.clear p;
    Pager.reset_stats p
  end;
  (pf, p)

(* One query through the planner, the plan of its one evaluation on
   stderr *)
let plan_answer eval_explained q =
  Result.map
    (fun parsed ->
      let nodes, plan = eval_explained parsed in
      Format.eprintf "plan: %s@." plan;
      nodes)
    (Path_parser.parse q)

(* through the planner when there is one, else navigational evaluation *)
let answer ?planner ~eval q =
  match planner with None -> eval q | Some eval_explained -> plan_answer eval_explained q

(* The schema gate of every command that validates against a schema
   or relies on one: the analyzer subsumes Schema_check and refuses
   fatal findings with the same diagnostics as `xsm analyze` (exit 2).
   It hands on the schema compiled once, with the identity
   constraints. *)
let load_checked_schema ?(streaming = false) path =
  let schema_doc, schema = read_schema path in
  let report = Trace.with_span "validate.analyze" (fun () -> Analyzer.analyze schema) in
  (match
     List.filter
       (fun (f : Analyzer.finding) -> f.severity = Analyzer.Error)
       report.Analyzer.findings
   with
  | [] -> ()
  | fatal ->
    List.iter (fun f -> Format.eprintf "%a@." Analyzer.pp_finding f) fatal;
    exit 2);
  let constraints =
    match Xsm_xsd.Reader.constraints_of_document schema_doc with
    | Ok cs -> cs
    | Error e -> die "%s" (Xsm_xsd.Reader.error_to_string e)
  in
  if streaming && constraints <> [] then
    Printf.eprintf "warning: %d identity constraint(s) not checked in streaming mode\n"
      (List.length constraints);
  (report.Analyzer.tables, constraints)

(* a document that must validate before the command goes on: the
   errors go to stderr, exit 1 *)
let validated doc compiled =
  match Validator.validate_document ~automata:compiled doc (Compiled.schema compiled) with
  | Ok typed -> typed
  | Error es ->
    List.iter (fun e -> prerr_endline (Validator.error_to_string e)) es;
    exit 1

(* The planner's static hooks for a gated schema — pruning and
   predicate folding, over one schema graph.  Both assume the document
   is valid, so it must validate first. *)
let schema_hooks doc path =
  let compiled, _ = load_checked_schema path in
  ignore (validated doc compiled);
  let graph = Xsm_analysis.Schema_graph.build compiled in
  (Xsm_analysis.Query_static.pruner graph, Xsm_analysis.Query_static.fold graph)

(* ------------------------------------------------------------------ *)

let validate_cmd =
  let module Sv = Xsm_stream.Stream_validator in
  let stream_flag =
    flag "stream"
      "Validate in one streaming pass over SAX events: constant memory in the document \
       (O(depth) state), diagnostics with line and column.  Identity constraints declared in \
       the schema are not checked in this mode."
  in
  let run () schema_path doc_path stream =
    let automata, constraints = load_checked_schema ~streaming:stream schema_path in
    let schema = Compiled.schema automata in
    if stream then
      with_doc_channel doc_path (fun ic ->
          match Sv.run ~automata schema (Sax.of_channel ic) with
          | Ok stats ->
            Printf.printf "valid (%d elements, depth %d%s)\n" stats.Sv.elements stats.Sv.max_depth
              (if stats.Sv.fallback_steps = 0 then ""
               else Printf.sprintf ", %d non-UPA fallback steps" stats.Sv.fallback_steps)
          | Error es ->
            List.iter (fun e -> print_endline (Sv.error_to_string e)) es;
            exit 1
          | exception Xsm_xml.Parser.Syntax e ->
            die "%s: %s" doc_path (Xsm_xml.Parser.error_to_string e))
    else
      let doc = Trace.with_span "validate.parse" (fun () -> or_die (load_document doc_path)) in
      match Validator.validate_document ~automata doc schema with
      | Ok (store, dnode) -> (
        match Xsm_identity.Constraint_def.check store dnode constraints with
        | Ok () ->
          Printf.printf "valid (%d nodes%s)\n" (Store.node_count store)
            (if constraints = [] then ""
             else Printf.sprintf ", %d identity constraints" (List.length constraints))
        | Error vs ->
          List.iter (fun v -> Format.printf "%a@." Xsm_identity.Constraint_def.pp_violation v) vs;
          exit 1)
      | Error es ->
        List.iter (fun e -> print_endline (Validator.error_to_string e)) es;
        exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a document against a schema (the \xc2\xa76.2 judgment)")
    Term.(const run $ obs_term $ schema_pos 0 $ doc_or_stdin_pos 1 $ stream_flag)

let load_cmd =
  let module S = Xsm_stream in
  let module Pl = Planner.Over_storage in
  let run () doc_path schema_path capacity page_path pool_capacity log use_index query
      with_stats do_print =
    (* the schema gate of `xsm validate`; its tables seed the streaming
       validator *)
    let validator =
      Option.map
        (fun sp ->
          let automata, _ = load_checked_schema ~streaming:true sp in
          S.Stream_validator.create ~automata (Compiled.schema automata))
        schema_path
    in
    let wal = open_wal log in
    let on_root =
      Option.map
        (fun sp root_elem ->
          let { store; root; _ } = store_of_document (Xsm_xml.Tree.document root_elem) in
          match Snapshot.save ~path:sp store root with Ok _ -> () | Error e -> die "%s" e)
        log.snapshot
    in
    let bl = S.Bulk_load.create ~block_capacity:capacity ?wal ?on_root () in
    let page =
      Option.map
        (fun pp ->
          let storage = S.Bulk_load.storage bl in
          let pf, _ =
            attach_pages ?wal:(Option.map Wal.Writer.pager_hook wal) storage
              ~capacity:pool_capacity pp
          in
          (* during the streaming build a block's latest changes are
             covered by the subtree record that has not landed yet:
             stamp one past the current record, so unlogged state is
             unstealable until its record is durable *)
          Option.iter (fun w -> Bs.set_lsn_source storage (fun () -> Wal.Writer.lsn w + 1)) wal;
          pf)
        page_path
    in
    let planner =
      if use_index then Some (Pl.create (S.Bulk_load.storage bl) (Bs.root (S.Bulk_load.storage bl)))
      else None
    in
    let feed_planner () =
      match planner with
      | None -> ()
      | Some p -> (
        match S.Bulk_load.drain_completed bl with
        | [] -> ()
        | ds -> Pl.apply_changes p (List.map (fun d -> Update.Added d) ds))
    in
    let guard f =
      try with_crash wal f
      with Xsm_xml.Parser.Syntax e -> die "%s: %s" doc_path (Xsm_xml.Parser.error_to_string e)
    in
    let storage, lstats =
      guard (fun () ->
          with_doc_channel doc_path (fun ic ->
              let sax = Sax.of_channel ic in
              let rec loop () =
                match Sax.next sax with
                | None -> ()
                | Some ev ->
                  S.Bulk_load.feed bl ev;
                  Option.iter
                    (fun v -> S.Stream_validator.feed v ev (Sax.event_position sax))
                    validator;
                  feed_planner ();
                  loop ()
              in
              loop ();
              S.Bulk_load.finish bl))
    in
    feed_planner ();
    (* checkpoint before closing the WAL: flushing dirty blocks may
       force a final sync of the records covering them *)
    if page <> None then begin
      guard (fun () ->
          Bs.checkpoint storage ~lsn:(match wal with Some w -> Wal.Writer.lsn w | None -> 0));
      report_pager storage
    end;
    Option.iter Wal.Writer.close wal;
    (* summary and stats go to stderr so --print output stays a clean
       document, comparable byte-for-byte with [xsm recover --print] *)
    Printf.eprintf "loaded %d elements, %d attributes, %d texts (depth %d, %d blocks%s)\n"
      lstats.S.Bulk_load.elements lstats.S.Bulk_load.attributes lstats.S.Bulk_load.texts
      lstats.S.Bulk_load.max_depth (Bs.block_count storage)
      (if lstats.S.Bulk_load.wal_records = 0 then ""
       else Printf.sprintf ", %d WAL records" lstats.S.Bulk_load.wal_records);
    if with_stats then begin
      Printf.eprintf "descriptors %d, splits %d, schema nodes %d\n" (Bs.descriptor_count storage)
        (Bs.split_count storage)
        (Xsm_storage.Descriptive_schema.node_count (Bs.schema storage));
      match Bs.check_integrity storage with
      | Ok () -> prerr_endline "integrity ok"
      | Error e -> fail ("integrity violated: " ^ e)
    end;
    Option.iter (fun p -> report_maintenance (Pl.maintenance_stats p)) planner;
    Option.iter
      (fun q ->
        match
          answer
            ?planner:(Option.map (fun p q -> Pl.eval_explained p q) planner)
            ~eval:(Xsm_xpath.Eval.Over_storage.eval_string storage (Bs.root storage))
            q
        with
        | Ok ds -> List.iter (fun d -> print_endline (Bs.string_value storage d)) ds
        | Error e -> fail e)
      query;
    if do_print then print_string (Xsm_xml.Printer.to_string (Bs.to_document storage));
    (* the page file outlives the checkpoint: --stats, --query and
       --print above all fault pages back in *)
    Option.iter Page_file.close page;
    match Option.map S.Stream_validator.finish validator with
    | Some (Error es) ->
      List.iter (fun e -> print_endline (S.Stream_validator.error_to_string e)) es;
      exit 1
    | Some (Ok _) | None -> ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Bulk-load a document into the Sedna block storage from a stream of SAX events: \
          document-order tail appends, counter-encoded \xc2\xa79.3 labels, optional same-pass \
          validation, WAL durability and differential index maintenance — without ever \
          materializing the tree")
    Term.(
      const run $ obs_term $ doc_or_stdin_pos 0
      $ schema_opt
          "Validate against $(docv) while loading, in the same streaming pass; validation \
           errors are reported after the load and exit with code 1."
      $ opt_capacity "block-capacity" 64 "Descriptors per storage block (default 64)."
      $ opt_string "page-file"
          "Page the storage through a bounded buffer pool backed by $(docv): block values \
           spill to disk under 2Q replacement as the load outgrows the pool, and the file is \
           checkpointed when the load completes — so it alone reconstructs the store."
      $ pool_capacity 64
      $ logging_term
          ~wal_doc:
            "Log the load to $(docv) as one record per completed top-level subtree, so a \
             crash mid-load recovers to the longest fully-loaded prefix."
          ~snapshot_doc:
            "Write the recovery base — the bare root element, captured when its start tag \
             completes — to $(docv) before any WAL record is appended."
      $ flag "index"
          "Build the index planner over the storage as it loads: each completed top-level \
           subtree is fed to the indexes differentially.  Maintenance statistics are \
           reported on stderr."
      $ opt_string ~docv:"PATH" "query"
          "Evaluate a query over the loaded storage (through the planner with $(b,--index))."
      $ flag "stats" "Print storage statistics and run the block-level integrity check."
      $ flag "print" "Print the loaded document on stdout")

let check_cmd =
  let run schema_path =
    let schema = load_schema schema_path in
    match Xsm_schema.Schema_check.check schema with
    | Ok () -> print_endline "well-formed"
    | Error es ->
      List.iter (fun e -> Format.printf "%a@." Xsm_schema.Schema_check.pp_error e) es;
      exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check schema well-formedness (type usage, UPA, repetitions)")
    Term.(const run $ schema_pos 0)

let analyze_cmd =
  let run schema_path query_text with_cardinalities with_cost =
    if with_cost && query_text = None then die "analyze: --cost requires --query";
    let schema = load_schema schema_path in
    let query =
      Option.map
        (fun q -> match Path_parser.parse q with Ok p -> p | Error e -> die "query: %s" e)
        query_text
    in
    let report = Analyzer.analyze ?query schema in
    (* with --cost, stdout carries exactly one JSON object *)
    let out fmt = if with_cost then Format.eprintf fmt else Format.printf fmt in
    List.iter (fun f -> out "%a@." Analyzer.pp_finding f) report.Analyzer.findings;
    if with_cardinalities then
      List.iter
        (fun (path, iv, recursive) ->
          out "cardinality %s %s%s@." path (Xsm_analysis.Cardinality.to_string iv)
            (if recursive then " (recursive)" else ""))
        report.Analyzer.cardinalities;
    let statically_empty =
      List.exists
        (fun (f : Analyzer.finding) ->
          f.pass = "query"
          && String.length f.message >= 16
          && String.sub f.message 0 16 = "statically empty")
        report.Analyzer.findings
    in
    (match query_text with
    | Some text when not statically_empty ->
      out "query %s: no static emptiness proof (may select nodes)@." text
    | _ -> ());
    (match (with_cost, report.Analyzer.graph, query) with
    | true, Some g, Some q -> print_endline (Json.to_string (Xsm_analysis.Estimator.report g q))
    | true, None, _ -> () (* schema findings below exit 2 without a costable graph *)
    | _ -> ());
    match Analyzer.significant report with
    | [] ->
      out "clean: %d content models determinized, %d element paths@."
        (Compiled.determinized report.Analyzer.tables)
        (List.length report.Analyzer.cardinalities)
    | fs ->
      Printf.eprintf "%d finding(s)\n" (List.length fs);
      exit 2
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static analyzer over a schema: Unique Particle Attribution with shortest \
          ambiguous witness words, reachability of type definitions, satisfiability of \
          content models, per-path cardinality intervals, and — with $(b,--query) — \
          schema-aware static query analysis ($(b,--cost) prices the query from the schema \
          alone).  Exits 2 when any error or warning is found.")
    Term.(
      const run $ schema_pos 0
      $ opt_string ~docv:"PATH" "query"
          "Also analyze this XPath-subset query against the schema: report whether it is \
           statically empty (provably selects nothing on any valid document) and warn about \
           value comparisons that can never hold."
      $ flag "cardinalities" "Print the min/max occurrence interval of every element path."
      $ flag "cost"
          "With $(b,--query): price the query without any data — estimated row interval and \
           navigational cost from occurrence intervals composed along the schema DataGuide.  \
           The report is a single JSON object on stdout; diagnostics move to stderr.")

let query_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH" ~doc:"XPath-subset query")
  in
  let run () doc_path query use_storage page_path pool_capacity use_index schema_path
      explain_mode =
    if page_path <> None && not use_storage then die "query: --page-file requires --storage";
    if explain_mode && not use_index then die "query: --explain requires --index";
    (* cold-start the pool before evaluating, so the query's accesses
       are real faults against the page file, not warm hits *)
    let storage store root =
      let bs = Bs.of_store store root in
      Option.iter
        (fun pp -> ignore (attach_pages ~cold:true bs ~capacity:pool_capacity pp))
        page_path;
      bs
    in
    Trace.with_span "query" ~attrs:[ ("path", query) ] @@ fun () ->
    let doc = Trace.with_span "query.parse" (fun () -> or_die (load_document doc_path)) in
    let hooks = Option.map (schema_hooks doc) schema_path in
    let pruner = Option.map fst hooks and rewriter = Option.map snd hooks in
    let { store; root; _ } = store_of_document doc in
    (* without the planner, consult the oracle up front: a provably
       empty query needs no evaluation at all *)
    (match pruner with
    | Some f when not use_index -> (
      match Result.map f (Path_parser.parse query) with
      | Ok (Some reason) ->
        Format.eprintf "plan: pruned(%s)@." reason;
        exit 0
      | Ok None | Error _ -> () (* a parse error is reported by the evaluator *))
    | Some _ | None -> ());
    let print values = function
      | Ok nodes -> List.iter print_endline (values nodes)
      | Error e -> fail e
    in
    (* planner route: the JSON plan with --explain, else the results
       with the chosen plan on stderr *)
    let planned ~eval_explained ~explain ~explain_json ~values =
      if explain_mode then
        match Path_parser.parse query with
        | Ok p ->
          print_endline (Json.to_string (explain_json p));
          Format.eprintf "plan: %s@." (explain p)
        | Error e -> fail e
      else
        print values
          (Trace.with_span "query.execute" (fun () -> plan_answer eval_explained query))
    in
    let configure set_pruner set_rewriter p =
      Option.iter (set_pruner p) pruner;
      Option.iter (set_rewriter p) rewriter;
      p
    in
    match (use_index, use_storage) with
    | true, true ->
      let module Pl = Planner.Over_storage in
      let bs = storage store root in
      let p =
        Trace.with_span "query.plan" (fun () ->
            configure Pl.set_pruner Pl.set_rewriter (Pl.create bs (Bs.root bs)))
      in
      planned
        ~eval_explained:(fun q -> Pl.eval_explained p q)
        ~explain:(Pl.explain p) ~explain_json:(Pl.explain_json p)
        ~values:(List.map (Bs.string_value bs));
      report_pager bs
    | true, false ->
      let module Pl = Planner.Over_store in
      let p =
        Trace.with_span "query.plan" (fun () ->
            configure Pl.set_pruner Pl.set_rewriter (Pl.create store root))
      in
      planned
        ~eval_explained:(fun q -> Pl.eval_explained p q)
        ~explain:(Pl.explain p) ~explain_json:(Pl.explain_json p)
        ~values:(List.map (Store.string_value store))
    | false, true ->
      let bs = storage store root in
      (* the planner's route over the descriptive schema and the block
         lists, else the navigational evaluator over descriptors *)
      let p = Planner.Over_storage.create bs (Bs.root bs) in
      print
        (List.map (Bs.string_value bs))
        (Trace.with_span "query.execute" (fun () -> Planner.Over_storage.eval_string p query));
      report_pager bs
    | false, false ->
      print
        (List.map (Store.string_value store))
        (Trace.with_span "query.execute" (fun () ->
             Xsm_xpath.Eval.Over_store.eval_string store root query))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath-subset query over a document")
    Term.(
      const run $ obs_term $ doc_pos 0 $ path_arg
      $ flag "storage" "Evaluate over the Sedna block storage"
      $ opt_string "page-file"
          "With $(b,--storage): page the block storage through a bounded buffer pool backed by \
           $(docv), so evaluation faults blocks in and out of memory; pool statistics are \
           reported on stderr."
      $ pool_capacity 8
      $ flag "index"
          "Evaluate through the index subsystem (DataGuide path index + typed value indexes); \
           the plan is reported on stderr.  Unsupported queries fall back to navigational \
           evaluation."
      $ schema_opt
          "Enable schema-aware pruning and predicate folding: queries the static analyzer \
           proves empty on every $(docv)-valid document are answered without touching the \
           data, and predicates it proves always true are dropped before planning.  The \
           document is validated against the schema first; validation errors exit with code \
           1."
      $ flag "explain"
          "With $(b,--index): print the structured plan as a single JSON object on stdout — \
           chosen route, estimated vs. actual rows with the interval-containment flag, \
           per-predicate strategy decisions with both prices, maintenance statistics — \
           instead of the result nodes.")

(* [answer]'s planner route over an XDM store *)
let store_planner p q = Planner.Over_store.eval_explained p q

(* The update-script interpreter, shared by `xsm update` and
   `xsm stats`: the shared update grammar ({!Update.parse_command})
   plus two script-only commands, [sync] (a WAL sync point) and
   [query PATH].  A malformed or failing line aborts with its location,
   the offending source text and exit code 1 — never a silent skip,
   never a raw backtrace. *)
let execute_script ~script_path ~store ~root ?planner ?wal () =
  let eval = Xsm_xpath.Eval.Over_store.eval_string store root in
  let source_lines = String.split_on_char '\n' (read_file script_path) in
  let fail_line lineno fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "%s:%d: %s\n" script_path lineno s;
        (match List.nth_opt source_lines (lineno - 1) with
        | Some src when String.trim src <> "" ->
          Printf.eprintf "  %d | %s\n" lineno (String.trim src)
        | Some _ | None -> ());
        exit 1)
      fmt
  in
  let run_line lineno line =
    let cmd, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i -> (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
    in
    match cmd with
    | "sync" -> Option.iter (fun w -> with_crash wal (fun () -> Wal.Writer.sync w)) wal
    | "query" -> (
      if rest = "" then fail_line lineno "missing query";
      match answer ?planner:(Option.map store_planner planner) ~eval rest with
      | Ok nodes -> List.iter (fun n -> print_endline (Store.string_value store n)) nodes
      | Error e -> fail_line lineno "%s: %s" rest e)
    | _ -> (
      match Update.parse_command ~resolve:eval line with
      | Error e -> fail_line lineno "%s" e
      | Ok op -> (
        match with_crash wal (fun () -> Wal.apply_logged wal (Wal.store_tree store) ~root ~apply:(Update.apply store) op) with
        | Ok applied ->
          let change = Update.change applied in
          Option.iter (fun p -> Planner.Over_store.apply_changes p [ change ]) planner;
          Update.release store change
        | Error e -> fail_line lineno "update: %s" e))
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        Trace.with_span "update.line" ~attrs:[ ("line", string_of_int lineno) ] (fun () ->
            try run_line lineno line
            with Invalid_argument e | Failure e -> fail_line lineno "%s" e))
    source_lines

let update_cmd =
  let script_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Update script: one command per line.  $(b,insert) PATH XML appends a parsed \
             fragment under the first node matching PATH; $(b,insert-text) PATH TEXT appends \
             a text node; $(b,delete) PATH unlinks the first match; $(b,content) PATH VALUE \
             replaces a text or attribute value; $(b,attr) PATH NAME VALUE sets an attribute; \
             $(b,query) PATH evaluates a query against the current state; $(b,sync) forces a \
             WAL sync point.  Blank lines and lines starting with # are ignored.  A malformed \
             line aborts the run with its line number and exit code 1.")
  in
  let run () doc_path script_path use_index do_print log =
    let { store; root; _ } = open_store (Document doc_path) in
    let planner = if use_index then Some (Planner.Over_store.create store root) else None in
    Option.iter
      (fun p -> match Snapshot.save ~path:p store root with Ok _ -> () | Error e -> die "%s" e)
      log.snapshot;
    let wal = open_wal log in
    Trace.with_span "update.script" ~attrs:[ ("script", script_path) ] (fun () ->
        execute_script ~script_path ~store ~root ?planner ?wal ());
    Option.iter Wal.Writer.close wal;
    Option.iter (fun p -> report_maintenance (Planner.Over_store.maintenance_stats p)) planner;
    if do_print then print_store store root
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply an update script to a document, interleaving queries; with $(b,--index) the \
          indexes are maintained differentially across the updates; with $(b,--wal) every \
          applied update is logged durably, and a rejected one is never logged")
    Term.(
      const run $ obs_term $ doc_pos 0 $ script_arg
      $ flag "index"
          "Evaluate queries through the index subsystem and keep the indexes live across \
           updates: each applied update hands its change to the planner, which splices it \
           in differentially instead of rebuilding.  Maintenance statistics are reported on \
           stderr."
      $ flag "print" "Print the resulting document on stdout"
      $ logging_term
          ~wal_doc:
            "Write-ahead log: every update is appended to $(docv) (length-prefixed, \
             CRC-checked records) once it has applied, so $(b,xsm recover) can replay the run \
             from a snapshot after a crash; a rejected update leaves no record."
          ~snapshot_doc:
            "Write a snapshot of the $(i,initial) document state to $(docv) before running \
             the script — the base the WAL replays against.")

let snapshot_cmd =
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Snapshot file to write")
  in
  let run doc_path out_path schema_path with_labels =
    let store, root =
      match schema_path with
      | None ->
        let { store; root; _ } = open_store (Document doc_path) in
        (store, root)
      | Some sp ->
        let doc = or_die (load_document doc_path) in
        validated doc (fst (load_checked_schema sp))
    in
    let labels = if with_labels then Some (Xsm_numbering.Labeler.label_tree store root) else None in
    match Snapshot.save ?schema_ref:schema_path ?labels ~path:out_path store root with
    | Ok meta ->
      Printf.printf "snapshot %s: %d nodes%s%s\n" out_path meta.Snapshot.node_count
        (match meta.Snapshot.schema_ref with Some s -> Printf.sprintf ", schema %s" s | None -> "")
        (if meta.Snapshot.labelled then ", labelled" else "")
    | Error e -> die "%s" e
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Serialize a document's database state to a versioned binary snapshot \
          (CRC-protected; reload with $(b,xsm recover))")
    Term.(
      const run $ doc_pos 0 $ out_arg
      $ schema_opt
          "Validate against $(docv) first and snapshot the typed store; the schema path is \
           recorded in the snapshot header as the schema reference."
      $ flag "labels" "Assign \xc2\xa79.3 numbering labels and persist them with the tree.")

let recover_cmd =
  let module Pl = Planner.Over_store in
  let snap_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAP" ~doc:"Snapshot file")
  in
  let run () snap_path wal do_print query use_index no_truncate page_path pool_capacity =
    let { store; root; recovered; _ } =
      open_store (Snapshot { path = snap_path; wal; truncate = not no_truncate })
    in
    Option.iter (Format.eprintf "recovered: %a@." Recovery.pp_stats) recovered;
    Option.iter
      (fun pp ->
        let bs = Bs.of_store store root in
        let pf, _ = attach_pages bs ~capacity:pool_capacity pp in
        Bs.checkpoint bs
          ~lsn:(match recovered with Some s -> s.Recovery.synced_prefix | None -> 0);
        Printf.eprintf "page file: checkpointed %d blocks to %s\n" (Bs.block_count bs) pp;
        Page_file.close pf)
      page_path;
    Option.iter
      (fun q ->
        (* one build over the recovered state: never more work than a
           build over the snapshot plus a splice per replayed record *)
        let planner = if use_index then Some (Pl.create store root) else None in
        match
          answer
            ?planner:(Option.map store_planner planner)
            ~eval:(Xsm_xpath.Eval.Over_store.eval_string store root)
            q
        with
        | Ok nodes ->
          Option.iter (fun p -> report_maintenance (Pl.maintenance_stats p)) planner;
          List.iter (fun n -> print_endline (Store.string_value store n)) nodes
        | Error e -> fail e)
      query;
    if do_print then print_store store root
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the database state from a snapshot plus a write-ahead log: load, truncate \
          the torn tail (CRC-detected), replay — the recovered state is content-equal to the \
          longest fully-written prefix of the logged run")
    Term.(
      const run $ obs_term $ snap_arg
      $ opt_string "wal"
          "Replay this write-ahead log on top of the snapshot, truncating a torn trailing \
           record if the writer crashed mid-append."
      $ flag "print" "Print the recovered document on stdout"
      $ opt_string ~docv:"PATH" "query" "Evaluate a query over the recovered state."
      $ flag "index"
          "Build the index planner over the recovered state, once, after the replay; implies \
           the query runs through the planner."
      $ flag "no-truncate" "Leave a torn WAL tail on disk instead of repairing the file."
      $ opt_string "page-file"
          "After recovery, materialize the block-storage representation of the recovered \
           state and checkpoint it to $(docv) — a clean page file that alone reconstructs the \
           store."
      $ pool_capacity 64)

let stats_cmd =
  let script_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Workload script in the $(b,xsm update) syntax; its queries run through the index \
             planner and its updates are logged to a throwaway WAL so every subsystem \
             contributes to the report.")
  in
  let run () doc_path script_path schema_path capacity openmetrics =
    let doc = or_die (load_document doc_path) in
    let hooks = Option.map (schema_hooks doc) schema_path in
    let { store; root; _ } = store_of_document doc in
    let planner = Planner.Over_store.create store root in
    Option.iter
      (fun (pruner, rewriter) ->
        Planner.Over_store.set_pruner planner pruner;
        Planner.Over_store.set_rewriter planner rewriter)
      hooks;
    (* a throwaway WAL with an fsync per record, so append and fsync
       latencies land in the histograms *)
    let wal_path = Filename.temp_file "xsm-stats" ".wal" in
    let wal =
      match Wal.Writer.create ~sync_every:1 wal_path with Ok w -> w | Error e -> die_wal_error e
    in
    Fun.protect
      ~finally:(fun () ->
        Wal.Writer.close wal;
        if Sys.file_exists wal_path then Sys.remove wal_path)
      (fun () -> execute_script ~script_path ~store ~root ~planner ~wal ());
    (* replay the final tree's block locality through the real pager: a
       block storage paged through a throwaway page file, cold-started,
       then one extent scan per schema node and one navigational walk —
       the pager.* counters are actual faults, write-backs and
       evictions *)
    let g_pager_hit =
      Metrics.Gauge.make ~help:"pager hit ratio over the cold workload replay" "pager.hit_ratio"
    in
    let pp = Filename.temp_file "xsm-stats" ".pages" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists pp then Sys.remove pp)
      (fun () ->
        let module Ds = Xsm_storage.Descriptive_schema in
        let bs = Bs.of_store store root in
        let pf, p = attach_pages ~cold:true bs ~capacity pp in
        let rec snodes acc sn = List.fold_left snodes (sn :: acc) (Ds.children (Bs.schema bs) sn) in
        List.iter
          (fun sn ->
            List.iter (fun d -> ignore (Bs.string_value bs d)) (Bs.descendants_by_snode bs sn))
          (List.rev (snodes [] (Ds.root (Bs.schema bs))));
        let rec walk d =
          ignore (Bs.string_value bs d);
          List.iter walk (Bs.attributes bs d);
          List.iter walk (Bs.children bs d)
        in
        walk (Bs.root bs);
        Metrics.Gauge.set g_pager_hit
          (match Pager.hit_ratio (Pager.stats p) with
          | Some r -> r
          | None -> Float.nan (* no accesses: JSON null / "(unset)", not 1.0 *));
        Page_file.close pf);
    Metrics.Runtime.sample ();
    if openmetrics then print_string (Metrics.to_openmetrics Metrics.default)
    else print_endline (Json.to_string (Metrics.to_json Metrics.default))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Replay a workload script against a document with every subsystem instrumented — \
          validator, index planner, WAL, pager — and print the full metrics registry as JSON \
          (or OpenMetrics text) on stdout")
    Term.(
      const run $ obs_term $ doc_pos 0 $ script_arg
      $ schema_opt
          "Validate the document against $(docv) first (populating the validator counters) \
           and give the planner the schema's static emptiness oracle, so provably dead \
           queries show up in the pruned counter."
      $ pool_capacity ~doc:"Buffer-pool capacity (blocks) for the locality replay (default 8)." 8
      $ flag "openmetrics"
          "Print the registry as OpenMetrics text exposition instead of JSON — the same output \
           a scraper gets from a running daemon via $(b,xsm client --openmetrics).")

let dataguide_cmd =
  let run doc_path =
    let { store; root; _ } = open_store (Document doc_path) in
    let ds, _ = Xsm_storage.Descriptive_schema.of_tree store root in
    Format.printf "%a" Xsm_storage.Descriptive_schema.pp ds;
    Printf.printf "(%d schema nodes for %d document nodes)\n"
      (Xsm_storage.Descriptive_schema.node_count ds)
      (Store.node_count store)
  in
  Cmd.v
    (Cmd.info "dataguide" ~doc:"Print the descriptive schema (\xc2\xa79.1)")
    Term.(const run $ doc_pos 0)

let labels_cmd =
  let run doc_path =
    let { store; root; _ } = open_store (Document doc_path) in
    let t = Xsm_numbering.Labeler.label_tree store root in
    List.iter
      (fun n ->
        Format.printf "%a  %a@." Xsm_numbering.Sedna_label.pp
          (Xsm_numbering.Labeler.label t n)
          (Store.pp_node store) n)
      (Xsm_xdm.Order.nodes_in_order store root)
  in
  Cmd.v
    (Cmd.info "labels" ~doc:"Print every node with its Sedna numbering label (\xc2\xa79.3)")
    Term.(const run $ doc_pos 0)

let canonicalize_cmd =
  let run schema_path =
    let schema = load_schema schema_path in
    print_string (Xsm_xsd.Writer.to_string (Xsm_schema.Canonical.simplify_schema schema))
  in
  Cmd.v
    (Cmd.info "canonicalize"
       ~doc:"Print the schema with canonicalized (simplified) content models")
    Term.(const run $ schema_pos 0)

let flwor_cmd =
  let module F = Xsm_xpath.Flwor.Over_store in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"FLWOR query")
  in
  let run doc_path query =
    let { store; root; _ } = open_store (Document doc_path) in
    match F.eval_string store root query with
    | Ok items -> List.iter print_endline (F.strings store items)
    | Error e -> fail e
  in
  Cmd.v
    (Cmd.info "flwor"
       ~doc:"Evaluate a FLWOR query (for/let/where/order by/return) over a document")
    Term.(const run $ doc_pos 0 $ query_arg)

let roundtrip_cmd =
  let run schema_path doc_path =
    let schema = load_schema schema_path in
    let doc = or_die (load_document doc_path) in
    match Xsm_schema.Roundtrip.holds_for doc schema with
    | Ok true -> print_endline "g(f(X)) =_c X holds"
    | Ok false ->
      print_endline "round-trip produced a different document";
      exit 1
    | Error es ->
      List.iter (fun e -> print_endline (Validator.error_to_string e)) es;
      exit 1
  in
  Cmd.v
    (Cmd.info "roundtrip" ~doc:"Check the \xc2\xa78 theorem for one document")
    Term.(const run $ schema_pos 0 $ doc_pos 1)

(* ------------------------------------------------------------------ *)
(* serve / client / bench-serve: the session daemon (DESIGN.md §12)   *)

module Server = Xsm_server.Server
module Sclient = Xsm_server.Client
module Sproto = Xsm_server.Protocol

let serve_cmd =
  let run () socket doc_path snap_path wal_path schema_path domains no_group_commit use_index
      with_labels page_path pool_capacity flight_capacity slow_log slow_threshold_ms =
    let schema =
      Option.map (fun p -> Compiled.schema (fst (load_checked_schema p))) schema_path
    in
    let { store; root; labels; recovered } =
      match (snap_path, doc_path) with
      | Some snap, _ when Sys.file_exists snap ->
        (* a missing WAL is an empty log *)
        open_store (Snapshot { path = snap; wal = wal_path; truncate = true })
      | _, None -> die "serve: no snapshot to recover — need --doc for a fresh server"
      | _, Some p ->
        let o = open_store (Document p) in
        (* a fresh base invalidates any log from a previous run: its
           records address the old state *)
        Option.iter (fun w -> if Sys.file_exists w then Sys.remove w) wal_path;
        {
          o with
          labels =
            (if with_labels then Some (Xsm_numbering.Labeler.label_tree o.store o.root) else None);
        }
    in
    let config =
      {
        Server.socket_path = socket;
        snapshot_path = snap_path;
        wal_path;
        domains;
        group_commit = not no_group_commit;
        use_index;
        page_file = page_path;
        pool_capacity;
        flight_capacity;
        slow_log;
        slow_threshold_ms;
      }
    in
    match Server.create config ~store ~root ?labels ?schema () with
    | Error e -> die "%s" e
    | Ok srv -> (
      Option.iter (Format.eprintf "xsm serve: recovered: %a@." Recovery.pp_stats) recovered;
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Server.request_stop srv)))
        [ Sys.sigterm; Sys.sigint ];
      let on_ready () =
        Printf.eprintf "xsm serve: listening on %s (domains=%d, %s)\n%!" socket domains
          (if no_group_commit then "fsync-per-update" else "group commit")
      in
      match Server.serve ~on_ready srv with
      | Ok () ->
        Printf.eprintf "xsm serve: stopped after %d sessions\n%!" (Server.sessions_served srv)
      | Error e -> die "%s" e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the session daemon: one process owning the store, labels, indexes and WAL, \
          serving concurrent sessions over a Unix domain socket — parallel snapshot reads on \
          a domain pool, group-committed writes")
    Term.(
      const run $ obs_term $ socket_arg
      $ opt_string ~docv:"DOC" "doc"
          "Boot from this XML document (fresh base; an existing --wal file is discarded)."
      $ opt_string "snapshot"
          "Boot by recovering from this snapshot when it exists (replaying the --wal tail on \
           top), and write the final state back to it at graceful shutdown — at which point \
           the WAL it subsumes is removed (a checkpoint)."
      $ opt_string "wal" "Append every committed update to this write-ahead log."
      $ schema_opt ~docv:"XSD" "Schema for $(b,validate) requests."
      $ domains ~docv:"N" "Read-pool size: parallel query evaluators."
      $ flag "no-group-commit"
          "Commit every update alone, with its own apply and its own WAL fsync, instead of \
           sharing an fsync with the updates applied beside it (the E17 baseline)."
      $ flag "index"
          "Route queries through the index planner (serialized; each update splices its change \
           into the indexes) instead of the parallel pure evaluator."
      $ flag "labels" "Maintain \xc2\xa79.3 Sedna labels across updates."
      $ opt_string "page-file"
          "Serve the document from disk-paged block storage instead of the in-memory store: \
           one bounded buffer pool backed by $(docv), shared by every session, takes every \
           query and update.  Checkpointed at graceful shutdown.  A store with type \
           annotations (a $(b,snapshot --schema) snapshot) is refused."
      $ pool_capacity 256
      $ opt_int "flight-capacity" 256 "Flight-recorder ring size in request digests (default 256)."
      $ opt_string "slow-log"
          "Append a JSON line (the flight digest, plan attached) for every request at least \
           $(b,--slow-threshold-ms) slow."
      $ Arg.(
          value & opt float 10.0
          & info [ "slow-threshold-ms" ] ~docv:"MS"
              ~doc:
                "Requests at least this slow keep their plan in the flight recorder and go to \
                 the slow log (default 10)."))

let client_cmd =
  let run socket query update validate stats openmetrics flight shutdown trace_file =
    let c = match Sclient.connect socket with Ok c -> c | Error e -> die "%s" e in
    Fun.protect
      ~finally:(fun () -> Sclient.close c)
      (fun () ->
        let actions =
          List.length (List.filter Option.is_some [ query; update; validate ])
          + List.length (List.filter Fun.id [ stats; openmetrics; flight; shutdown ])
        in
        if actions <> 1 then
          die
            "client: give exactly one of --query, --update, --validate, --stats, \
             --openmetrics, --flight, --shutdown";
        (* [traced kind do_request] runs one request, optionally under a
           propagated trace context: the client side is a single
           deterministic span (id 1) covering the round trip, the server
           side is fetched back via [Introspect] and re-parented under
           it, ids offset so the two processes can't collide. *)
        let traced kind do_request =
          match trace_file with
          | None -> do_request None
          | Some path ->
            Random.self_init ();
            let trace_id = Printf.sprintf "%016Lx" (Random.int64 Int64.max_int) in
            let client_root_id = 1 in
            let ctx = { Sproto.trace_id; parent_span = client_root_id } in
            let t0 = Xsm_obs.Clock.now_ns () in
            do_request (Some ctx);
            let t1 = Xsm_obs.Clock.now_ns () in
            let client_root : Trace.event =
              {
                id = client_root_id;
                parent = 0;
                name = "client." ^ kind;
                start_ns = t0;
                dur_ns = Int64.sub t1 t0;
                depth = 0;
                attrs = [ ("trace", trace_id) ];
              }
            in
            (match Sclient.introspect c (Sproto.Trace_events trace_id) with
            | Error e -> Printf.eprintf "trace: introspect: %s\n" e
            | Ok body -> (
              let server_events =
                match Json.member "events" body with
                | Some (Json.Arr items) ->
                  List.filter_map
                    (fun j -> match Trace.event_of_json j with Ok e -> Some e | Error _ -> None)
                    items
                | _ -> []
              in
              (* same machine but not the same clock: each process
                 counts from its own epoch, so rebase server
                 timestamps by the epoch difference before merging.
                 Server roots hang off the client request span. *)
              let delta_ns =
                match Json.member "clock_epoch_s" body with
                | Some (Json.Num server_epoch) ->
                  Int64.of_float ((server_epoch -. Xsm_obs.Clock.epoch_wall ()) *. 1e9)
                | _ -> 0L
              in
              let offset = 1_000_000 in
              let server_events =
                List.map
                  (fun (e : Trace.event) ->
                    {
                      e with
                      id = e.id + offset;
                      parent = (if e.parent = 0 then client_root_id else e.parent + offset);
                      depth = e.depth + 1;
                      start_ns = Int64.add e.start_ns delta_ns;
                    })
                  server_events
              in
              match
                Trace.write_chrome_groups path
                  [ (1, "xsm client", [ client_root ]); (2, "xsm serve", server_events) ]
              with
              | Ok () ->
                Printf.eprintf "trace: %s (%d server spans, trace %s)\n" path
                  (List.length server_events) trace_id
              | Error e -> Printf.eprintf "trace: %s\n" e))
        in
        let ok = function Ok v -> v | Error e -> fail e in
        match (query, update, validate) with
        | Some path, _, _ ->
          traced "query" (fun trace ->
              let epoch, values = ok (Sclient.query ?trace c path) in
              Printf.eprintf "epoch %d, %d nodes\n" epoch (List.length values);
              List.iter print_endline values)
        | _, Some command, _ ->
          traced "update" (fun trace ->
              Printf.printf "applied (epoch %d)\n" (ok (Sclient.update ?trace c command)))
        | _, _, Some doc_path ->
          traced "validate" (fun trace ->
              match ok (Sclient.validate ?trace c (read_doc_source doc_path)) with
              | true, _ -> print_endline "valid"
              | false, errors ->
                List.iter print_endline errors;
                exit 1)
        | None, None, None ->
          if shutdown then begin
            ok (Sclient.shutdown c);
            print_endline "stopping"
          end
          else if flight then
            print_endline (Json.to_string (ok (Sclient.introspect c Sproto.Flight)))
          else if openmetrics then
            match Json.member "openmetrics" (ok (Sclient.stats ~openmetrics:true c)) with
            | Some (Json.Str text) -> print_string text
            | _ -> fail "client: malformed openmetrics reply"
          else print_endline (Json.to_string (ok (Sclient.stats c))))
  in
  Cmd.v
    (Cmd.info "client" ~doc:"One-shot client for a running $(b,xsm serve) daemon")
    Term.(
      const run $ socket_arg
      $ opt_string ~docv:"PATH" "query" "Evaluate an XPath on the server."
      $ opt_string ~docv:"CMD" "update"
          "Apply one update-script command ($(b,insert), $(b,delete), $(b,content), ...)."
      $ opt_string ~docv:"DOC" "validate"
          "Validate this XML file against the server's schema ('-' for stdin)."
      $ flag "stats" "Print the server's stats JSON."
      $ flag "openmetrics" "Print the server's metrics registry as OpenMetrics text exposition."
      $ flag "flight"
          "Dump the server's flight recorder as JSON: recent request digests plus the kept \
           error and slowest tails."
      $ flag "shutdown" "Ask the server to stop gracefully."
      $ opt_string "trace"
          "Propagate a trace context with the request ($(b,--query), $(b,--update) or \
           $(b,--validate)), fetch the server-side spans it produced, and write both halves — \
           the client request span and the server's request/phase tree, correctly parented — \
           to $(docv) as one Chrome trace.")

(* A minimal live view over the daemon's flight recorder: one session,
   [Introspect Flight] + [Stats] per refresh, ANSI repaint. *)
let top_cmd =
  let run socket interval count rows =
    let field path body =
      List.fold_left (fun j name -> Option.bind j (Json.member name)) (Some body) path
    in
    let jint = function Some (Json.Num f) -> int_of_float f | _ -> 0 in
    let clip n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "\xe2\x80\xa6" in
    let digest_line b d =
      let s path = match field path d with Some (Json.Str s) -> s | _ -> "" in
      let i path = jint (field path d) in
      let est =
        match field [ "est_rows" ] d with
        | Some (Json.Arr [ Json.Num lo; Json.Num hi ]) ->
          if hi < 0.0 then Printf.sprintf "%d+" (int_of_float lo)
          else Printf.sprintf "%d..%d" (int_of_float lo) (int_of_float hi)
        | _ -> "-"
      in
      let outcome =
        match field [ "outcome" ] d with
        | Some (Json.Str "ok") -> "ok"
        | Some o -> (
          match Json.member "error" o with Some (Json.Str e) -> clip 24 ("! " ^ e) | _ -> "!")
        | None -> "?"
      in
      Buffer.add_string b
        (Printf.sprintf "  %6d  %-8s %-8s %8s %6d %6d %9.3f  %-24s %s\n" (i [ "seq" ])
           (s [ "kind" ])
           (match s [ "route" ] with "" -> "-" | r -> r)
           est (i [ "actual_rows" ]) (i [ "pager_hits" ])
           (float_of_int (i [ "latency_ns" ]) /. 1e6)
           outcome
           (clip 32 (s [ "detail" ])))
    in
    let section b title ds =
      if ds <> [] then begin
        Buffer.add_string b (Printf.sprintf "%s\n" title);
        Buffer.add_string b
          "     seq  kind     route         est    act  pager   lat(ms)  outcome                  detail\n";
        let n = List.length ds in
        List.iteri (fun i d -> if i >= n - rows then digest_line b d) ds
      end
    in
    let c = match Sclient.connect ~client:"xsm-top" socket with Ok c -> c | Error e -> die "%s" e in
    Fun.protect
      ~finally:(fun () -> Sclient.close c)
      (fun () ->
        let refresh () =
          match (Sclient.introspect c Sproto.Flight, Sclient.stats c) with
          | Error e, _ | _, Error e -> die "top: %s" e
          | Ok flight, Ok stats ->
            let b = Buffer.create 4096 in
            Buffer.add_string b
              (Printf.sprintf
                 "xsm top — %s   epoch %d   sessions %d   requests %d   inflight %d   digests \
                  %d/%d\n\n"
                 socket
                 (jint (field [ "server"; "epoch" ] stats))
                 (jint (field [ "server"; "sessions" ] stats))
                 (jint (field [ "metrics"; "counters"; "server.requests" ] stats))
                 (jint (field [ "metrics"; "gauges"; "server.inflight" ] stats))
                 (jint (field [ "recorded" ] flight))
                 (jint (field [ "capacity" ] flight)));
            let arr path = match field path flight with Some (Json.Arr ds) -> ds | _ -> [] in
            section b "recent" (arr [ "recent" ]);
            section b "\nkept slow (evicted tail)" (arr [ "slow" ]);
            section b "\nkept errors (evicted tail)" (arr [ "errors" ]);
            print_string "\027[2J\027[H";
            print_string (Buffer.contents b);
            flush stdout
        in
        let rec loop n =
          refresh ();
          if count = 0 || n < count then begin
            Unix.sleepf interval;
            loop (n + 1)
          end
        in
        loop 1)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running daemon: refresh the flight recorder's request digests \
          (recent, kept-slow, kept-error) and headline server stats in place")
    Term.(
      const run $ socket_arg
      $ Arg.(
          value & opt float 1.0
          & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period (default 1).")
      $ opt_int "count" 0 "Stop after $(docv) refreshes (0: run until interrupted)."
      $ opt_int "rows" 15 "Digest rows to show per section (default 15).")

(* Closed-loop load generator for the daemon (bench E17): spawn an
   [xsm serve] child, fork N single-threaded client processes that
   each run a read/write mix against it, and aggregate their recorded
   latencies into p50/p99 and overall throughput. *)
let bench_serve_cmd =
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then Float.nan else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  let generate_library k =
    let buf = Buffer.create (k * 96) in
    Buffer.add_string buf "<library>";
    for i = 1 to k do
      Buffer.add_string buf
        (Printf.sprintf
           "<book id=\"b%d\"><title>Title %d</title><author>Author %d</author><year>%d</year></book>"
           i i (i mod 97) (1950 + (i mod 70)))
    done;
    Buffer.add_string buf "</library>";
    Buffer.contents buf
  in
  let run () clients requests domains entries write_ratio no_group_commit use_index
      pool_capacity smoke =
    let clients, requests, entries =
      if smoke then (2, 25, 100) else (clients, requests, entries)
    in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xsm-bench-serve-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let sock = Filename.concat dir "serve.sock" in
    let doc_file = Filename.concat dir "library.xml" in
    let wal_file = Filename.concat dir "serve.wal" in
    let log_file = Filename.concat dir "server.log" in
    let out = open_out doc_file in
    output_string out (generate_library entries);
    close_out out;
    (* the server is a separate process: the bench parent stays
       single-threaded, so forking client processes below is safe *)
    let argv =
      [ Sys.executable_name; "serve"; "--socket"; sock; "--doc"; doc_file; "--wal"; wal_file;
        "--domains"; string_of_int domains ]
      @ (if no_group_commit then [ "--no-group-commit" ] else [])
      @ (if use_index then [ "--index" ] else [])
      @
      match pool_capacity with
      | Some n ->
        [ "--page-file"; Filename.concat dir "serve.pages"; "--pool-capacity"; string_of_int n ]
      | None -> []
    in
    let log_fd = Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let server_pid =
      Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin log_fd log_fd
    in
    Unix.close log_fd;
    let die_with_log fmt =
      Printf.ksprintf
        (fun s ->
          prerr_endline s;
          (try print_string (read_file log_file) with Sys_error _ -> ());
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          exit 2)
        fmt
    in
    (* wait until the socket accepts a handshake *)
    let rec await tries =
      if tries = 0 then die_with_log "bench-serve: server did not come up";
      (match Unix.waitpid [ Unix.WNOHANG ] server_pid with
      | 0, _ -> ()
      | _ -> die_with_log "bench-serve: server exited during startup");
      match Sclient.connect sock with
      | Ok c -> Sclient.close c
      | Error _ ->
        Unix.sleepf 0.05;
        await (tries - 1)
    in
    await 200;
    let write_every =
      if write_ratio <= 0.0 then 0 else max 1 (int_of_float (1.0 /. write_ratio))
    in
    let read_query = "//book[author=\"Author 13\"]/title" in
    let client_main i =
      let lat = Filename.concat dir (Printf.sprintf "client-%d.lat" i) in
      let out = open_out lat in
      (match Sclient.connect ~client:(Printf.sprintf "bench-%d" i) sock with
      | Error e ->
        Printf.eprintf "bench client %d: %s\n%!" i e;
        close_out out;
        Unix._exit 1
      | Ok c ->
        for j = 0 to requests - 1 do
          let is_write = write_every > 0 && j mod write_every = write_every - 1 in
          let t0 = Xsm_obs.Clock.now_ns () in
          let result =
            if is_write then
              Result.map ignore (Sclient.update c (Printf.sprintf "attr /library seq c%d-%d" i j))
            else Result.map ignore (Sclient.query c read_query)
          in
          let t1 = Xsm_obs.Clock.now_ns () in
          match result with
          | Ok () -> Printf.fprintf out "%c %Ld\n" (if is_write then 'w' else 'r') (Int64.sub t1 t0)
          | Error e ->
            Printf.eprintf "bench client %d: request %d: %s\n%!" i j e;
            close_out out;
            Unix._exit 1
        done;
        Sclient.close c);
      close_out out;
      Unix._exit 0
    in
    let bench_start = Xsm_obs.Clock.now_ns () in
    let pids =
      List.init clients (fun i -> match Unix.fork () with 0 -> client_main i | pid -> pid)
    in
    let ok =
      List.for_all
        (fun pid -> match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
        pids
    in
    let bench_stop = Xsm_obs.Clock.now_ns () in
    if not ok then die_with_log "bench-serve: a client failed";
    (* pull commit stats before stopping the server *)
    let commit_line =
      match Sclient.connect sock with
      | Error e -> die_with_log "bench-serve: stats connect: %s" e
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Sclient.close c)
          (fun () ->
            match Sclient.stats c with
            | Error e -> die_with_log "bench-serve: stats: %s" e
            | Ok body -> (
              let field path =
                List.fold_left (fun j name -> Option.bind j (Json.member name)) (Some body) path
              in
              match
                ( field [ "server"; "commit"; "submissions" ],
                  field [ "server"; "commit"; "batches" ],
                  field [ "server"; "commit"; "max_batch" ] )
              with
              | Some (Json.Num s), Some (Json.Num b), Some (Json.Num m) ->
                let pager =
                  match
                    ( field [ "pager"; "accesses" ],
                      field [ "pager"; "reads" ],
                      field [ "pager"; "evictions" ] )
                  with
                  | Some (Json.Num a), Some (Json.Num r), Some (Json.Num e) ->
                    Printf.sprintf "\n  pager: %d accesses, %d faults, %d evictions"
                      (int_of_float a) (int_of_float r) (int_of_float e)
                  | _ -> ""
                in
                Printf.sprintf "commit: %d submissions in %d batches (max batch %d)%s"
                  (int_of_float s) (int_of_float b) (int_of_float m) pager
              | _ -> "commit: (stats unavailable)"))
    in
    (match Sclient.connect sock with
    | Ok c ->
      ignore (Sclient.shutdown c);
      Sclient.close c
    | Error _ -> ());
    ignore (Unix.waitpid [] server_pid);
    (* aggregate the recorded latencies *)
    let reads = ref [] and writes = ref [] in
    for i = 0 to clients - 1 do
      let ic = open_in (Filename.concat dir (Printf.sprintf "client-%d.lat" i)) in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | [ "r"; ns ] -> reads := Int64.to_float (Int64.of_string ns) :: !reads
           | [ "w"; ns ] -> writes := Int64.to_float (Int64.of_string ns) :: !writes
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic
    done;
    let ms ns = ns /. 1e6 in
    let elapsed_s = Int64.to_float (Int64.sub bench_stop bench_start) /. 1e9 in
    let total = List.length !reads + List.length !writes in
    let report kind samples =
      let a = Array.of_list samples in
      Array.sort compare a;
      Printf.printf "  %-7s n=%-6d p50=%.3fms p99=%.3fms p999=%.3fms\n" kind (Array.length a)
        (ms (percentile a 0.50)) (ms (percentile a 0.99)) (ms (percentile a 0.999))
    in
    Printf.printf "bench-serve: clients=%d domains=%d group_commit=%b index=%b entries=%d\n"
      clients domains (not no_group_commit) use_index entries;
    Printf.printf "  total   %d requests in %.2fs = %.0f req/s\n" total elapsed_s
      (float_of_int total /. elapsed_s);
    if !reads <> [] then report "reads" !reads;
    if !writes <> [] then report "writes" !writes;
    Printf.printf "  %s\n" commit_line;
    (* best-effort cleanup *)
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Drive a spawned $(b,xsm serve) daemon with N concurrent client processes and report \
          latency percentiles and throughput (bench E17)")
    Term.(
      const run $ obs_term
      $ opt_int "clients" 8 "Concurrent client processes."
      $ opt_int ~docv:"M" "requests" 200 "Requests per client."
      $ domains ~docv:"D" "Server read-pool size."
      $ opt_int ~docv:"K" "entries" 200 "Books in the generated library document."
      $ Arg.(
          value & opt float 0.1
          & info [ "write-ratio" ] ~docv:"R" ~doc:"Fraction of requests that are updates.")
      $ flag "no-group-commit" "Run the server with one fsync per update (the baseline)."
      $ flag "index" "Run the server with --index (serialized reads)."
      $ Arg.(
          value & opt (some capacity) None
          & info [ "pool-capacity" ] ~docv:"N"
              ~doc:
                "Run the server over disk-paged block storage under an $(docv)-block buffer \
                 pool (a page file in the bench directory); pager counters are reported with \
                 the results.")
      $ flag "smoke" "Tiny deterministic run for CI: 2 clients, 25 requests, 100 entries.")

let () =
  let info =
    Cmd.info "xsm" ~version:"1.0.0"
      ~doc:"A formal model of XML Schema: validation, storage and numbering tools"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            validate_cmd; load_cmd; check_cmd; analyze_cmd; canonicalize_cmd; query_cmd;
            update_cmd; flwor_cmd; dataguide_cmd; labels_cmd; roundtrip_cmd; snapshot_cmd;
            recover_cmd; stats_cmd; serve_cmd; client_cmd; top_cmd; bench_serve_cmd;
          ]))
