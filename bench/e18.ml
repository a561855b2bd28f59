(* E18: disk-paged storage under memory pressure — bounded RSS with a
   working set far larger than the buffer pool.

   Two claims, two corpora:

   {b Pressure.}  A narrow, value-heavy corpus (two ~1.8 KB text
   fields per record) is bulk-loaded with a pager attached and a pool
   an order of magnitude smaller than the block working set.  Paging
   moves descriptor {e values} (the skeleton stays resident), so the
   load must complete with evictions recycling frames and a peak RSS
   below the resident store's — graceful degradation, not OOM.

   {b Cold cache.}  A wide corpus (50 fields, so each record spans
   ~102 schema extents — far more block lists than a small pool
   holds) is checkpointed to a page file, reopened cold, and read two
   ways: E11's extent scan (block-list order, scan-hinted) against
   document-order navigation, which hops between extents on every
   step and faults the same blocks over and over.

   Peak RSS (VmHWM) is a process-wide high-water mark, so each mode
   runs in its own re-exec'd child ([--e18-child MODE CORPUS PAGES]),
   exactly like E16.  With [--smoke] the corpora are small and the run
   asserts the paging invariants (used by CI); the full run prints the
   EXPERIMENTS.md table. *)

module Bs = Xsm_storage.Block_storage
module Schema = Xsm_storage.Descriptive_schema
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Sax = Xsm_xml.Sax
module BL = Xsm_stream.Bulk_load

let pool_capacity = 48
let prep_pool = 256

(* Deterministic corpus: [fields] text children per record, each
   [words] LCG-varied 12-byte words, until the target size is
   reached. *)
let generate path ~fields ~words target_bytes =
  let oc = open_out_bin path in
  let state = ref 0x2545F491 in
  let word () =
    state := (!state * 1103515245) + 12345;
    Printf.sprintf "w%06x" (!state land 0xFFFFFF)
  in
  output_string oc "<doc>";
  let n = ref 0 in
  while pos_out oc < target_bytes do
    incr n;
    Printf.fprintf oc "<rec id=\"r%d\">" !n;
    for i = 0 to fields - 1 do
      Printf.fprintf oc "<k%d>" i;
      for _ = 1 to words do
        output_string oc (word ());
        output_char oc ' '
      done;
      Printf.fprintf oc "</k%d>" i
    done;
    output_string oc "</rec>"
  done;
  output_string oc "</doc>";
  close_out oc;
  !n

let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      else scan ()
    | exception End_of_file -> -1
  in
  let kb = scan () in
  close_in ic;
  kb

let with_channel path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let pump ic bl =
  let sax = Sax.of_channel ic in
  let rec go () =
    match Sax.next sax with
    | Some e ->
      BL.feed bl e;
      go ()
    | None -> ()
  in
  go ()

(* Bulk load with a pager attached *before* the load, so eviction
   bounds the high-water mark while blocks are being filled. *)
let paged_load corpus pages ~capacity =
  with_channel corpus (fun ic ->
      let bl = BL.create () in
      let bs = BL.storage bl in
      let pf = Page_file.create pages in
      ignore (Bs.attach_pager bs ~capacity pf);
      pump ic bl;
      let bs, _ = BL.finish bl in
      Bs.checkpoint bs ~lsn:0;
      (bs, pf))

(* Walk the whole document in document order through the accessors —
   the navigation pattern of E11, hopping between per-snode block
   lists on every level change. *)
let navigate bs =
  let total = ref 0 in
  let rec walk d =
    (match Bs.node_kind d with
    | "text" | "attribute" -> total := !total + String.length (Bs.string_value bs d)
    | _ -> ());
    List.iter walk (Bs.attributes bs d);
    List.iter walk (Bs.children bs d)
  in
  walk (Bs.root bs);
  !total

(* Scan every extent (per-snode block list, scan-hinted) and read the
   values — E11's extent-scan access path. *)
let extent_scan bs =
  let schema = Bs.schema bs in
  let total = ref 0 in
  let rec snodes acc s = List.fold_left snodes (s :: acc) (Schema.children schema s) in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          match Bs.node_kind d with
          | "text" | "attribute" -> total := !total + String.length (Bs.string_value bs d)
          | _ -> ())
        (Bs.descendants_by_snode bs s))
    (List.rev (snodes [] (Schema.root schema)));
  !total

let pager_stats bs =
  match Bs.pager bs with
  | None -> (0, 0)
  | Some p ->
    let s = Pager.stats p in
    (s.Pager.evictions, s.Pager.reads)

(* One measured run inside a fresh process; prints a machine line the
   parent parses. *)
let child mode corpus pages =
  let bytes = if corpus = "-" then 0 else (Unix.stat corpus).Unix.st_size in
  let t0 = Unix.gettimeofday () in
  let blocks, evictions, reads, ok =
    match mode with
    | "resident" ->
      with_channel corpus (fun ic ->
          let bs, _ = BL.load (Sax.of_channel ic) in
          (Bs.block_count bs, 0, 0, Bs.descriptor_count bs > 0))
    | "paged" | "prep" ->
      let capacity = if mode = "paged" then pool_capacity else prep_pool in
      let bs, pf = paged_load corpus pages ~capacity in
      let evictions, reads = pager_stats bs in
      let ok = Bs.descriptor_count bs > 0 in
      Page_file.close pf;
      (Bs.block_count bs, evictions, reads, ok)
    | "cold-scan" | "cold-walk" ->
      let pf = Page_file.open_existing pages in
      let bs = Bs.of_page_file ~capacity:pool_capacity pf in
      let total = if mode = "cold-scan" then extent_scan bs else navigate bs in
      let evictions, reads = pager_stats bs in
      Page_file.close pf;
      (Bs.block_count bs, evictions, reads, total > 0)
    | m -> invalid_arg ("e18 child mode " ^ m)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Printf.printf "E18CHILD %s %d %.1f %d %d %d %d %b\n" mode bytes ms (vmhwm_kb ()) blocks
    evictions reads ok

type sample = {
  mode : string;
  bytes : int;
  ms : float;
  hwm_kb : int;
  blocks : int;
  evictions : int;
  reads : int;
  ok : bool;
}

let run_child corpus pages mode =
  let out = Filename.temp_file "e18" ".out" in
  let cmd =
    Filename.quote_command Sys.executable_name ~stdout:out [ "--e18-child"; mode; corpus; pages ]
  in
  let status = Sys.command cmd in
  let line = with_channel out input_line in
  Sys.remove out;
  if status <> 0 then failwith (Printf.sprintf "e18 child %s exited %d" mode status);
  Scanf.sscanf line "E18CHILD %s %d %f %d %d %d %d %b"
    (fun mode bytes ms hwm_kb blocks evictions reads ok ->
      { mode; bytes; ms; hwm_kb; blocks; evictions; reads; ok })

let print_sample s =
  if not s.ok then failwith ("e18: mode " ^ s.mode ^ " failed its run");
  Printf.printf "%-12s %10.0f %10.1f %9.1f MB %8d %10d %10d\n" s.mode s.ms
    (if s.bytes = 0 then 0. else float_of_int s.bytes /. 1e6 /. (s.ms /. 1000.))
    (float_of_int s.hwm_kb /. 1024.)
    s.blocks s.evictions s.reads

let header () =
  Printf.printf "%-12s %10s %10s %12s %8s %10s %10s\n" "mode" "ms" "MB/s" "peak RSS" "blocks"
    "evictions" "reads";
  Printf.printf "%s\n" (String.make 78 '-')

let run ~smoke () =
  let narrow_target = if smoke then 20_000_000 else 120_000_000 in
  let wide_target = if smoke then 3_000_000 else 12_000_000 in
  let narrow = Filename.temp_file "e18-narrow" ".xml" in
  let wide = Filename.temp_file "e18-wide" ".xml" in
  let pages = Filename.temp_file "e18" ".pages" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ narrow; wide; pages ])
  @@ fun () ->
  (* -- pressure: value-heavy records, pool 10x+ undersized ---------- *)
  let records = generate narrow ~fields:2 ~words:150 narrow_target in
  Printf.printf "E18: paged storage under memory pressure (%.1f MB, %d records, pool %d blocks)\n\n"
    (float_of_int (Unix.stat narrow).Unix.st_size /. 1e6)
    records pool_capacity;
  header ();
  let resident = run_child narrow pages "resident" in
  let paged = run_child narrow pages "paged" in
  List.iter print_sample [ resident; paged ];
  let pressure = float_of_int paged.blocks /. float_of_int pool_capacity in
  let rss_ratio = float_of_int resident.hwm_kb /. float_of_int paged.hwm_kb in
  Printf.printf "\nworking set %.0fx the pool; peak-RSS ratio resident/paged %.1fx\n\n" pressure
    rss_ratio;
  (* -- cold cache: wide records, extent scan vs navigation --------- *)
  Sys.remove pages;
  let wrecords = generate wide ~fields:50 ~words:25 wide_target in
  Printf.printf "E18 cold cache: extent scan vs navigation (%.1f MB, %d records, ~102 extents)\n\n"
    (float_of_int (Unix.stat wide).Unix.st_size /. 1e6)
    wrecords;
  header ();
  let prep = run_child wide pages "prep" in
  let scan = run_child "-" pages "cold-scan" in
  let walk = run_child "-" pages "cold-walk" in
  List.iter print_sample [ prep; scan; walk ];
  Printf.printf "\ncold cache: extent scan %d faults, navigation %d faults (%.1fx)\n" scan.reads
    walk.reads
    (float_of_int walk.reads /. float_of_int (max 1 scan.reads));
  if smoke then begin
    (* the CI bounds: real pressure, graceful degradation, and the
       access-path gap a cold pool is supposed to show *)
    if pressure < 10. then
      failwith (Printf.sprintf "E18 smoke: working set only %.1fx the pool, need 10x" pressure);
    if paged.evictions = 0 then failwith "E18 smoke: paged load recycled no frames";
    if paged.hwm_kb >= resident.hwm_kb then
      failwith
        (Printf.sprintf "E18 smoke: paged peak RSS %d KB not below resident %d KB" paged.hwm_kb
           resident.hwm_kb);
    if walk.reads <= scan.reads then
      failwith
        (Printf.sprintf "E18 smoke: navigation faulted %d, not above the extent scan's %d"
           walk.reads scan.reads);
    print_endline "E18 smoke: paging bounds hold"
  end
