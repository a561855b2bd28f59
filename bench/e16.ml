(* E16: streaming ingest vs the tree path — throughput and peak memory.

   The claim under test: the SAX pipeline validates and bulk-loads in
   O(depth) memory at tree-path throughput, so its peak RSS stays flat
   as the document grows while the tree path's peak tracks document
   size.

   Peak RSS (VmHWM in /proc/self/status) is a high-water mark of the
   whole process, so the modes cannot share one process: the parent
   generates a corpus file once, then re-execs itself ([--e16-child
   MODE FILE]) per mode and reads each child's own measurement.  With
   [--smoke] the corpus is small and the run asserts the memory bound
   (used by CI); the full run prints the EXPERIMENTS.md table. *)

module Ast = Xsm_schema.Ast
module Parser = Xsm_xml.Parser
module Validator = Xsm_schema.Validator
module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Bs = Xsm_storage.Block_storage
module Sax = Xsm_xml.Sax
module SV = Xsm_stream.Stream_validator
module BL = Xsm_stream.Bulk_load

let fields = 5

(* doc = rec*;  rec = @id, k0..k4 : xs:string *)
let schema =
  let field i =
    Ast.elem_p (Ast.element (Printf.sprintf "k%d" i) (Ast.named_type "xs:string"))
  in
  let rec_type =
    Ast.complex
      ~attributes:[ Ast.attribute "id" "xs:string" ]
      (Some (Ast.sequence (List.init fields field)))
  in
  Ast.schema
    (Ast.element "doc"
       (Ast.Anonymous
          (Ast.complex
             (Some
                (Ast.sequence
                   [ Ast.elem_p (Ast.element ~repetition:Ast.many "rec" (Ast.Anonymous rec_type)) ])))))

(* Deterministic corpus: records of a few hundred bytes until the
   target size is reached.  A tiny LCG varies the payload so text runs
   are not one repeated page. *)
let generate path target_bytes =
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
      Printf.fprintf oc "<k%d>%s %s %s %s</k%d>" i (word ()) (word ()) (word ()) (word ()) i
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

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_channel path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let modes = [ "tree-validate"; "stream-validate"; "tree-load"; "stream-load" ]

(* One measured run inside a fresh process; prints a machine line the
   parent parses. *)
let child mode file =
  let bytes = (Unix.stat file).Unix.st_size in
  let t0 = Unix.gettimeofday () in
  let ok =
    match mode with
    | "tree-validate" -> (
      match Parser.parse_document (read_file file) with
      | Error _ -> false
      | Ok doc -> (
        match Validator.validate_document doc schema with Ok _ -> true | Error _ -> false))
    | "stream-validate" ->
      with_channel file (fun ic ->
          match SV.run schema (Sax.of_channel ic) with Ok _ -> true | Error _ -> false)
    | "tree-load" -> (
      match Parser.parse_document (read_file file) with
      | Error _ -> false
      | Ok doc ->
        let store = Store.create () in
        let dnode = Convert.load store doc in
        let bs = Bs.of_store store dnode in
        Bs.descriptor_count bs > 0)
    | "stream-load" ->
      with_channel file (fun ic ->
          let bs, _ = BL.load (Sax.of_channel ic) in
          Bs.descriptor_count bs > 0)
    | m -> invalid_arg ("e16 child mode " ^ m)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Printf.printf "E16CHILD %s %d %.1f %d %b\n" mode bytes ms (vmhwm_kb ()) ok

type sample = { mode : string; bytes : int; ms : float; hwm_kb : int; ok : bool }

let run_child file mode =
  let out = Filename.temp_file "e16" ".out" in
  let cmd =
    Filename.quote_command Sys.executable_name ~stdout:out [ "--e16-child"; mode; file ]
  in
  let status = Sys.command cmd in
  let line = with_channel out input_line in
  Sys.remove out;
  if status <> 0 then failwith (Printf.sprintf "e16 child %s exited %d" mode status);
  Scanf.sscanf line "E16CHILD %s %d %f %d %b" (fun mode bytes ms hwm_kb ok ->
      { mode; bytes; ms; hwm_kb; ok })

let run ~smoke () =
  let target = if smoke then 20_000_000 else 120_000_000 in
  let file = Filename.temp_file "e16-corpus" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let records = generate file target in
  let size = (Unix.stat file).Unix.st_size in
  Printf.printf "E16: streaming ingest vs tree path (%.1f MB, %d records)\n\n"
    (float_of_int size /. 1e6) records;
  Printf.printf "%-18s %10s %10s %12s\n" "mode" "ms" "MB/s" "peak RSS";
  Printf.printf "%s\n" (String.make 54 '-');
  let samples = List.map (run_child file) modes in
  List.iter
    (fun s ->
      if not s.ok then failwith ("e16: mode " ^ s.mode ^ " failed its run");
      Printf.printf "%-18s %10.0f %10.1f %9.1f MB\n" s.mode s.ms
        (float_of_int s.bytes /. 1e6 /. (s.ms /. 1000.))
        (float_of_int s.hwm_kb /. 1024.))
    samples;
  let hwm m = (List.find (fun s -> s.mode = m) samples).hwm_kb in
  let ratio_v = float_of_int (hwm "tree-validate") /. float_of_int (hwm "stream-validate") in
  let ratio_l = float_of_int (hwm "tree-load") /. float_of_int (hwm "stream-load") in
  Printf.printf "\npeak-RSS ratio tree/stream: validate %.1fx, load %.1fx\n" ratio_v ratio_l;
  if smoke then begin
    (* the CI bound: the streaming validator must hold its O(depth)
       promise even on the small smoke corpus *)
    if ratio_v < 5. then
      failwith
        (Printf.sprintf "E16 smoke: tree/stream validate RSS ratio %.1f below the 5x bound"
           ratio_v);
    print_endline "E16 smoke: memory bound holds"
  end
