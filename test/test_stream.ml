(* The streaming ingest subsystem: SAX lexer, constant-memory
   validator, bulk load.

   - Sax event sequences, positions, entity handling, and invariance
     under chunk boundaries;
   - append_child label laws and Labeler.append_in_document_order;
   - Stream_validator against hand-built cases and, differentially,
     against the tree validator (verdict on random instances,
     first-error path on single-site mutations); the validator core
     against the backtracking matcher on random content models, UPA or
     not;
   - Bulk_load against Convert.load + Block_storage.of_store, and a
     crash-point sweep: kill the WAL after n records, recover, expect
     the root plus exactly the first n top-level subtrees. *)

module Q = QCheck
module Name = Xsm_xml.Name
module Tree = Xsm_xml.Tree
module Parser = Xsm_xml.Parser
module Printer = Xsm_xml.Printer
module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Ast = Xsm_schema.Ast
module Gen = Xsm_schema.Generator
module Validator = Xsm_schema.Validator
module Label = Xsm_numbering.Sedna_label
module Labeler = Xsm_numbering.Labeler
module Bs = Xsm_storage.Block_storage
module Wal = Xsm_persist.Wal
module Sax = Xsm_xml.Sax
module SV = Xsm_stream.Stream_validator
module BL = Xsm_stream.Bulk_load

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let events_of_string ?chunk_size s =
  let sax =
    match chunk_size with
    | None -> Sax.of_string s
    | Some n ->
      let sent = ref 0 in
      Sax.of_function ~chunk_size:n (fun b off len ->
          let k = min len (String.length s - !sent) in
          Bytes.blit_string s !sent b off k;
          sent := !sent + k;
          k)
  in
  let rec go acc =
    match Sax.next sax with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let show_event = function
  | Sax.Start_element n -> "<" ^ Name.to_string n
  | Sax.Attr (n, v) -> Printf.sprintf "@%s=%s" (Name.to_string n) v
  | Sax.Text s | Sax.Cdata s -> Printf.sprintf "%S" s
  | Sax.End_element n -> "</" ^ Name.to_string n
  | Sax.Pi (t, d) -> Printf.sprintf "?%s %s" t d
  | Sax.Comment s -> "!" ^ s

let show_events evs = String.concat " " (List.map show_event evs)

(* ---------------- Sax ---------------- *)

let sax_events () =
  let evs =
    events_of_string
      "<?xml version=\"1.0\"?><!-- pre --><a x=\"1\"><b>hi</b>tail<!--c--><?pi d?></a>"
  in
  check_str "event sequence" "<a @x=1 <b \"hi\" </b \"tail\" !c ?pi d </a" (show_events evs)

let sax_positions () =
  let sax = Sax.of_string "<a>\n  <b attr=\"v\"/>\n</a>" in
  let rec collect acc =
    match Sax.next sax with
    | None -> List.rev acc
    | Some e ->
      let p = Sax.event_position sax in
      collect ((e, p) :: acc)
  in
  let evs = collect [] in
  (match List.assoc_opt (Sax.Start_element (Name.local "b")) evs with
  | Some p ->
    check_int "b line" 2 p.Sax.line;
    check_int "b column" 3 p.Sax.column;
    check_int "b offset" 6 p.Sax.offset
  | None -> Alcotest.fail "no <b> event");
  match List.assoc_opt (Sax.End_element (Name.local "a")) evs with
  | Some p -> check_int "</a> line" 3 p.Sax.line
  | None -> Alcotest.fail "no </a> event"

let sax_entities () =
  let evs =
    events_of_string "<a t=\"x&amp;y\">&lt;&#65;&#x42;<![CDATA[<raw&>]]>&gt;</a>"
  in
  check_str "decoded" "<a @t=x&y \"<AB\" \"<raw&>\" \">\" </a" (show_events evs)

let sax_chunk_invariance () =
  let doc =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE library [<!ELEMENT x y>]>\n\
     <library kind=\"mixed\"><book id=\"b&amp;1\"><title>One &#233; two</title>\n\
     <blurb>pre<!-- gap -->post</blurb></book><![CDATA[]]><empty/> tail </library>\n<!-- after -->"
  in
  let reference = events_of_string doc in
  List.iter
    (fun n ->
      check_str
        (Printf.sprintf "chunk_size %d" n)
        (show_events reference)
        (show_events (events_of_string ~chunk_size:n doc)))
    [ 1; 2; 3; 5; 7; 64 ]

let sax_eol_normalization () =
  (* §2.11 over the streaming lexer: CRLF and bare CR become LF, and
     the answer must not depend on where a refill cuts the input —
     the hard case is "\r\n" split exactly across two chunks, where
     the lexer must remember the pending CR *)
  let doc = "<a>x\r\ny\rz</a>" in
  let reference = events_of_string "<a>x\ny\nz</a>" in
  (* chunk_size 5 ends the first chunk at "<a>x\r": the '\n' opens
     the next chunk and must be absorbed, not doubled *)
  List.iter
    (fun n ->
      check_str
        (Printf.sprintf "chunk_size %d" n)
        (show_events reference)
        (show_events (events_of_string ~chunk_size:n doc)))
    [ 1; 2; 3; 4; 5; 6; 100 ];
  (* a lone CR last in its chunk, followed by a non-LF character *)
  let evs = events_of_string ~chunk_size:5 "<a>x\rY</a>" in
  check_str "pending CR before a non-LF" (show_events (events_of_string "<a>x\nY</a>"))
    (show_events evs);
  (* stream = tree on CRLF input *)
  let crlf = "<a>line1\r\nline2\r\n<b/>\r\n</a>" in
  (match Parser.parse_document crlf with
  | Error e -> Alcotest.failf "tree parse failed: %s" (Parser.error_to_string e)
  | Ok d ->
    check_str "stream agrees with tree on CRLF"
      (show_events (events_of_string (Printer.to_string d)))
      (show_events (events_of_string ~chunk_size:3 crlf)))

let sax_matches_parser () =
  (* the event stream carries the same information the tree parser
     extracts: rebuild the element and compare content *)
  let doc_text =
    Printer.to_string (Xsm_schema.Samples.bookstore_document ~books:5 ())
  in
  let sax = Sax.of_string doc_text in
  let rec build_element name =
    let attrs = ref [] and children = ref [] in
    let rec loop () =
      match Sax.next sax with
      | Some (Sax.Attr (n, v)) ->
        attrs := { Tree.name = n; value = v } :: !attrs;
        loop ()
      | Some (Sax.Text s) ->
        children := Tree.Text s :: !children;
        loop ()
      | Some (Sax.Cdata s) ->
        children := Tree.Cdata s :: !children;
        loop ()
      | Some (Sax.Start_element n) ->
        children := Tree.Element (build_element n) :: !children;
        loop ()
      | Some (Sax.Pi _ | Sax.Comment _) -> loop ()
      | Some (Sax.End_element _) -> ()
      | None -> Alcotest.fail "events ended inside an element"
    in
    loop ();
    { Tree.name; attributes = List.rev !attrs; children = List.rev !children }
  in
  let root =
    match Sax.next sax with
    | Some (Sax.Start_element n) -> build_element n
    | _ -> Alcotest.fail "no root event"
  in
  let reparsed =
    match Parser.parse_document doc_text with Ok d -> d | Error _ -> Alcotest.fail "parse"
  in
  check "event-rebuilt tree =_c parsed tree"
    true
    (Tree.equal_element_content ~ignore_whitespace:false root reparsed.Tree.root)

let expect_syntax what doc f =
  match events_of_string doc with
  | _ -> Alcotest.fail (what ^ ": expected a syntax error")
  | exception Parser.Syntax e -> f e

let sax_errors () =
  expect_syntax "mismatch" "<a><b></a>" (fun e ->
      check "mismatch message" true
        (String.length e.Parser.message > 0
        && String.sub e.Parser.message 0 10 = "mismatched"));
  expect_syntax "dup attr" "<a x=\"1\" x=\"2\"/>" (fun e ->
      check "duplicate attribute" true
        (e.Parser.line = 1 && e.Parser.column > 9));
  expect_syntax "trailing" "<a/><b/>" (fun _ -> ());
  expect_syntax "unterminated" "<a><b>text" (fun _ -> ());
  expect_syntax "unknown entity" "<a>&nosuch;</a>" (fun _ -> ());
  expect_syntax "stray content" "stray" (fun e -> check_int "offset" 0 e.Parser.offset)

(* ---------------- append_child labels ---------------- *)

let label_append_child_laws () =
  let l = Label.append_child Label.root 3 in
  (* order follows the counter, across digit-count boundaries *)
  let indices = [ 0; 1; 2; 251; 252; 253; 254; 1000; 64008; 64009; 70000 ] in
  let labels = List.map (Label.append_child l) indices in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          check
            (Printf.sprintf "order %d vs %d" (List.nth indices i) (List.nth indices j))
            (compare i j < 0)
            (Label.compare a b < 0))
        labels)
    labels;
  List.iter
    (fun c ->
      check "is_parent" true (Label.is_parent l c);
      check "is_ancestor from root" true (Label.is_ancestor Label.root c);
      match Label.of_raw (Label.to_raw c) with
      | Ok c' -> check "of_raw roundtrip" true (Label.equal c c')
      | Error e -> Alcotest.fail ("of_raw rejected an append label: " ^ e))
    labels;
  (* interop with the insertion labeller: between two counter labels *)
  let a = Label.append_child l 7 and b = Label.append_child l 8 in
  let m = Label.between a b in
  check "between a m" true (Label.compare a m < 0 && Label.compare m b < 0)

let labeler_append_in_document_order () =
  let rng = Gen.rng 42 in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  let store = Store.create () in
  let dnode = Convert.load store doc in
  let t = Labeler.append_in_document_order store dnode in
  check "labels agree with the tree" true (Labeler.check_against_tree store dnode t);
  let nodes = Xsm_xdm.Order.nodes_in_order store dnode in
  let labels = List.map (Labeler.label t) nodes in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Label.compare a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  check "label order = document order" true (sorted labels)

(* ---------------- stream validator ---------------- *)

let stream_verdict schema doc =
  SV.run schema (Sax.of_string (Printer.to_string doc))

let tree_verdict schema doc = Validator.validate_document doc schema

let first_path = function
  | [] -> "-"
  | (e : SV.error) :: _ -> e.SV.path

let tree_first_path = function
  | [] -> "-"
  | (e : Validator.error) :: _ -> e.Validator.path

let sv_valid_bookstore () =
  let schema = Xsm_schema.Samples.example7_schema in
  let doc = Xsm_schema.Samples.bookstore_document ~books:4 () in
  match stream_verdict schema doc with
  | Ok stats ->
    check "elements counted" true (stats.SV.elements > 4);
    check_int "no fallback" 0 stats.SV.fallback_steps;
    check "depth" true (stats.SV.max_depth >= 2)
  | Error es -> Alcotest.fail (SV.error_to_string (List.hd es))

let sv_invalid_bookstore () =
  let schema = Xsm_schema.Samples.example7_schema in
  let doc = Xsm_schema.Samples.bookstore_invalid_document () in
  match stream_verdict schema doc, tree_verdict schema doc with
  | Error se, Error te ->
    check_str "same first-error path" (tree_first_path te) (first_path se)
  | Ok _, _ -> Alcotest.fail "stream accepted the invalid bookstore"
  | _, Ok _ -> Alcotest.fail "tree accepted the invalid bookstore"

(* every error class once, with the path the tree validator uses *)
let sv_error_paths () =
  let schema =
    Ast.schema
      ~simple_types:[]
      (Ast.element "root"
         (Ast.Anonymous
            (Ast.complex
               ~attributes:[ Ast.attribute "must" "xs:string" ]
               (Some
                  (Ast.sequence
                     [
                       Ast.elem_p (Ast.element "n" ~nillable:true (Ast.named_type "xs:integer"));
                       Ast.elem_p
                         (Ast.element ~repetition:Ast.optional "s" (Ast.named_type "xs:string"));
                     ])))))
  in
  let run_s text = SV.run schema (Sax.of_string text) in
  let run_t text =
    match Parser.parse_document text with
    | Ok d -> tree_verdict schema d
    | Error _ -> Alcotest.fail "parse"
  in
  let agree what text =
    match run_s text, run_t text with
    | Ok _, Ok _ -> Alcotest.fail (what ^ ": expected invalid")
    | Error se, Error te ->
      Alcotest.(check (list (pair string string)))
        what
        (List.map (fun (e : Validator.error) -> (e.path, e.message)) te)
        (List.map (fun (e : SV.error) -> (e.path, e.message)) se)
    | Ok _, Error _ -> Alcotest.fail (what ^ ": stream accepted, tree rejected")
    | Error _, Ok _ -> Alcotest.fail (what ^ ": stream rejected, tree accepted")
  in
  agree "missing required attribute" "<root><n>1</n></root>";
  agree "undeclared attribute" "<root must=\"x\" extra=\"y\"><n>1</n></root>";
  agree "bad simple content" "<root must=\"x\"><n>one</n></root>";
  agree "wrong child" "<root must=\"x\"><z/></root>";
  agree "incomplete content" "<root must=\"x\"></root>";
  agree "text in element-only content" "<root must=\"x\">words<n>1</n></root>";
  agree "nilled must be empty"
    "<root must=\"x\"><n xsi:nil=\"true\">5</n><s>ok</s></root>";
  agree "nil on non-nillable" "<root must=\"x\"><n>1</n><s xsi:nil=\"true\"/></root>";
  agree "root name mismatch" "<wrong must=\"x\"><n>1</n></wrong>";
  agree "two errors, one-pass order" "<root must=\"x\"><n>x</n><s>a</s><s>b</s></root>"

let sv_nilled_valid () =
  let schema =
    Ast.schema
      (Ast.element "r"
         (Ast.Anonymous
            (Ast.complex
               (Some (Ast.sequence [ Ast.elem_p (Ast.element "n" ~nillable:true (Ast.named_type "xs:integer")) ])))))
  in
  match SV.run schema (Sax.of_string "<r><n xsi:nil=\"true\"/></r>") with
  | Ok _ -> ()
  | Error es -> Alcotest.fail (SV.error_to_string (List.hd es))

let sv_non_upa_fallback () =
  (* (a, b?) | (a, c): non-deterministic on `a`; the tree validator
     refuses, the stream validator answers through the position-set
     fallback, agreeing with the backtracking matcher *)
  let a = Ast.element "a" (Ast.named_type "xs:string") in
  let group =
    Ast.choice
      [
        Ast.group_p
          (Ast.sequence
             [
               Ast.elem_p a;
               Ast.elem_p (Ast.element ~repetition:Ast.optional "b" (Ast.named_type "xs:string"));
             ]);
        Ast.group_p
          (Ast.sequence
             [ Ast.elem_p a; Ast.elem_p (Ast.element "c" (Ast.named_type "xs:string")) ]);
      ]
  in
  let schema = Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some group)))) in
  let cases =
    [
      ("<r><a>x</a></r>", [ "a" ]);
      ("<r><a>x</a><b>y</b></r>", [ "a"; "b" ]);
      ("<r><a>x</a><c>z</c></r>", [ "a"; "c" ]);
      ("<r><a>x</a><b>y</b><c>z</c></r>", [ "a"; "b"; "c" ]);
      ("<r><c>z</c></r>", [ "c" ]);
    ]
  in
  List.iter
    (fun (text, names) ->
      let expected = Xsm_schema.Backtrack.matches group (List.map Name.local names) in
      match SV.run schema (Sax.of_string text) with
      | Ok stats ->
        check ("accept " ^ text) true expected;
        check "fallback used" true (stats.SV.fallback_steps > 0)
      | Error _ -> check ("reject " ^ text) false expected)
    cases;
  (* and the tree validator rejects the schema's content model outright *)
  match
    tree_verdict schema
      (match Parser.parse_document "<r><a>x</a></r>" with
      | Ok d -> d
      | Error _ -> assert false)
  with
  | Ok _ -> Alcotest.fail "tree validator accepted a non-UPA model"
  | Error (e :: _) ->
    check "UPA error" true
      (e.Validator.message = "content model violates Unique Particle Attribution")
  | Error [] -> assert false

(* oracle: one parent over a random content model, UPA or not, and a
   random children word — the core's verdict is the backtracking
   matcher's *)

let core_eq_backtrack_law seed =
  let rng = Gen.rng seed in
  let g = Test_properties.gen_group rng in
  let word =
    List.init (Gen.int rng 7) (fun _ -> Name.local (List.nth [ "a"; "b"; "c" ] (Gen.int rng 3)))
  in
  let core = Validator.create (Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some g))))) in
  Validator.start_element core (Name.local "r");
  List.iter
    (fun n ->
      Validator.start_element core n;
      Validator.end_element core)
    word;
  Validator.end_element core;
  let verdict = Result.is_ok (Validator.finish core) in
  match Xsm_schema.Content_automaton.make g with
  | Error _ -> true (* over the position bound: the core refuses to compile it *)
  | Ok _ ->
    verdict = Xsm_schema.Backtrack.matches g word
    || Q.Test.fail_reportf "core %b on [%s]" verdict
         (String.concat " " (List.map Name.to_string word))

(* differential property: random schema, random instance — the store
   walk and the SAX stream must feed the core the same events *)

let seed_gen = Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000)

let to_alco ?(count = 100) name law =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name seed_gen law)

(* ---------------- SAX chunking law ---------------- *)

(* A random document for the lexer, well-formed or not: long and
   prefixed names, both quote styles, entities and character
   references, CDATA, comments and PIs inside text runs, LF, CR and
   CRLF line ends, a prolog and an epilog; a third of them then take a
   single-site mutation (cut short, a byte replaced or inserted). *)
let sax_doc rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let chance n = Random.State.int rng n = 0 in
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let names =
    [| "a"; "b"; "p:q"; "x-1.y"; "averyveryverylongelementname"; "ns:anotherquitelongname_2";
       "\xc3\xa9t\xc3\xa9" |]
  in
  let eol () = pick [| "\n"; "\r\n"; "\r" |] in
  let bits =
    [| "plain"; " "; "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x42;"; "&#233;";
       "a run of text longer than sixteen bytes"; "'"; "\""; "]]"; "-" |]
  in
  let markup = [| "<![CDATA[ raw <&> ]]>"; "<![CDATA[]]>"; "<!-- note -->"; "<?pi some data?>" |] in
  let space () = if chance 4 then eol () else pick [| " "; "  "; "\t" |] in
  let rec element depth =
    let name = pick names in
    add "<";
    add name;
    (* distinct attribute names (a partial shuffle of the pool), but
       for a rare duplicate *)
    let k = Random.State.int rng 4 in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (Array.length names - i) in
      let n = names.(i) in
      names.(i) <- names.(j);
      names.(j) <- n
    done;
    let attrs = Array.sub names 0 k in
    if k > 1 && chance 16 then attrs.(1) <- attrs.(0);
    Array.iter
      (fun attr ->
        add (space ());
        add attr;
        if chance 3 then add " ";
        add "=";
        if chance 3 then add " ";
        let q = if chance 2 then "\"" else "'" in
        add q;
        for _ = 1 to Random.State.int rng 4 do
          let s = if chance 5 then eol () else pick bits in
          if s <> q then add s
        done;
        add q)
      attrs;
    if chance 4 then add (pick [| "/>"; " />" |])
    else begin
      add ">";
      for _ = 1 to Random.State.int rng 5 do
        match Random.State.int rng 4 with
        | 0 when depth < 3 -> element (depth + 1)
        | 0 | 1 -> add (if chance 3 then eol () else pick bits)
        | 2 -> add (pick markup)
        | _ -> add (pick bits)
      done;
      add "</";
      (* now and then a mismatched end tag, half of them longer
         than the open name and sharing it as a prefix *)
      add (if not (chance 16) then name else if chance 2 then name ^ "z" else pick names);
      if chance 4 then add (space ());
      add ">"
    end
  in
  if chance 2 then (add "<?xml version=\"1.0\"?>"; add (eol ()));
  if chance 3 then add "<!-- prolog -->";
  if chance 3 then add "<?target data?>";
  if chance 4 then add "<!DOCTYPE r [<!ELEMENT r ANY>]>";
  if chance 2 then add (eol ());
  element 0;
  if chance 2 then add (eol ());
  if chance 3 then add "<!-- epilog -->";
  if chance 3 then add "<?end?>";
  if chance 3 then add (eol ());
  let doc = Buffer.contents b in
  let n = String.length doc in
  if not (chance 3) then doc
  else
    let k = Random.State.int rng (n + 1) in
    let c = String.make 1 (pick [| '<'; '>'; '&'; ';'; '"'; '\''; '/'; '='; '!'; '?'; ']'; '-'; '\255'; 'x'; ':'; '\r' |]) in
    match Random.State.int rng 3 with
    | 0 -> String.sub doc 0 k
    | 1 when k < n -> String.sub doc 0 k ^ c ^ String.sub doc (k + 1) (n - k - 1)
    | _ -> String.sub doc 0 k ^ c ^ String.sub doc k (n - k)

(* What a route through the lexer observes: each event with its
   [event_position], the cursor [position] and depth after it, and how
   the input ended — cleanly, or with the full Syntax error. *)
let sax_trace sax =
  let pos (p : Sax.position) = Printf.sprintf "%d:%d@%d" p.line p.column p.offset in
  let rec go acc =
    match Sax.next sax with
    | None -> List.rev ("end" :: acc)
    | Some e ->
      go
        (Printf.sprintf "%s %s %s d%d" (show_event e)
           (pos (Sax.event_position sax))
           (pos (Sax.position sax))
           (Sax.depth sax)
        :: acc)
    | exception Parser.Syntax e ->
      List.rev
        (Printf.sprintf "error %d:%d@%d %s" e.Parser.line e.Parser.column e.Parser.offset
           e.Parser.message
        :: acc)
  in
  go []

(* Every route lexes every document alike: a string, a channel, and
   a chunk source at every chunk size from 1 to 64 — below 16 the
   refill is smaller than the buffer, so long names and runs straddle
   many refills. *)
let sax_chunking_law seed =
  let doc = sax_doc (Random.State.make [| seed |]) in
  let reference = sax_trace (Sax.of_string doc) in
  let same route trace =
    if trace <> reference then
      Q.Test.fail_reportf "document %S, %s:@ %s@ of_string:@ %s" doc route
        (String.concat " | " trace) (String.concat " | " reference)
  in
  for n = 1 to 64 do
    let sent = ref 0 in
    same
      (Printf.sprintf "of_function, chunks of %d" n)
      (sax_trace
         (Sax.of_function ~chunk_size:n (fun b off len ->
              let k = min (min len n) (String.length doc - !sent) in
              Bytes.blit_string doc !sent b off k;
              sent := !sent + k;
              k)))
  done;
  let path = Filename.temp_file "xsm-sax-law" ".xml" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc doc);
      List.iter
        (fun chunk_size ->
          In_channel.with_open_bin path (fun ic ->
              same "of_channel" (sax_trace (Sax.of_channel ?chunk_size ic))))
        [ None; Some 16 ]);
  true

let stream_eq_tree_valid_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  match stream_verdict schema doc, tree_verdict schema doc with
  | Ok _, Ok _ -> true
  | Error es, _ -> Q.Test.fail_reportf "stream rejected: %s" (SV.error_to_string (List.hd es))
  | _, Error es ->
    Q.Test.fail_reportf "tree rejected: %s" (Validator.error_to_string (List.hd es))

(* single-site mutations: verdicts agree, and when both reject, the
   first reported path is the same *)
type mutation = Rename | Duplicate | Delete | Corrupt

let mutate rng mutation (el : Tree.element) =
  (* collect candidate sites: (parent, child index) over element children *)
  let sites = ref [] in
  let rec walk (e : Tree.element) =
    List.iteri
      (fun i c ->
        match c with
        | Tree.Element ce ->
          sites := (e, i) :: !sites;
          walk ce
        | Tree.Text _ | Tree.Cdata _ | Tree.Comment _ | Tree.Pi _ -> ())
      e.Tree.children
  in
  walk el;
  let sites = !sites in
  if sites = [] then None
  else begin
    let target_parent, target_idx = List.nth sites (Gen.int rng (List.length sites)) in
    let rewrite (e : Tree.element) f =
      let rec go (x : Tree.element) : Tree.element =
        if x == e then f x
        else { x with Tree.children = List.map
                 (function Tree.Element c -> Tree.Element (go c) | other -> other)
                 x.Tree.children }
      in
      go el
    in
    match mutation with
    | Rename ->
      Some
        (rewrite target_parent (fun p ->
             { p with
               Tree.children =
                 List.mapi
                   (fun i c ->
                     match c with
                     | Tree.Element ce when i = target_idx ->
                       Tree.Element { ce with Tree.name = Name.local "zzz_undeclared" }
                     | c -> c)
                   p.Tree.children }))
    | Duplicate ->
      Some
        (rewrite target_parent (fun p ->
             { p with
               Tree.children =
                 List.concat_map
                   (fun (i, c) -> if i = target_idx then [ c; c ] else [ c ])
                   (List.mapi (fun i c -> (i, c)) p.Tree.children) }))
    | Delete ->
      Some
        (rewrite target_parent (fun p ->
             { p with
               Tree.children =
                 List.filteri (fun i _ -> i <> target_idx) p.Tree.children }))
    | Corrupt ->
      Some
        (rewrite target_parent (fun p ->
             { p with
               Tree.children =
                 List.mapi
                   (fun i c ->
                     match c with
                     | Tree.Element ce when i = target_idx ->
                       Tree.Element { ce with Tree.children = [ Tree.Text "#corrupt#" ] }
                     | c -> c)
                   p.Tree.children }))
  end

let stream_eq_tree_mutated_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  let mutation =
    match Gen.int rng 4 with 0 -> Rename | 1 -> Duplicate | 2 -> Delete | _ -> Corrupt
  in
  match mutate rng mutation doc.Tree.root with
  | None -> true (* a single-element document: nothing to mutate *)
  | Some root ->
    let doc = { doc with Tree.root = root } in
    (match stream_verdict schema doc, tree_verdict schema doc with
    | Ok _, Ok _ -> true
    | Error se, Error te ->
      let sp = first_path se and tp = tree_first_path te in
      sp = tp || Q.Test.fail_reportf "first-error paths differ: stream %s, tree %s" sp tp
    | Ok _, Error te ->
      Q.Test.fail_reportf "stream accepted what tree rejected: %s"
        (Validator.error_to_string (List.hd te))
    | Error se, Ok _ ->
      Q.Test.fail_reportf "stream rejected what tree accepted: %s"
        (SV.error_to_string (List.hd se)))

(* ---------------- bulk load ---------------- *)

let bulk_of_text ?wal ?on_root text = BL.load ?wal ?on_root (Sax.of_string text)

let reference_storage text =
  let doc = match Parser.parse_document text with Ok d -> d | Error _ -> Alcotest.fail "parse" in
  let store = Store.create () in
  let dnode = Convert.load store doc in
  Bs.of_store store dnode

let bulk_equals_reference text =
  let bs, stats = bulk_of_text text in
  let ref_bs = reference_storage text in
  (match Bs.check_integrity bs with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("integrity: " ^ e));
  check_int "descriptor count" (Bs.descriptor_count ref_bs) (Bs.descriptor_count bs);
  check "content equal" true
    (Tree.equal_content ~ignore_whitespace:false (Bs.to_document ref_bs) (Bs.to_document bs));
  stats

let bulk_load_simple () =
  let stats =
    bulk_equals_reference
      "<lib k=\"v\"><b id=\"1\"><t>One</t>mid<u/>end</b><b id=\"2\">pre<!-- c -->post</b></lib>"
  in
  check_int "elements" 5 stats.BL.elements;
  check_int "attributes" 3 stats.BL.attributes;
  (* "pre<!-- c -->post" is ONE logical text node, as Convert merges it *)
  check_int "texts" 4 stats.BL.texts;
  check_int "depth" 3 stats.BL.max_depth

let bulk_load_random_law seed =
  let rng = Gen.rng seed in
  let schema = Gen.random_schema ~max_depth:3 rng in
  let doc = Gen.instance rng schema in
  ignore (bulk_equals_reference (Printer.to_string doc));
  true

let bulk_load_small_blocks () =
  let text = Printer.to_string (Xsm_schema.Samples.library_document ~books:20 ~papers:20 ()) in
  let bs, _ = BL.load ~block_capacity:4 (Sax.of_string text) in
  (match Bs.check_integrity bs with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("integrity: " ^ e));
  check "many blocks" true (Bs.block_count bs > 10);
  check "content equal" true
    (Tree.equal_content ~ignore_whitespace:false
       (Bs.to_document (reference_storage text))
       (Bs.to_document bs))

let bulk_drain_completed () =
  let text = "<r><a/>t1<b><c/></b>t2<d/></r>" in
  let bl = BL.create () in
  let sax = Sax.of_string text in
  let drained = ref [] in
  let rec loop () =
    match Sax.next sax with
    | None -> ()
    | Some ev ->
      BL.feed bl ev;
      drained := !drained @ BL.drain_completed bl;
      loop ()
  in
  loop ();
  ignore (BL.finish bl);
  (* top-level children only: a, t1, b (not c), t2, d *)
  check_int "completed top-level nodes" 5 (List.length !drained);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Label.compare (Bs.nid a) (Bs.nid b) < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  check "drained in document order" true (sorted !drained)

(* The memory a bulk load keeps per descriptor, on the record corpus
   of the ingest benchmark: <doc> holding <rec id="..."> records of
   five <kN> fields with one text each.  Links share each node's one
   option box and first-child-by-schema is a chain of mutable cells,
   so a descriptor holds its fields, its label and its value and
   little else; 25 words is the ceiling. *)
let bulk_words_per_descriptor () =
  let records = 2000 in
  let b = Buffer.create (records * 200) in
  Buffer.add_string b "<doc>";
  for i = 1 to records do
    Printf.bprintf b "<rec id=\"r%d\">" i;
    for k = 0 to 4 do
      let w j = Printf.sprintf "w%06x" (((i * 7919) + (k * 104729) + j) land 0xFFFFFF) in
      Printf.bprintf b "<k%d>%s %s %s %s</k%d>" k (w 0) (w 1) (w 2) (w 3) k
    done;
    Buffer.add_string b "</rec>"
  done;
  Buffer.add_string b "</doc>";
  let bs, _ = bulk_of_text (Buffer.contents b) in
  check_int "descriptors" (2 + (records * 12)) (Bs.descriptor_count bs);
  let per_desc =
    float_of_int (Obj.reachable_words (Obj.repr bs)) /. float_of_int (Bs.descriptor_count bs)
  in
  if per_desc > 25. then Alcotest.failf "%.2f reachable words per descriptor, ceiling 25" per_desc

(* crash sweep: load with a WAL crash injected after n records; recovery
   must yield the root plus exactly the first n top-level subtrees *)
let bulk_crash_sweep () =
  let sections = 5 in
  let doc =
    Tree.document
      (Tree.elem "log"
         ~attrs:[ Tree.attr "v" "1" ]
         ~children:
           (List.init sections (fun i ->
                Tree.Element
                  (Tree.elem "entry"
                     ~attrs:[ Tree.attr "n" (string_of_int i) ]
                     ~children:[ Tree.Text (Printf.sprintf "payload %d" i) ]))))
  in
  let text = Printer.to_string doc in
  let tmp = Filename.temp_file "xsm-stream-crash" "" in
  let wal_path = tmp ^ ".wal" and snap_path = tmp ^ ".snap" in
  let cleanup () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ tmp; wal_path; snap_path ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  for n = 0 to sections do
    List.iter
      (fun partial_bytes ->
        if Sys.file_exists wal_path then Sys.remove wal_path;
        if Sys.file_exists snap_path then Sys.remove snap_path;
        let wal =
          let crash =
            { Wal.after_records = n; partial_bytes; fsync_fails = false; before_fsync = ignore }
          in
          match Wal.Writer.create ~crash wal_path with
          | Ok w -> w
          | Error e -> Alcotest.fail (Wal.error_message e)
        in
        let on_root root_elem =
          let store = Store.create () in
          let dnode = Convert.load store (Tree.document root_elem) in
          match Xsm_persist.Snapshot.save ~path:snap_path store dnode with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e
        in
        let crashed =
          match bulk_of_text ~wal ~on_root text with
          | _ -> false
          | exception Wal.Crashed -> true
        in
        check (Printf.sprintf "crash fires (n=%d)" n) (n <= sections) crashed;
        (match Wal.Writer.close wal with () -> () | exception _ -> ());
        match Xsm_persist.Recovery.recover ~snapshot:snap_path ~wal:wal_path () with
        | Error e -> Alcotest.fail (Xsm_persist.Recovery.error_message e)
        | Ok (store, root, _labels, stats) ->
          check_int (Printf.sprintf "replayed records (n=%d)" n) n stats.Xsm_persist.Recovery.replayed;
          let expected =
            {
              doc with
              Tree.root =
                {
                  doc.Tree.root with
                  Tree.children =
                    List.filteri (fun i _ -> i < n) doc.Tree.root.Tree.children;
                };
            }
          in
          check
            (Printf.sprintf "prefix recovered (n=%d, partial=%d)" n partial_bytes)
            true
            (Tree.equal_content ~ignore_whitespace:false expected
               (Convert.to_document store root)))
      [ 0; 3 ]
  done

(* ---------------- WAL records printed from events ---------------- *)

(* Bulk load prints each top-level subtree's record as its events
   arrive.  The law: the log it writes is, byte for byte, the records
   [Wal.encode_record] makes from the parsed document's top-level
   children (§8-normalized: comments and PIs dropped, CDATA and
   adjacent runs merged), then the closing sync point. *)
let wal_pieces = [| "a"; "&"; "<"; ">"; "\""; "'"; "\n"; "\t"; "\r"; " "; "x y"; "\r\n" |]

let wal_chars r =
  String.concat "" (List.init (Gen.int r 4) (fun _ -> wal_pieces.(Gen.int r (Array.length wal_pieces))))

(* a text run as markup: escaped or CDATA pieces, sometimes split by a
   comment or a PI *)
let wal_add_text r buf =
  for _ = 0 to Gen.int r 3 do
    (match Gen.int r 3 with
    | 0 -> Buffer.add_string buf "<!--split-->"
    | 1 -> Buffer.add_string buf "<?pi split?>"
    | _ -> ());
    let s = wal_chars r in
    if Gen.int r 4 = 0 then Buffer.add_string buf ("<![CDATA[" ^ s ^ "]]>")
    else Buffer.add_string buf (Printer.escape_text s)
  done

let rec wal_add_element r buf depth =
  let name = Printf.sprintf "e%d" (Gen.int r 3) in
  Buffer.add_string buf ("<" ^ name);
  for i = 0 to Gen.int r 3 - 1 do
    Buffer.add_string buf (Printf.sprintf " a%d=\"%s\"" i (Printer.escape_attribute (wal_chars r)))
  done;
  match Gen.int r 4 with
  | 0 -> Buffer.add_string buf "/>"
  | 1 -> Buffer.add_string buf ("></" ^ name ^ ">")
  | _ ->
    Buffer.add_char buf '>';
    for _ = 0 to Gen.int r 4 - 1 do
      if depth > 0 && Gen.int r 2 = 0 then wal_add_element r buf (depth - 1) else wal_add_text r buf
    done;
    Buffer.add_string buf ("</" ^ name ^ ">")

(* §8 normalization of a parsed element *)
let rec wal_normalize (e : Tree.element) =
  let rec merge acc = function
    | [] -> List.rev acc
    | (Tree.Comment _ | Tree.Pi _) :: rest -> merge acc rest
    | (Tree.Text s | Tree.Cdata s) :: rest -> (
      match acc with
      | Tree.Text prev :: acc' -> merge (Tree.Text (prev ^ s) :: acc') rest
      | _ -> merge (Tree.Text s :: acc) rest)
    | Tree.Element c :: rest -> merge (Tree.Element (wal_normalize c) :: acc) rest
  in
  let children = List.filter (function Tree.Text "" -> false | _ -> true) (merge [] e.children) in
  { e with children }

let wal_records_printed_from_events_law seed =
  let r = Gen.rng seed in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<root r=\"1\">";
  for _ = 0 to Gen.int r 6 do
    if Gen.int r 3 = 0 then wal_add_text r buf else wal_add_element r buf 3
  done;
  Buffer.add_string buf "</root>";
  let text = Buffer.contents buf in
  let root =
    match Parser.parse_document text with
    | Ok d -> wal_normalize d.Tree.root
    | Error e -> Alcotest.failf "generated document does not parse: %s" (Parser.error_to_string e)
  in
  let expected =
    String.concat ""
      (List.mapi
         (fun index -> function
           | Tree.Element fragment ->
             Wal.encode_record (Wal.Op (Wal.Insert_element { parent = [ 0 ]; index; fragment }))
           | Tree.Text text ->
             Wal.encode_record (Wal.Op (Wal.Insert_text { parent = [ 0 ]; index; text }))
           | Tree.Cdata _ | Tree.Comment _ | Tree.Pi _ -> assert false)
         root.Tree.children)
    ^ Wal.encode_record Wal.Sync_point
  in
  let wal_path = Filename.temp_file "xsm-stream-wal" ".wal" in
  Fun.protect ~finally:(fun () -> Sys.remove wal_path) @@ fun () ->
  let wal =
    match Wal.Writer.create wal_path with Ok w -> w | Error e -> Alcotest.fail (Wal.error_message e)
  in
  ignore (bulk_of_text ~wal text);
  Wal.Writer.close wal;
  let logged = In_channel.with_open_bin wal_path In_channel.input_all in
  (* past the 8-byte file magic *)
  let body = String.sub logged 8 (String.length logged - 8) in
  if body <> expected then
    Q.Test.fail_reportf "document %S:@ logged %S@ expected %S" text body expected;
  true

let suite =
  [
    ( "stream.sax",
      [
        Alcotest.test_case "event sequence" `Quick sax_events;
        Alcotest.test_case "positions" `Quick sax_positions;
        Alcotest.test_case "entities and CDATA" `Quick sax_entities;
        Alcotest.test_case "chunk-boundary invariance" `Quick sax_chunk_invariance;
        Alcotest.test_case "EOL normalization across chunks" `Quick sax_eol_normalization;
        Alcotest.test_case "events rebuild the parsed tree" `Quick sax_matches_parser;
        Alcotest.test_case "well-formedness errors" `Quick sax_errors;
        to_alco ~count:300 "every route lexes alike: events, positions, errors"
          sax_chunking_law;
      ] );
    ( "stream.labels",
      [
        Alcotest.test_case "append_child laws" `Quick label_append_child_laws;
        Alcotest.test_case "append_in_document_order" `Quick labeler_append_in_document_order;
      ] );
    ( "stream.validate",
      [
        Alcotest.test_case "valid bookstore" `Quick sv_valid_bookstore;
        Alcotest.test_case "invalid bookstore, same path" `Quick sv_invalid_bookstore;
        Alcotest.test_case "error classes, same paths" `Quick sv_error_paths;
        Alcotest.test_case "nilled element accepted" `Quick sv_nilled_valid;
        Alcotest.test_case "non-UPA fallback = backtracking" `Quick sv_non_upa_fallback;
        to_alco "stream = tree on random valid instances" stream_eq_tree_valid_law;
        to_alco "stream = tree on single-site mutations" stream_eq_tree_mutated_law;
        to_alco ~count:300 "core = backtracking on random content models" core_eq_backtrack_law;
      ] );
    ( "stream.load",
      [
        Alcotest.test_case "load = of_store (hand case)" `Quick bulk_load_simple;
        Alcotest.test_case "load = of_store (small blocks)" `Quick bulk_load_small_blocks;
        Alcotest.test_case "drain_completed" `Quick bulk_drain_completed;
        Alcotest.test_case "at most 25 words per descriptor" `Quick bulk_words_per_descriptor;
        to_alco ~count:50 "load = of_store (random instances)" bulk_load_random_law;
        Alcotest.test_case "crash-point sweep" `Quick bulk_crash_sweep;
        to_alco ~count:200 "WAL records = encode_record of the parsed subtrees"
          wal_records_printed_from_events_law;
      ] );
  ]
