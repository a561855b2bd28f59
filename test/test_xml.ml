(* Tests for xsm_xml: names, trees, parser, printer, content equality. *)

open Xsm_xml

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let parse_ok s =
  match Parser.parse_document s with
  | Ok d -> d
  | Error e -> Alcotest.failf "parse failed: %s" (Parser.error_to_string e)

let parse_err s =
  match Parser.parse_document s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error e -> e

(* ---------------- names ---------------- *)

let test_name_parse () =
  (match Name.of_string "xsd:element" with
  | Ok n ->
    Alcotest.(check (option string)) "prefix" (Some "xsd") n.Name.prefix;
    check_str "local" "element" n.Name.local
  | Error e -> Alcotest.fail e);
  (match Name.of_string "Book" with
  | Ok n -> check "no prefix" true (n.Name.prefix = None)
  | Error e -> Alcotest.fail e)

let test_name_invalid () =
  List.iter
    (fun s -> check ("reject " ^ s) true (Result.is_error (Name.of_string s)))
    [ ""; ":x"; "x:"; "a:b:c"; "1abc"; "with space"; "-dash" ]

let test_name_order () =
  let a = Name.of_string_exn "a" and b = Name.of_string_exn "b" in
  check "a < b" true (Name.compare a b < 0);
  let pa = Name.of_string_exn "p:a" in
  check "a <> p:a" false (Name.equal a pa);
  check_str "to_string" "p:a" (Name.to_string pa)

let test_ncname () =
  check "simple" true (Name.is_ncname "abc-1.x_y");
  check "colon" false (Name.is_ncname "a:b");
  check "empty" false (Name.is_ncname "");
  check "digit start" false (Name.is_ncname "1a")

(* ---------------- trees ---------------- *)

let sample_tree () =
  Tree.elem "library"
    ~children:
      [
        Tree.element
          (Tree.elem "book"
             ~attrs:[ Tree.attr "id" "b1" ]
             ~children:[ Tree.element (Tree.elem "title" ~children:[ Tree.text "T1" ]) ]);
        Tree.element
          (Tree.elem "book"
             ~attrs:[ Tree.attr "id" "b2" ]
             ~children:
               [
                 Tree.element (Tree.elem "title" ~children:[ Tree.text "T2" ]);
                 Tree.element (Tree.elem "author" ~children:[ Tree.text "A" ]);
               ]);
      ]

let test_tree_observers () =
  let t = sample_tree () in
  check_int "child elements" 2 (List.length (Tree.child_elements t));
  check_int "books" 2 (List.length (Tree.child_elements_named t (Name.local "book")));
  check_int "papers" 0 (List.length (Tree.child_elements_named t (Name.local "paper")));
  check_str "text content" "T1T2A" (Tree.text_content t);
  check_int "depth" 3 (Tree.depth t);
  (* 6 elements + 2 attributes + 3 texts *)
  check_int "node count" 11 (Tree.node_count t);
  match Tree.first_child_named t (Name.local "book") with
  | Some b -> check "attr" true (Tree.attribute_value b (Name.local "id") = Some "b1")
  | None -> Alcotest.fail "book not found"

let test_fold_elements () =
  let t = sample_tree () in
  let names = List.rev (Tree.fold_elements (fun acc e -> Name.to_string e.Tree.name :: acc) [] t) in
  Alcotest.(check (list string)) "pre-order" [ "library"; "book"; "title"; "book"; "title"; "author" ] names

(* ---------------- parser ---------------- *)

let test_parse_basic () =
  let d = parse_ok "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a b=\"1\"><c/>text</a>" in
  check_str "version" "1.0" d.Tree.version;
  Alcotest.(check (option string)) "encoding" (Some "UTF-8") d.Tree.encoding;
  check_str "root" "a" (Name.to_string d.Tree.root.Tree.name);
  check_int "children" 2 (List.length d.Tree.root.Tree.children)

let test_parse_entities () =
  let d = parse_ok "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>" in
  check_str "entities" "<>&'\"AB" (Tree.text_content d.Tree.root)

let test_parse_cdata_comment_pi () =
  let d = parse_ok "<a><![CDATA[<raw>&]]><!-- note --><?pi data?>tail</a>" in
  match d.Tree.root.Tree.children with
  | [ Tree.Cdata c; Tree.Comment m; Tree.Pi { target; data }; Tree.Text t ] ->
    check_str "cdata" "<raw>&" c;
    check_str "comment" " note " m;
    check_str "pi target" "pi" target;
    check_str "pi data" "data" data;
    check_str "tail" "tail" t
  | _ -> Alcotest.fail "unexpected child structure"

let test_parse_doctype_skipped () =
  let d = parse_ok "<?xml version=\"1.0\"?><!DOCTYPE note [<!ELEMENT note ANY>]><note/>" in
  check_str "root" "note" (Name.to_string d.Tree.root.Tree.name)

let test_parse_attribute_quotes () =
  let d = parse_ok "<a x='single' y=\"double\" z='with \"quotes\"'/>" in
  let v n = Tree.attribute_value d.Tree.root (Name.local n) in
  Alcotest.(check (option string)) "single" (Some "single") (v "x");
  Alcotest.(check (option string)) "double" (Some "double") (v "y");
  Alcotest.(check (option string)) "nested" (Some "with \"quotes\"") (v "z")

let test_parse_errors () =
  List.iter
    (fun (s, (line, column, offset, message)) ->
      let e = parse_err s in
      Alcotest.(check (pair (pair int int) (pair int string)))
        (Printf.sprintf "error record of %S" s)
        ((line, column), (offset, message))
        ((e.Parser.line, e.Parser.column), (e.Parser.offset, e.Parser.message)))
    [
      ("<a>", (1, 4, 3, "unterminated element a"));
      ("<a></b>", (1, 8, 7, "mismatched end tag: expected </a>, found </b>"));
      ("<a x=\"1\" x=\"2\"/>", (1, 15, 14, "duplicate attribute x"));
      ("<a/><b/>", (1, 5, 4, "trailing content after root element"));
      ("<a>&unknown;</a>", (1, 13, 12, "unknown entity &unknown;"));
      ("<a b=unquoted/>", (1, 6, 5, "expected quoted attribute value"));
      ("", (1, 1, 0, "expected root element"));
      ("just text", (1, 1, 0, "expected root element"));
      ("<a><!-- unterminated</a>", (1, 25, 24, "unterminated comment"));
    ]

let test_parse_error_location () =
  let e = parse_err "<a>\n  <b>\n</a>" in
  check "line recorded" true (e.Parser.line >= 2)

let test_deep_nesting () =
  let n = 2000 in
  let buf = Buffer.create (n * 7) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "<e%d>" i)
  done;
  for i = n - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "</e%d>" i)
  done;
  let d = parse_ok (Buffer.contents buf) in
  check_int "depth" n (Tree.depth d.Tree.root)

let test_mixed_whitespace_kept () =
  let d = parse_ok "<a> <b/> </a>" in
  check_int "three children" 3 (List.length d.Tree.root.Tree.children)

(* the outcome of draining the streaming lexer over [s] *)
let sax_outcome s =
  let sax = Sax.of_string s in
  let rec drain () = match Sax.next sax with None -> Ok () | Some _ -> drain () in
  match drain () with r -> r | exception Sax.Syntax e -> Error e

let show_outcome = function
  | Ok () -> "ok"
  | Error (e : Parser.error) ->
    Printf.sprintf "%d:%d@%d %s" e.line e.column e.offset e.message

(* the tree builder and the lexer answer [s] alike *)
let both_paths s =
  let tree = Result.map ignore (Parser.parse_document s) in
  check_str (Printf.sprintf "tree = stream on %S" s) (show_outcome (sax_outcome s))
    (show_outcome tree);
  tree

let expect_rejected message s =
  match both_paths s with
  | Ok () -> Alcotest.failf "expected %S to be rejected" s
  | Error e -> check_str (Printf.sprintf "message for %S" s) message e.Parser.message

let test_truncated_declaration () =
  List.iter
    (fun s ->
      check (Printf.sprintf "parse_document %S" s) true (Result.is_error (Parser.parse_document s));
      check (Printf.sprintf "parse_element %S" s) true (Result.is_error (Parser.parse_element s));
      ignore (both_paths s))
    [ "<?xml"; "<?xml "; "<?xml v" ]

let test_second_doctype () =
  expect_rejected "second DOCTYPE declaration" "<!DOCTYPE a><!DOCTYPE a><a/>";
  expect_rejected "second DOCTYPE declaration" "<!DOCTYPE a [<!ELEMENT a ANY>]>\n<!-- c --><!DOCTYPE a><a/>"

let test_standalone_values () =
  expect_rejected "bad standalone value \"maybe\""
    "<?xml version=\"1.0\" standalone=\"maybe\"?><a/>";
  List.iter
    (fun (v, expected) ->
      let s = Printf.sprintf "<?xml version=\"1.0\" standalone='%s'?><a/>" v in
      Alcotest.(check (option bool)) ("standalone " ^ v) expected (parse_ok s).Tree.standalone;
      ignore (both_paths s))
    [ ("yes", Some true); ("no", Some false) ]

let test_reserved_pi_target () =
  List.iter
    (fun (target, s) ->
      expect_rejected (Printf.sprintf "reserved processing-instruction target %S" target) s)
    [
      ("xml", " <?xml version='1.0'?><a/>");
      ("xml", "<a/>\n<?xml version='1.0'?>");
      ("xml", "<!-- c --><?xml version='1.0'?><a/>");
      ("XML", "<a><?XML x?></a>");
      ("xMl", "<?xMl version='1.0'?><a/>");
      ("xml", "<?xml?><a/>");
    ]

let test_xml_stylesheet_pi () =
  let s = "<?xml-stylesheet href=\"a\"?><a/>" in
  check "accepted on both paths" true (both_paths s = Ok ());
  let d = parse_ok "<?xml version=\"1.0\"?>\n<?xml-stylesheet href=\"a\"?>\n<a><?xml-model m?></a>" in
  match d.Tree.root.Tree.children with
  | [ Tree.Pi { target = "xml-model"; data = "m" } ] -> ()
  | _ -> Alcotest.fail "expected the xml-model PI child"

let test_empty_pi_target () =
  List.iter (expect_rejected "empty processing-instruction target") [ "<? x?><a/>"; "<a><?"; "<a><??></a>" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* every prefix of a sample document: the tree builder and the lexer
   agree on success, or on the whole error record *)
let test_prefixes_one_answer () =
  List.iter
    (fun path ->
      let doc = read_file path in
      for k = 0 to String.length doc do
        let p = String.sub doc 0 k in
        let tree = Result.map ignore (Parser.parse_document p) and sax = sax_outcome p in
        if tree <> sax then
          Alcotest.failf "%s, prefix of %d bytes: tree %s, stream %s" path k (show_outcome tree)
            (show_outcome sax)
      done)
    [ "../samples/library.xml"; "../examples/catalog.xml" ]

(* ---------------- printer ---------------- *)

let test_escape () =
  check_str "text" "a&lt;b&gt;c&amp;d" (Printer.escape_text "a<b>c&d");
  check_str "attr quote" "say &quot;hi&quot;" (Printer.escape_attribute "say \"hi\"")

let test_print_parse_roundtrip () =
  let t = sample_tree () in
  let s = Printer.element_to_string t in
  match Parser.parse_element s with
  | Ok t' -> check "structural equality" true (Tree.equal_element t t')
  | Error e -> Alcotest.failf "reparse failed: %s" (Parser.error_to_string e)

let test_print_special_chars () =
  let t = Tree.elem "a" ~attrs:[ Tree.attr "k" "<&\">" ] ~children:[ Tree.text "<&>" ] in
  match Parser.parse_element (Printer.element_to_string t) with
  | Ok t' -> check "roundtrip with escapes" true (Tree.equal_element t t')
  | Error e -> Alcotest.failf "reparse failed: %s" (Parser.error_to_string e)

let test_pretty_print_reparses () =
  let t = sample_tree () in
  let s = Printer.element_to_pretty_string t in
  match Parser.parse_element s with
  | Ok t' -> check "content equal" true (Tree.equal_element_content t t')
  | Error e -> Alcotest.failf "reparse failed: %s" (Parser.error_to_string e)

(* ---------------- end-of-line normalization (§2.11) ---------------- *)

let test_eol_normalize_function () =
  let text s =
    match (parse_ok ("<a>" ^ s ^ "</a>")).Tree.root.Tree.children with
    | [ Tree.Text t ] -> t
    | _ -> Alcotest.failf "expected one text child in %S" s
  in
  check_str "CRLF, lone CR, trailing CR" "a\nb\nc\nd\n" (text "a\r\nb\rc\nd\r");
  check_str "CR CRLF" "a\n\nb" (text "a\r\r\nb");
  check_str "identity without CR" "plain\ntext" (text "plain\ntext")

let test_eol_normalized_in_documents () =
  let lf = parse_ok "<a>x\ny</a>\n" in
  check "CRLF input" true
    (Tree.equal_content ~ignore_whitespace:false lf (parse_ok "<a>x\r\ny</a>\r\n"));
  check "CR input" true
    (Tree.equal_content ~ignore_whitespace:false lf (parse_ok "<a>x\ry</a>\r"))

let test_eol_charref_cr_survives () =
  (* §2.11 normalizes literal line breaks {e before} reference
     expansion: an author writing [&#13;] asked for a carriage return
     and must keep it *)
  let d = parse_ok "<a>x&#13;y</a>" in
  match d.Tree.root.Tree.children with
  | [ Tree.Text t ] -> check_str "literal CR kept" "x\ry" t
  | _ -> Alcotest.fail "expected one text child"

let test_print_cr_roundtrips () =
  (* the printer must emit [&#13;] for a CR, or the reparse would
     §2.11-normalize it into a newline *)
  let t = Tree.elem "a" ~attrs:[ Tree.attr "k" "p\rq" ] ~children:[ Tree.text "x\ry" ] in
  let s = Printer.element_to_string t in
  check "no raw CR in output" true (not (String.contains s '\r'));
  match Parser.parse_element s with
  | Ok t' -> check "CR survives print/parse" true (Tree.equal_element t t')
  | Error e -> Alcotest.failf "reparse failed: %s" (Parser.error_to_string e)

(* ---------------- print-parse law ---------------- *)

(* A random document the printer can write: CDATA (empty too),
   comments, PIs, attribute values with both quote characters,
   characters that print as references, CR in text and attribute
   values; never two adjacent text nodes, never an empty one. *)
let random_document rng =
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let string ?(first = [||]) pieces max =
    let b = Buffer.create 16 in
    if first <> [||] then Buffer.add_string b (pick first);
    for _ = 1 to int (max + 1) do
      Buffer.add_string b (pick pieces)
    done;
    Buffer.contents b
  in
  let text_pieces = [| "a"; "b"; " "; "<"; ">"; "&"; "\""; "'"; "\r"; "\n"; "\t"; "\xc3\xa9"; "]]>" |] in
  (* no '>' and no CR: a section ends at its first terminator, and a
     raw CR would be read back as a newline *)
  let raw_pieces = [| "a"; " "; "<"; "&"; "-"; "]"; "?"; "\""; "\n"; "\xc3\xa9" |] in
  let rec element depth =
    let attributes =
      List.filter_map
        (fun (prefix, n) ->
          if int 3 = 0 then Some (Tree.attr ?prefix n (string text_pieces 4)) else None)
        [ (None, "x"); (None, "y"); (Some "p", "x") ]
    in
    let rec children prev_text k =
      if k = 0 then []
      else
        let node =
          match int (if depth >= 3 then 5 else 6) with
          | 0 when not prev_text -> Tree.Text (string ~first:text_pieces text_pieces 5)
          | 0 | 1 -> Tree.Cdata (string raw_pieces (int 2 * 4))
          | 2 -> Tree.Comment (string raw_pieces 4)
          | 3 ->
            let data = if int 2 = 0 then "" else string ~first:[| "d"; "&" |] raw_pieces 4 in
            Tree.Pi { target = pick [| "pi"; "xml-stylesheet"; "t:x" |]; data }
          | 4 when not prev_text -> Tree.Text (string ~first:text_pieces text_pieces 5)
          | _ -> Tree.Element (element (depth + 1))
        in
        node :: children (match node with Tree.Text _ -> true | _ -> false) (k - 1)
    in
    Tree.elem_n
      (Name.of_string_exn (pick [| "a"; "b"; "p:q"; "long-name.x" |]))
      ~attrs:attributes
      ~children:(children false (int 5))
  in
  let version = pick [| "1.0"; "1.1" |] in
  let encoding = pick [| None; Some "UTF-8"; Some "ISO-8859-1" |] in
  let standalone = pick [| None; Some true; Some false |] in
  { (Tree.document (element 0)) with Tree.version; encoding; standalone }

let print_parse_law seed =
  let d = random_document (Random.State.make [| seed |]) in
  let text = Printer.to_string d in
  match Parser.parse_document text with
  | Error e -> QCheck.Test.fail_reportf "%S: %s" text (Parser.error_to_string e)
  | Ok d' ->
    Tree.equal_element d.Tree.root d'.Tree.root
    && d.Tree.version = d'.Tree.version
    && d.Tree.encoding = d'.Tree.encoding
    && d.Tree.standalone = d'.Tree.standalone
    || QCheck.Test.fail_reportf "%S reparses differently" text

(* ---------------- content equality ---------------- *)

let test_content_equality_comments () =
  let a = parse_ok "<a><b/><!-- x --><b/></a>" in
  let b = parse_ok "<a><b/><b/></a>" in
  check "comments ignored" true (Tree.equal_content a b)

let test_content_equality_attr_order () =
  let a = parse_ok "<a x=\"1\" y=\"2\"/>" in
  let b = parse_ok "<a y=\"2\" x=\"1\"/>" in
  check "attribute order irrelevant" true (Tree.equal_content a b)

let test_content_equality_ws () =
  let a = parse_ok "<a>\n  <b/>\n</a>" in
  let b = parse_ok "<a><b/></a>" in
  check "ignorable whitespace" true (Tree.equal_content a b);
  check "strict keeps it" false (Tree.equal_content ~ignore_whitespace:false a b)

let test_content_equality_text_matters () =
  let a = parse_ok "<a>hello</a>" in
  let b = parse_ok "<a>world</a>" in
  check "text compared" false (Tree.equal_content a b)

let test_content_equality_merges_adjacent () =
  let a = parse_ok "<a>one<![CDATA[ two]]></a>" in
  let b = parse_ok "<a>one two</a>" in
  check "cdata merged with text" true (Tree.equal_content a b)

let suite =
  [
    ( "xml.name",
      [
        Alcotest.test_case "parse" `Quick test_name_parse;
        Alcotest.test_case "invalid" `Quick test_name_invalid;
        Alcotest.test_case "order" `Quick test_name_order;
        Alcotest.test_case "ncname" `Quick test_ncname;
      ] );
    ( "xml.tree",
      [
        Alcotest.test_case "observers" `Quick test_tree_observers;
        Alcotest.test_case "fold" `Quick test_fold_elements;
      ] );
    ( "xml.parser",
      [
        Alcotest.test_case "basic" `Quick test_parse_basic;
        Alcotest.test_case "entities" `Quick test_parse_entities;
        Alcotest.test_case "cdata/comment/pi" `Quick test_parse_cdata_comment_pi;
        Alcotest.test_case "doctype" `Quick test_parse_doctype_skipped;
        Alcotest.test_case "attribute quotes" `Quick test_parse_attribute_quotes;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "error location" `Quick test_parse_error_location;
        Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        Alcotest.test_case "whitespace kept" `Quick test_mixed_whitespace_kept;
        Alcotest.test_case "truncated declaration" `Quick test_truncated_declaration;
        Alcotest.test_case "second DOCTYPE" `Quick test_second_doctype;
        Alcotest.test_case "standalone yes/no" `Quick test_standalone_values;
        Alcotest.test_case "reserved PI target" `Quick test_reserved_pi_target;
        Alcotest.test_case "xml-stylesheet PI" `Quick test_xml_stylesheet_pi;
        Alcotest.test_case "empty PI target" `Quick test_empty_pi_target;
        Alcotest.test_case "every prefix: tree = stream" `Quick test_prefixes_one_answer;
      ] );
    ( "xml.printer",
      [
        Alcotest.test_case "escape" `Quick test_escape;
        Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
        Alcotest.test_case "special chars" `Quick test_print_special_chars;
        Alcotest.test_case "pretty reparses" `Quick test_pretty_print_reparses;
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:300 ~name:"parse (print d) = d"
             (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
             print_parse_law);
      ] );
    ( "xml.eol",
      [
        Alcotest.test_case "normalize_eol" `Quick test_eol_normalize_function;
        Alcotest.test_case "CRLF/CR parse alike" `Quick test_eol_normalized_in_documents;
        Alcotest.test_case "&#13; stays a CR" `Quick test_eol_charref_cr_survives;
        Alcotest.test_case "CR print/parse roundtrip" `Quick test_print_cr_roundtrips;
      ] );
    ( "xml.content-equality",
      [
        Alcotest.test_case "comments ignored" `Quick test_content_equality_comments;
        Alcotest.test_case "attr order" `Quick test_content_equality_attr_order;
        Alcotest.test_case "whitespace" `Quick test_content_equality_ws;
        Alcotest.test_case "text matters" `Quick test_content_equality_text_matters;
        Alcotest.test_case "adjacent text" `Quick test_content_equality_merges_adjacent;
      ] );
  ]
