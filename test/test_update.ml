(* Tests for the data-manipulation layer (Update): state transitions,
   inverses, and schema-safe application with rollback. *)

open Xsm_schema
module Store = Xsm_xdm.Store
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let setup () =
  let doc = Samples.bookstore_document ~books:3 () in
  match Validator.validate_document doc Samples.example7_schema with
  | Ok (store, dnode) -> (store, dnode)
  | Error _ -> Alcotest.fail "fixture should validate"

let book_tree i =
  match Samples.bookstore_document ~books:(i + 1) () with
  | { Tree.root = { Tree.children; _ }; _ } -> (
    match List.nth children i with
    | Tree.Element e -> e
    | _ -> Alcotest.fail "expected a book element")

let bookstore store dnode = List.hd (Store.children store dnode)

let serialized store dnode =
  Xsm_xml.Printer.to_string (Xsm_xdm.Convert.to_document store dnode)

(* ---------------- raw apply / undo ---------------- *)

let test_insert_and_undo () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let before_xml = serialized store dnode in
  let n_before = List.length (Store.children store parent) in
  match Update.apply store (Update.Insert_element { parent; before = None; tree = book_tree 0 }) with
  | Error e -> Alcotest.fail e
  | Ok evidence ->
    check_int "one more book" (n_before + 1) (List.length (Store.children store parent));
    ignore (Update.undo store evidence);
    check_int "restored count" n_before (List.length (Store.children store parent));
    check_str "identical state" before_xml (serialized store dnode)

let test_insert_positioned () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let second = List.nth (Store.children store parent) 1 in
  match Update.apply store (Update.Insert_element { parent; before = Some second; tree = book_tree 0 }) with
  | Error e -> Alcotest.fail e
  | Ok _ ->
    let kids = Store.children store parent in
    check_int "four books" 4 (List.length kids);
    (* the inserted one is now at index 1 *)
    check "inserted before anchor" true
      (Store.equal_node (List.nth kids 2) second)

let test_delete_and_undo () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let before_xml = serialized store dnode in
  let victim = List.nth (Store.children store parent) 1 in
  (match Update.apply store (Update.Delete victim) with
  | Error e -> Alcotest.fail e
  | Ok evidence ->
    check_int "two books" 2 (List.length (Store.children store parent));
    ignore (Update.undo store evidence);
    check_str "restored exactly (position too)" before_xml (serialized store dnode));
  (* deleting the root (no parent) fails cleanly *)
  check "no parent" true (Result.is_error (Update.apply store (Update.Delete dnode)));
  (* a document node keeps exactly one element child: its document
     element cannot be deleted, and the refusal changes nothing *)
  check "document element" true
    (Result.is_error (Update.apply store (Update.Delete (bookstore store dnode))));
  check_str "document element kept" before_xml (serialized store dnode)

let test_replace_content () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let book = List.hd (Store.children store parent) in
  let title = List.hd (Store.children store book) in
  let text = List.hd (Store.children store title) in
  (match Update.apply store (Update.Replace_content { node = text; value = "New Title" }) with
  | Error e -> Alcotest.fail e
  | Ok evidence ->
    check_str "updated" "New Title" (Store.string_value store title);
    ignore (Update.undo store evidence);
    check_str "reverted" "Book 0" (Store.string_value store title));
  (* elements reject content replacement *)
  check "element rejected" true
    (Result.is_error (Update.apply store (Update.Replace_content { node = book; value = "x" })))

let test_set_attribute () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let book = List.hd (Store.children store parent) in
  (* create *)
  (match
     Update.apply store
       (Update.Set_attribute { element = book; name = Name.local "lang"; value = "en" })
   with
  | Error e -> Alcotest.fail e
  | Ok evidence ->
    check_int "attribute created" 1 (List.length (Store.attributes store book));
    (* replace *)
    (match
       Update.apply store
         (Update.Set_attribute { element = book; name = Name.local "lang"; value = "ru" })
     with
    | Error e -> Alcotest.fail e
    | Ok ev2 ->
      check_str "replaced" "ru" (Store.string_value store (List.hd (Store.attributes store book)));
      ignore (Update.undo store ev2);
      check_str "back to en" "en" (Store.string_value store (List.hd (Store.attributes store book))));
    ignore (Update.undo store evidence);
    check_int "attribute removed" 0 (List.length (Store.attributes store book)))

(* An insert whose link is refused, or whose state the schema
   rejects, was never handed to any consumer: its nodes go back to the
   store at once, and later nodes reuse their slots. *)
let test_refused_insert_frees () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let live = Store.node_count store in
  let first store n = List.hd (Store.children store n) in
  (* the first book's first child's text *)
  let text = first store (first store (first store parent)) in
  check "insert under a text node refused" true
    (Result.is_error
       (Update.apply store (Update.Insert_element { parent = text; before = None; tree = book_tree 0 })));
  let slots = Store.slots store in
  check "text under a text node refused" true
    (Result.is_error (Update.apply store (Update.Insert_text { parent = text; before = None; text = "t" })));
  check "schema rejects a stray element" true
    (Result.is_error
       (Update.apply_validated store dnode Samples.example7_schema
          (Update.Insert_element
             { parent; before = None; tree = Tree.elem "Pamphlet" ~children:[ Tree.text "x" ] })));
  check_int "no node kept" live (Store.node_count store);
  check_int "each reused the slots of the one before" slots (Store.slots store)

(* ---------------- validated application ---------------- *)

let test_validated_accepts_legal () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  match
    Update.apply_validated store dnode Samples.example7_schema
      (Update.Insert_element { parent; before = None; tree = book_tree 1 })
  with
  | Ok () -> check_int "four books stay" 4 (List.length (Store.children store parent))
  | Error es -> Alcotest.failf "rejected: %s" (String.concat "; " es)

let test_validated_rolls_back () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let before_xml = serialized store dnode in
  (* inserting a stray element breaks the content model *)
  (match
     Update.apply_validated store dnode Samples.example7_schema
       (Update.Insert_element
          { parent; before = None; tree = Tree.elem "Pamphlet" ~children:[ Tree.text "x" ] })
   with
  | Ok () -> Alcotest.fail "should have been rejected"
  | Error _ -> ());
  check_str "state rolled back" before_xml (serialized store dnode);
  (* deleting a mandatory child of a Book also rolls back *)
  let book = List.hd (Store.children store parent) in
  let isbn = List.nth (Store.children store book) 3 in
  (match Update.apply_validated store dnode Samples.example7_schema (Update.Delete isbn) with
  | Ok () -> Alcotest.fail "should have been rejected"
  | Error _ -> ());
  check_str "rollback preserves position" before_xml (serialized store dnode);
  (* the document still validates after all the rejected attempts *)
  check "still an S-tree" true (Result.is_ok (Validator.validate store dnode Samples.example7_schema))

let test_validated_text_edit () =
  let store, dnode = setup () in
  let parent = bookstore store dnode in
  let book = List.hd (Store.children store parent) in
  let date = List.nth (Store.children store book) 2 in
  let text = List.hd (Store.children store date) in
  match
    Update.apply_validated store dnode Samples.example7_schema
      (Update.Replace_content { node = text; value = "2005" })
  with
  | Ok () -> check_str "edited" "2005" (Store.string_value store date)
  | Error es -> Alcotest.failf "rejected: %s" (String.concat "; " es)

let test_validated_rejects_bad_simple_value () =
  (* schema with an int leaf: writing a non-int rolls back *)
  let schema =
    Ast.schema
      (Ast.element "r"
         (Ast.Anonymous
            (Ast.complex (Some (Ast.sequence [ Ast.elem_p (Ast.element "n" (Ast.named_type "xs:int")) ])))))
  in
  let doc =
    Tree.document
      (Tree.elem "r" ~children:[ Tree.element (Tree.elem "n" ~children:[ Tree.text "7" ]) ])
  in
  match Validator.validate_document doc schema with
  | Error _ -> Alcotest.fail "fixture"
  | Ok (store, dnode) ->
    let r = List.hd (Store.children store dnode) in
    let n = List.hd (Store.children store r) in
    let text = List.hd (Store.children store n) in
    (match
       Update.apply_validated store dnode schema
         (Update.Replace_content { node = text; value = "not-a-number" })
     with
    | Ok () -> Alcotest.fail "should reject"
    | Error _ -> ());
    check_str "rolled back" "7" (Store.string_value store n);
    match
      Update.apply_validated store dnode schema
        (Update.Replace_content { node = text; value = "42" })
    with
    | Ok () -> check_str "accepted" "42" (Store.string_value store n)
    | Error es -> Alcotest.failf "rejected: %s" (String.concat "; " es)

let test_parse_command () =
  (* the one update-script grammar, as `xsm update` and the daemon
     both read it: ops resolve against the current state, malformed
     lines are errors that name the problem *)
  let store, dnode = setup () in
  let resolve = Xsm_xpath.Eval.Over_store.eval_string store dnode in
  let parse = Update.parse_command ~resolve in
  (match parse "insert /* <Book/>" with
  | Ok (Update.Insert_element { parent; before = None; _ }) ->
    check "insert under the first match" true (Store.equal_node parent (bookstore store dnode))
  | _ -> Alcotest.fail "insert not parsed");
  (match parse "  attr /* lang en  " with
  | Ok (Update.Set_attribute { name; value = "en"; _ }) ->
    check_str "attribute name" "lang" (Name.to_string name)
  | _ -> Alcotest.fail "attr not parsed");
  List.iter
    (fun (line, expected) ->
      match parse line with
      | Error e -> check_str line expected e
      | Ok _ -> Alcotest.failf "%S accepted" line)
    [
      ("insert", "missing target path");
      ("insert /*", "missing XML fragment");
      ("attr /*", "missing attribute name");
      ("delete /nothing", "/nothing: no matching node");
      ("frob /*", "unknown command \"frob\"");
    ]

let suite =
  [
    ( "update.raw",
      [
        Alcotest.test_case "insert/undo" `Quick test_insert_and_undo;
        Alcotest.test_case "insert positioned" `Quick test_insert_positioned;
        Alcotest.test_case "delete/undo" `Quick test_delete_and_undo;
        Alcotest.test_case "replace content" `Quick test_replace_content;
        Alcotest.test_case "set attribute" `Quick test_set_attribute;
        Alcotest.test_case "script grammar" `Quick test_parse_command;
        Alcotest.test_case "refused insert frees" `Quick test_refused_insert_frees;
      ] );
    ( "update.validated",
      [
        Alcotest.test_case "legal insert" `Quick test_validated_accepts_legal;
        Alcotest.test_case "rollback" `Quick test_validated_rolls_back;
        Alcotest.test_case "text edit" `Quick test_validated_text_edit;
        Alcotest.test_case "simple value guard" `Quick test_validated_rejects_bad_simple_value;
      ] );
  ]
