(* Tests for xsm_xdm: the state algebra (§5/§6.1 accessor rules),
   document order (§7), axes, and XML <-> store conversion. *)

module Store = Xsm_xdm.Store
module Order = Xsm_xdm.Order
module Axis = Xsm_xdm.Axis
module Convert = Xsm_xdm.Convert
module Name = Xsm_xml.Name
module Tree = Xsm_xml.Tree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* build the Example 8-ish fixture:
   doc -> library -> book(title, author, author), paper(title @kind) *)
let fixture () =
  let s = Store.create () in
  let d = Store.new_document ~base_uri:"http://x" s in
  let lib = Store.new_element s (Name.local "library") in
  Store.append_child s d lib;
  let book = Store.new_element s (Name.local "book") in
  Store.append_child s lib book;
  let title = Store.new_element s (Name.local "title") in
  Store.append_child s book title;
  Store.append_child s title (Store.new_text s "Foundations");
  let a1 = Store.new_element s (Name.local "author") in
  Store.append_child s book a1;
  Store.append_child s a1 (Store.new_text s "Abiteboul");
  let a2 = Store.new_element s (Name.local "author") in
  Store.append_child s book a2;
  Store.append_child s a2 (Store.new_text s "Hull");
  let paper = Store.new_element s (Name.local "paper") in
  Store.append_child s lib paper;
  let kind = Store.new_attribute s (Name.local "kind") "journal" in
  Store.attach_attribute s paper kind;
  let ptitle = Store.new_element s (Name.local "title") in
  Store.append_child s paper ptitle;
  Store.append_child s ptitle (Store.new_text s "Relational Model");
  (s, d, lib, book, paper, kind)

(* ---------------- §6.1 fixed accessor values ---------------- *)

let test_document_accessors () =
  let s, d, _, _, _, _ = fixture () in
  check_str "node-kind" "document" (Store.node_kind s d);
  check "node-name empty" true (Store.node_name s d = None);
  check "parent empty" true (Store.parent s d = None);
  check "type empty" true (Store.type_name s d = None);
  check "attributes empty" true (Store.attributes s d = []);
  check "nilled empty" true (Store.nilled s d = None);
  check "base-uri" true (Store.base_uri s d = Some "http://x")

let test_element_accessors () =
  let s, _, lib, book, _, _ = fixture () in
  check_str "node-kind" "element" (Store.node_kind s lib);
  check "name" true (Store.node_name s lib = Some (Name.local "library"));
  check "children count" true (List.length (Store.children s lib) = 2);
  check "parent of book" true (Store.parent s book = Some lib);
  (* untyped elements carry xs:anyType *)
  check "type" true
    (match Store.type_name s book with Some n -> n.Name.local = "anyType" | None -> false);
  check "base-uri inherited" true (Store.base_uri s book = Some "http://x")

let test_attribute_accessors () =
  let s, _, _, _, paper, kind = fixture () in
  check_str "node-kind" "attribute" (Store.node_kind s kind);
  check "children empty" true (Store.children s kind = []);
  check "attributes empty" true (Store.attributes s kind = []);
  check "nilled empty" true (Store.nilled s kind = None);
  check "parent" true (Store.parent s kind = Some paper);
  check_str "string-value" "journal" (Store.string_value s kind)

let test_text_accessors () =
  let s, _, _, book, _, _ = fixture () in
  let title = List.hd (Store.children s book) in
  let text = List.hd (Store.children s title) in
  check_str "node-kind" "text" (Store.node_kind s text);
  check "node-name empty" true (Store.node_name s text = None);
  check "type untypedAtomic" true
    (match Store.type_name s text with Some n -> n.Name.local = "untypedAtomic" | None -> false)

let test_string_value_concat () =
  let s, d, lib, book, _, _ = fixture () in
  check_str "book" "FoundationsAbiteboulHull" (Store.string_value s book);
  check_str "library" "FoundationsAbiteboulHullRelational Model" (Store.string_value s lib);
  (* requirement 1: string value of document = string value of its child *)
  check_str "document" (Store.string_value s lib) (Store.string_value s d)

let test_typed_value_untyped () =
  let s, _, _, book, _, _ = fixture () in
  match Store.typed_value s book with
  | [ Xsm_datatypes.Value.Untyped_atomic v ] -> check_str "wraps string value" "FoundationsAbiteboulHull" v
  | _ -> Alcotest.fail "expected untypedAtomic"

(* ---------------- shape constraints ---------------- *)

let expect_invalid_arg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_shape_constraints () =
  let s = Store.create () in
  let d = Store.new_document s in
  let e1 = Store.new_element s (Name.local "a") in
  let e2 = Store.new_element s (Name.local "b") in
  Store.append_child s d e1;
  (* a document has exactly one element child *)
  expect_invalid_arg (fun () -> Store.append_child s d e2);
  (* no text under document *)
  let t = Store.new_text s "x" in
  expect_invalid_arg (fun () -> Store.append_child s d t);
  (* attributes attach, not append *)
  let at = Store.new_attribute s (Name.local "k") "v" in
  expect_invalid_arg (fun () -> Store.append_child s e1 at);
  Store.attach_attribute s e1 at;
  (* duplicate attribute names rejected *)
  let at2 = Store.new_attribute s (Name.local "k") "w" in
  expect_invalid_arg (fun () -> Store.attach_attribute s e1 at2);
  (* re-parenting is rejected *)
  expect_invalid_arg (fun () -> Store.append_child s e2 e1);
  (* text/attribute nodes have no children *)
  Store.append_child s e1 t;
  expect_invalid_arg (fun () -> Store.append_child s t (Store.new_text s "y"))

let test_carriers_disjoint () =
  let s, _, _, _, _, _ = fixture () in
  let total =
    Store.count_kind s Store.Kind.Document
    + Store.count_kind s Store.Kind.Element
    + Store.count_kind s Store.Kind.Attribute
    + Store.count_kind s Store.Kind.Text
  in
  check_int "A_Node is the disjoint union" (Store.node_count s) total

let test_insert_remove_child () =
  let s, _, lib, book, paper, _ = fixture () in
  let extra = Store.new_element s (Name.local "cd") in
  Store.insert_child_before s lib ~before:paper extra;
  (match Store.children s lib with
  | [ a; b; c ] ->
    check "order after insert" true
      (Store.equal_node a book && Store.equal_node b extra && Store.equal_node c paper)
  | _ -> Alcotest.fail "expected three children");
  Store.remove_child s lib extra;
  check_int "removed" 2 (List.length (Store.children s lib));
  check "unparented" true (Store.parent s extra = None)

(* ---------------- released slots ---------------- *)

(* the fixture's paper subtree: paper, @kind, title and its text *)
let detach_paper s lib paper =
  let gone = Store.descendants_or_self s paper in
  Store.remove_child s lib paper;
  gone

let test_release_reuses_slots () =
  let s, _, lib, _, paper, _ = fixture () in
  let slots = Store.slots s in
  let gone = detach_paper s lib paper in
  Store.release s paper;
  check_int "slots kept" slots (Store.slots s);
  let fresh = List.map (fun _ -> Store.new_text s "x") gone in
  check_int "no slot added" slots (Store.slots s);
  check "the released ids, reused" true
    (List.sort compare (List.map Store.node_id fresh)
    = List.sort compare (List.map Store.node_id gone));
  check_str "a reused id names the new node" "x" (Store.string_value s (List.hd fresh));
  ignore (Store.new_text s "y");
  check_int "then the store grows" (slots + 1) (Store.slots s)

let test_release_guard () =
  let s, _, lib, _, paper, kind = fixture () in
  let gone = detach_paper s lib paper in
  Store.release s paper;
  List.iter (fun n -> expect_invalid_arg (fun () -> Store.kind s n)) gone;
  expect_invalid_arg (fun () -> Store.parent s kind);
  expect_invalid_arg (fun () -> Store.release s paper);
  expect_invalid_arg (fun () -> Store.append_child s lib paper)

let test_release_linked_refused () =
  let s, d, _, book, _, _ = fixture () in
  let before = Store.node_count s in
  expect_invalid_arg (fun () -> Store.release s book);
  check_int "nothing released" before (Store.node_count s);
  check_int "the tree intact" before (Store.subtree_size s d);
  check_str "the node readable" "FoundationsAbiteboulHull" (Store.string_value s book)

let test_node_count_live () =
  let s, d, lib, _, paper, _ = fixture () in
  ignore (detach_paper s lib paper);
  check_int "a detached node still counts" 13 (Store.node_count s);
  Store.release s paper;
  check_int "released nodes do not" (Store.subtree_size s d) (Store.node_count s);
  check_int "carriers skip released slots" (Store.node_count s)
    (List.fold_left
       (fun acc k -> acc + Store.count_kind s k)
       0
       Store.Kind.[ Document; Element; Attribute; Text ])

(* ---------------- document order (§7) ---------------- *)

let test_order_rules () =
  let s, d, lib, book, paper, kind = fixture () in
  (* document node first *)
  check "doc << library" true (Order.precedes s d lib);
  (* element before its attributes *)
  check "paper << @kind" true (Order.precedes s paper kind);
  (* attributes before children *)
  let ptitle = List.hd (Store.children s paper) in
  check "@kind << title" true (Order.precedes s kind ptitle);
  (* subtree of earlier sibling precedes later sibling *)
  let hull_text = Store.string_value s in
  ignore hull_text;
  check "book subtree << paper" true
    (List.for_all
       (fun n -> Order.precedes s n paper)
       (Store.descendants_or_self s book))

let test_order_total_and_consistent () =
  let s, d, _, _, _, _ = fixture () in
  let nodes = Store.descendants_or_self s d in
  (* descendants_or_self is exactly document order *)
  let sorted = List.sort (Order.compare s) nodes in
  check "pre-order = document order" true
    (List.equal Store.equal_node nodes sorted);
  (* totality: all pairs comparable with antisymmetry *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Order.compare s a b and ba = Order.compare s b a in
          check "antisymmetric" true (compare ab 0 = -compare ba 0);
          if Store.equal_node a b then check_int "reflexive" 0 ab)
        nodes)
    nodes

let test_order_different_trees_rejected () =
  let s = Store.create () in
  let d1 = Store.new_document s and d2 = Store.new_document s in
  match Order.compare s d1 d2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_index_in_parent () =
  let s, _, lib, book, paper, kind = fixture () in
  ignore lib;
  Alcotest.(check (option int)) "book" (Some 0) (Order.index_in_parent s book);
  Alcotest.(check (option int)) "paper" (Some 1) (Order.index_in_parent s paper);
  Alcotest.(check (option int)) "attribute has none" None (Order.index_in_parent s kind)

(* ---------------- axes ---------------- *)

let test_axes () =
  let s, d, lib, book, paper, kind = fixture () in
  let names axis n =
    List.filter_map
      (fun m -> Option.map Name.to_string (Store.node_name s m))
      (Axis.apply s axis n)
  in
  Alcotest.(check (list string)) "child" [ "book"; "paper" ] (names Axis.Child lib);
  Alcotest.(check (list string)) "attribute" [ "kind" ] (names Axis.Attribute paper);
  Alcotest.(check (list string)) "ancestor" [ "library" ]
    (List.filter_map (fun m -> Option.map Name.to_string (Store.node_name s m))
       (Axis.apply s Axis.Ancestor book));
  check_int "descendants of lib" 10 (List.length (Axis.apply s Axis.Descendant lib));
  Alcotest.(check (list string)) "following-sibling of book" [ "paper" ]
    (names Axis.Following_sibling book);
  Alcotest.(check (list string)) "preceding-sibling of paper" [ "book" ]
    (names Axis.Preceding_sibling book |> fun _ -> names Axis.Preceding_sibling paper);
  check "self" true
    (match Axis.apply s Axis.Self book with [ n ] -> Store.equal_node n book | _ -> false);
  check "parent of root is document" true
    (match Axis.apply s Axis.Parent lib with [ n ] -> Store.equal_node n d | _ -> false);
  (* following: nodes after book's subtree, excluding descendants *)
  let following = Axis.apply s Axis.Following book in
  check "following contains paper" true (List.exists (Store.equal_node paper) following);
  check "following excludes own text" true
    (List.for_all (fun n -> not (Order.is_ancestor s book n)) following);
  (* preceding excludes ancestors *)
  let preceding = Axis.apply s Axis.Preceding paper in
  check "preceding excludes library" true
    (not (List.exists (Store.equal_node lib) preceding));
  check "preceding contains book" true (List.exists (Store.equal_node book) preceding);
  ignore kind

let test_axis_names () =
  List.iter
    (fun a ->
      match Axis.of_string (Axis.to_string a) with
      | Some b -> check "roundtrip" true (a = b)
      | None -> Alcotest.fail "axis name roundtrip")
    [ Axis.Self; Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Parent;
      Axis.Ancestor; Axis.Ancestor_or_self; Axis.Following_sibling; Axis.Preceding_sibling;
      Axis.Following; Axis.Preceding; Axis.Attribute ]

(* ---------------- conversion ---------------- *)

let test_load_merges_text () =
  let doc =
    Tree.document
      (Tree.elem "a"
         ~children:[ Tree.text "one"; Tree.Cdata " two"; Tree.Comment "gone"; Tree.text " three" ])
  in
  let s = Store.create () in
  let d = Convert.load s doc in
  let a = List.hd (Store.children s d) in
  (match Store.children s a with
  | [ t ] -> check_str "merged" "one two three" (Store.string_value s t)
  | _ -> Alcotest.fail "expected one text node");
  check_str "element value" "one two three" (Store.string_value s a)

let test_load_to_document_roundtrip () =
  let doc = Xsm_schema.Samples.example8_document in
  let s = Store.create () in
  let d = Convert.load s doc in
  let back = Convert.to_document s d in
  check "content equal" true (Tree.equal_content back doc)

let test_to_element_errors () =
  let s, d, _, _, _, kind = fixture () in
  expect_invalid_arg (fun () -> Convert.to_element s d);
  expect_invalid_arg (fun () -> Convert.to_element s kind)

let suite =
  [
    ( "xdm.accessors",
      [
        Alcotest.test_case "document" `Quick test_document_accessors;
        Alcotest.test_case "element" `Quick test_element_accessors;
        Alcotest.test_case "attribute" `Quick test_attribute_accessors;
        Alcotest.test_case "text" `Quick test_text_accessors;
        Alcotest.test_case "string-value" `Quick test_string_value_concat;
        Alcotest.test_case "typed-value" `Quick test_typed_value_untyped;
      ] );
    ( "xdm.state-algebra",
      [
        Alcotest.test_case "shape constraints" `Quick test_shape_constraints;
        Alcotest.test_case "disjoint carriers" `Quick test_carriers_disjoint;
        Alcotest.test_case "insert/remove" `Quick test_insert_remove_child;
        Alcotest.test_case "release reuses slots" `Quick test_release_reuses_slots;
        Alcotest.test_case "released id is refused" `Quick test_release_guard;
        Alcotest.test_case "release refuses linked" `Quick test_release_linked_refused;
        Alcotest.test_case "node_count counts live" `Quick test_node_count_live;
      ] );
    ( "xdm.order",
      [
        Alcotest.test_case "§7 rules" `Quick test_order_rules;
        Alcotest.test_case "total order" `Quick test_order_total_and_consistent;
        Alcotest.test_case "different trees" `Quick test_order_different_trees_rejected;
        Alcotest.test_case "index in parent" `Quick test_index_in_parent;
      ] );
    ( "xdm.axes",
      [
        Alcotest.test_case "all axes" `Quick test_axes;
        Alcotest.test_case "names" `Quick test_axis_names;
      ] );
    ( "xdm.convert",
      [
        Alcotest.test_case "text merging" `Quick test_load_merges_text;
        Alcotest.test_case "roundtrip" `Quick test_load_to_document_roundtrip;
        Alcotest.test_case "errors" `Quick test_to_element_errors;
      ] );
  ]
