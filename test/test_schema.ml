(* Tests for xsm_schema: abstract syntax, well-formedness (§3),
   content-model automata, the §6.2 validator, the §8 theorem. *)

open Xsm_schema
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names ss = List.map Name.of_string_exn ss

let automaton g =
  match Content_automaton.make g with
  | Ok a -> a
  | Error e -> Alcotest.fail e

(* ---------------- ast ---------------- *)

let test_repetition () =
  check "once valid" true (Ast.repetition_valid Ast.once);
  check "many valid" true (Ast.repetition_valid Ast.many);
  check "negative min" false (Ast.repetition_valid (Ast.repeat (-1) None));
  check "min>max" false (Ast.repetition_valid (Ast.repeat 3 (Some 2)))

let test_group_observers () =
  check "ex2 not empty" false (Ast.group_is_empty Samples.example2_group);
  check "empty" true (Ast.group_is_empty (Ast.sequence []));
  Alcotest.(check (list string)) "names" [ "B"; "C" ]
    (List.map Name.to_string (Ast.declared_element_names Samples.example2_group));
  (* nested groups contribute their names *)
  let nested =
    Ast.sequence
      [ Ast.elem_p (Ast.element "A" (Ast.named_type "xs:string"));
        Ast.group_p Samples.example2_group ]
  in
  Alcotest.(check (list string)) "nested names" [ "A"; "B"; "C" ]
    (List.map Name.to_string (Ast.declared_element_names nested))

(* ---------------- schema_check ---------------- *)

let test_check_example_schemas () =
  check "example7" true (Result.is_ok (Schema_check.check Samples.example7_schema));
  check "library" true (Result.is_ok (Schema_check.check Samples.library_schema))

let test_check_unknown_type () =
  let s = Ast.schema (Ast.element "root" (Ast.named_type "NoSuchType")) in
  match Schema_check.check s with
  | Error (e :: _) -> check "mentions requirement" true
      (String.length e.Schema_check.message > 0)
  | Error [] | Ok () -> Alcotest.fail "expected an error"

let test_check_duplicate_names_in_group () =
  let g =
    Ast.sequence
      [ Ast.elem_p (Ast.element "A" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element "A" (Ast.named_type "xs:int")) ]
  in
  let s = Ast.schema (Ast.element "root" (Ast.Anonymous (Ast.complex (Some g)))) in
  check "rejected" true (Result.is_error (Schema_check.check s))

let test_check_upa_violation () =
  (* (a{0,2}){1,2} is ambiguous *)
  let inner = Ast.sequence [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 0 (Some 2)) "a" (Ast.named_type "xs:string")) ] in
  let g = Ast.sequence ~repetition:(Ast.repeat 1 (Some 2)) [ Ast.group_p inner ] in
  let s = Ast.schema (Ast.element "root" (Ast.Anonymous (Ast.complex (Some g)))) in
  match Schema_check.check s with
  | Error es ->
    check "UPA reported" true
      (List.exists (fun e -> String.length e.Schema_check.message > 0) es)
  | Ok () -> Alcotest.fail "expected UPA violation"

let test_check_duplicate_attributes () =
  let ct =
    Ast.complex ~attributes:[ Ast.attribute "x" "xs:string"; Ast.attribute "x" "xs:int" ] None
  in
  let s = Ast.schema (Ast.element "root" (Ast.Anonymous ct)) in
  check "rejected" true (Result.is_error (Schema_check.check s))

let test_check_recursive_schema_terminates () =
  (* type Node contains element child of type Node: legal and finite *)
  let node_type =
    Ast.complex
      (Some
         (Ast.sequence
            [ Ast.elem_p (Ast.element ~repetition:Ast.many "child" (Ast.named_type "NodeT")) ]))
  in
  let s =
    Ast.schema ~complex_types:[ ("NodeT", node_type) ]
      (Ast.element "root" (Ast.named_type "NodeT"))
  in
  check "recursive ok" true (Result.is_ok (Schema_check.check s))

let test_resolve () =
  (* type references resolve in the compiled schema: complex types
     first, then simple types; an unknown name is left unresolved *)
  let s = Samples.example7_schema in
  let root ty = Compiled.root (Compiled.make { s with Ast.root = Ast.element "r" ty }) in
  (match (root (Ast.named_type "BookPublication")).ty.content with
  | Compiled.Model _ | Compiled.Empty _ -> ()
  | _ -> Alcotest.fail "BookPublication should resolve to a complex type");
  (match (root (Ast.named_type "xs:string")).ty.content with
  | Compiled.Simple _ -> ()
  | _ -> Alcotest.fail "xs:string should resolve to a simple type");
  (match (root (Ast.named_type "Zork")).ty.content with
  | Compiled.Unresolved _ -> ()
  | _ -> Alcotest.fail "Zork should not resolve");
  let attributed = Ast.complex ~attributes:[ Ast.attribute "a" "BookPublication" ] None in
  match (root (Ast.Anonymous attributed)).ty.attributes with
  | [ { attr_simple = Error _; _ } ] -> ()
  | _ -> Alcotest.fail "complex as simple rejected"

(* ---------------- content automata ---------------- *)

let test_automaton_sequence () =
  let a = automaton Samples.example2_group in
  check "BC" true (Content_automaton.matches a (names [ "B"; "C" ]));
  check "CB" false (Content_automaton.matches a (names [ "C"; "B" ]));
  check "B" false (Content_automaton.matches a (names [ "B" ]));
  check "empty" false (Content_automaton.matches a []);
  check "BCB" false (Content_automaton.matches a (names [ "B"; "C"; "B" ]))

let test_automaton_choice_star () =
  let a = automaton Samples.example3_group in
  check "empty" true (Content_automaton.matches a []);
  check "mixed" true (Content_automaton.matches a (names [ "zero"; "one"; "one"; "zero" ]));
  check "foreign" false (Content_automaton.matches a (names [ "zero"; "two" ]))

let test_automaton_bounded () =
  let g =
    Ast.sequence
      [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 2 (Some 4)) "x" (Ast.named_type "xs:string")) ]
  in
  let a = automaton g in
  List.iter
    (fun (n, expected) ->
      check (string_of_int n) expected
        (Content_automaton.matches a (names (List.init n (fun _ -> "x")))))
    [ (0, false); (1, false); (2, true); (3, true); (4, true); (5, false) ]

let test_automaton_large_bound () =
  (* Example 6 uses maxOccurs=1000 *)
  let g =
    Ast.sequence
      [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 0 (Some 1000)) "Book" (Ast.named_type "xs:string")) ]
  in
  let a = automaton g in
  check_int "positions" 1000 (Content_automaton.position_count a);
  check "700 books" true
    (Content_automaton.matches a (names (List.init 700 (fun _ -> "Book"))));
  check "1001 books" false
    (Content_automaton.matches a (names (List.init 1001 (fun _ -> "Book"))))

let test_automaton_too_large () =
  let g =
    Ast.sequence
      [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 0 (Some 100000)) "x" (Ast.named_type "xs:string")) ]
  in
  check "rejected" true (Result.is_error (Content_automaton.make g))

let test_automaton_nested_groups () =
  (* (B C | (D | E)+ ) F *)
  let g =
    Ast.sequence
      [
        Ast.group_p
          (Ast.choice
             [
               Ast.group_p Samples.example2_group;
               Ast.group_p
                 (Ast.choice ~repetition:(Ast.repeat 1 None)
                    [
                      Ast.elem_p (Ast.element "D" (Ast.named_type "xs:string"));
                      Ast.elem_p (Ast.element "E" (Ast.named_type "xs:string"));
                    ]);
             ]);
        Ast.elem_p (Ast.element "F" (Ast.named_type "xs:string"));
      ]
  in
  let a = automaton g in
  check "BCF" true (Content_automaton.matches a (names [ "B"; "C"; "F" ]));
  check "DF" true (Content_automaton.matches a (names [ "D"; "F" ]));
  check "DEDF" true (Content_automaton.matches a (names [ "D"; "E"; "D"; "F" ]));
  check "F alone" false (Content_automaton.matches a (names [ "F" ]));
  check "BCDF" false (Content_automaton.matches a (names [ "B"; "C"; "D"; "F" ]))

let test_automaton_determinism_flag () =
  let det = automaton Samples.example2_group in
  check "ex2 deterministic" true (Content_automaton.is_deterministic det);
  (* choice of two same-named elements with different types: UPA broken *)
  let ambiguous =
    Ast.choice
      [
        Ast.elem_p (Ast.element "A" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element "A" (Ast.named_type "xs:int"));
      ]
  in
  check "ambiguous flagged" false (Content_automaton.is_deterministic (automaton ambiguous))

let test_automaton_run_attribution () =
  let a = automaton Samples.example2_group in
  (match Content_automaton.run a (names [ "B"; "C" ]) with
  | Some [ d1; d2 ] ->
    check "B decl" true (Name.to_string d1.Ast.elem_name = "B");
    check "C decl" true (Name.to_string d2.Ast.elem_name = "C")
  | _ -> Alcotest.fail "run failed");
  check "reject" true (Content_automaton.run a (names [ "C" ]) = None)

let test_all_group () =
  (* footnote 2: the all option — elements in any order, each at most once *)
  let g =
    Ast.all_of
      [
        Ast.elem_p (Ast.element "a" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element "b" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element ~repetition:Ast.optional "c" (Ast.named_type "xs:string"));
      ]
  in
  let a = automaton g in
  check "deterministic" true (Content_automaton.is_deterministic a);
  check "ab" true (Content_automaton.matches a (names [ "a"; "b" ]));
  check "ba" true (Content_automaton.matches a (names [ "b"; "a" ]));
  check "cab" true (Content_automaton.matches a (names [ "c"; "a"; "b" ]));
  check "bca" true (Content_automaton.matches a (names [ "b"; "c"; "a" ]));
  check "missing b" false (Content_automaton.matches a (names [ "a" ]));
  check "duplicate a" false (Content_automaton.matches a (names [ "a"; "a"; "b" ]));
  check "empty" false (Content_automaton.matches a []);
  (* attribution works through any order *)
  (match Content_automaton.run a (names [ "b"; "a" ]) with
  | Some [ d1; d2 ] ->
    check "b decl" true (Name.to_string d1.Ast.elem_name = "b");
    check "a decl" true (Name.to_string d2.Ast.elem_name = "a")
  | _ -> Alcotest.fail "run failed");
  (* optional group *)
  let opt = { g with Ast.group_repetition = Ast.optional } in
  let ao = automaton opt in
  check "optional group, empty" true (Content_automaton.matches ao []);
  check "optional group, full" true (Content_automaton.matches ao (names [ "b"; "a" ]))

let test_all_group_constraints () =
  (* maxOccurs > 1 inside all is rejected *)
  let bad =
    Ast.all_of
      [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 0 (Some 2)) "a" (Ast.named_type "xs:string")) ]
  in
  check "max>1 rejected" true (Result.is_error (Content_automaton.make bad));
  (* repeated all group is rejected *)
  let bad2 =
    Ast.all_of ~repetition:Ast.many
      [ Ast.elem_p (Ast.element "a" (Ast.named_type "xs:string")) ]
  in
  check "repeated all rejected" true (Result.is_error (Content_automaton.make bad2));
  (* nested all is rejected *)
  let bad3 =
    Ast.sequence
      [ Ast.group_p (Ast.all_of [ Ast.elem_p (Ast.element "a" (Ast.named_type "xs:string")) ]) ]
  in
  check "nested all rejected" true (Result.is_error (Content_automaton.make bad3))

let test_all_group_validation () =
  let g =
    Ast.all_of
      [
        Ast.elem_p (Ast.element "x" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element "y" (Ast.named_type "xs:int"));
      ]
  in
  let s = Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some g)))) in
  check "schema check ok" true (Result.is_ok (Schema_check.check s));
  let mk kids =
    Tree.document
      (Tree.elem "r"
         ~children:
           (List.map
              (fun (k, v) -> Tree.element (Tree.elem k ~children:[ Tree.text v ]))
              kids))
  in
  let v doc = Validator.validate_document doc s in
  check "xy" true (Result.is_ok (v (mk [ ("x", "a"); ("y", "1") ])));
  check "yx" true (Result.is_ok (v (mk [ ("y", "1"); ("x", "a") ])));
  check "missing y" true (Result.is_error (v (mk [ ("x", "a") ])));
  check "bad y type" true (Result.is_error (v (mk [ ("y", "notint"); ("x", "a") ])))

(* ---------------- backtracking baseline agreement ---------------- *)

let test_backtrack_agreement () =
  let groups =
    [ Samples.example2_group; Samples.example3_group;
      Ast.sequence
        [
          Ast.elem_p (Ast.element ~repetition:(Ast.repeat 0 (Some 2)) "a" (Ast.named_type "xs:string"));
          Ast.elem_p (Ast.element ~repetition:(Ast.repeat 1 (Some 3)) "b" (Ast.named_type "xs:string"));
        ];
    ]
  in
  let alphabet = names [ "a"; "b"; "B"; "C"; "zero"; "one" ] in
  let rec words k =
    if k = 0 then [ [] ]
    else
      let shorter = words (k - 1) in
      shorter @ List.concat_map (fun w -> List.map (fun c -> c :: w) alphabet)
        (List.filter (fun w -> List.length w = k - 1) shorter)
  in
  let all_words = words 4 in
  List.iter
    (fun g ->
      let a = automaton g in
      List.iter
        (fun w ->
          let auto = Content_automaton.matches a w in
          let bt = Backtrack.matches g w in
          if auto <> bt then
            Alcotest.failf "disagreement on %s"
              (String.concat " " (List.map Name.to_string w)))
        all_words)
    groups;
  check "agreed everywhere" true true

let test_backtrack_counts_steps () =
  let g =
    Ast.sequence
      (List.init 8 (fun i ->
           Ast.elem_p
             (Ast.element ~repetition:(Ast.repeat 0 (Some 1)) (Printf.sprintf "e%d" i)
                (Ast.named_type "xs:string"))))
  in
  let _, steps = Backtrack.matches_counting g [] in
  check "steps counted" true (steps > 0)

(* ---------------- validator (§6.2) ---------------- *)

let validate doc schema = Validator.validate_document doc schema

let test_validate_bookstore () =
  check "valid" true (Result.is_ok (validate (Samples.bookstore_document ~books:3 ()) Samples.example7_schema));
  check "invalid" true (Result.is_error (validate (Samples.bookstore_invalid_document ()) Samples.example7_schema))

let test_validate_wrong_root () =
  let doc = Tree.document (Tree.elem "NotABookStore") in
  match validate doc Samples.example7_schema with
  | Error (e :: _) -> check "root error" true (String.length e.Validator.path > 0)
  | _ -> Alcotest.fail "expected rejection"

let test_validate_annotates_types () =
  match validate (Samples.bookstore_document ~books:1 ()) Samples.example7_schema with
  | Error _ -> Alcotest.fail "should validate"
  | Ok (store, dnode) ->
    let module S = Xsm_xdm.Store in
    let root = List.hd (S.children store dnode) in
    (* anonymous type on the root: annotated xs:anyType per item 4 *)
    check "root anon type" true
      (match S.type_name store root with Some n -> n.Name.local = "anyType" | None -> false);
    let book = List.hd (S.children store root) in
    check "named type kept" true
      (match S.type_name store book with
      | Some n -> Name.to_string n = "BookPublication"
      | None -> false);
    let title = List.hd (S.children store book) in
    check "leaf typed" true
      (match S.type_name store title with Some n -> Name.to_string n = "xs:string" | None -> false);
    (* typed value of a simple-typed element *)
    (match S.typed_value store title with
    | [ Xsm_datatypes.Value.String _ ] -> ()
    | _ -> Alcotest.fail "expected a typed string value")

let test_validate_simple_type_value_error () =
  let s =
    Ast.schema (Ast.element "n" (Ast.named_type "xs:int"))
  in
  let mk v = Tree.document (Tree.elem "n" ~children:[ Tree.text v ]) in
  check "42" true (Result.is_ok (validate (mk "42") s));
  check "4.2 rejected" true (Result.is_error (validate (mk "4.2") s));
  check "whitespace collapsed" true (Result.is_ok (validate (mk "  42 ") s))

let test_validate_attribute_types () =
  let ct =
    Ast.complex ~attributes:[ Ast.attribute "n" "xs:int" ]
      (Some (Ast.sequence []))
  in
  let s = Ast.schema (Ast.element "e" (Ast.Anonymous ct)) in
  let mk v = Tree.document (Tree.elem "e" ~attrs:[ Tree.attr "n" v ]) in
  check "int attr" true (Result.is_ok (validate (mk "7") s));
  check "bad attr" true (Result.is_error (validate (mk "x") s));
  (* undeclared attribute *)
  let doc = Tree.document (Tree.elem "e" ~attrs:[ Tree.attr "n" "7"; Tree.attr "zz" "1" ]) in
  check "undeclared" true (Result.is_error (validate doc s))

let test_attribute_use_and_default () =
  let ct use default =
    Ast.complex ~attributes:[ Ast.attribute ~use ?default "n" "xs:int" ] (Some (Ast.sequence []))
  in
  let doc_with = Tree.document (Tree.elem "e" ~attrs:[ Tree.attr "n" "7" ]) in
  let doc_without = Tree.document (Tree.elem "e") in
  let s use default = Ast.schema (Ast.element "e" (Ast.Anonymous (ct use default))) in
  (* required *)
  check "required present" true (Result.is_ok (validate doc_with (s Ast.Required None)));
  check "required absent" true (Result.is_error (validate doc_without (s Ast.Required None)));
  (* optional *)
  check "optional absent ok" true (Result.is_ok (validate doc_without (s Ast.Optional None)));
  check "optional present ok" true (Result.is_ok (validate doc_with (s Ast.Optional None)));
  (* prohibited *)
  check "prohibited present" true (Result.is_error (validate doc_with (s Ast.Prohibited None)));
  check "prohibited absent ok" true (Result.is_ok (validate doc_without (s Ast.Prohibited None)));
  (* default materialization *)
  (match validate doc_without (s Ast.Optional (Some "42")) with
  | Error _ -> Alcotest.fail "default should validate"
  | Ok (store, dnode) ->
    let e = List.hd (Xsm_xdm.Store.children store dnode) in
    (match Xsm_xdm.Store.attributes store e with
    | [ a ] ->
      check "default value" true (Xsm_xdm.Store.string_value store a = "42");
      (match Xsm_xdm.Store.typed_value store a with
      | [ Xsm_datatypes.Value.Decimal _ ] -> ()
      | _ -> Alcotest.fail "default should be typed")
    | _ -> Alcotest.fail "expected the defaulted attribute"));
  (* explicit value beats default *)
  (match validate doc_with (s Ast.Optional (Some "42")) with
  | Error _ -> Alcotest.fail "should validate"
  | Ok (store, dnode) ->
    let e = List.hd (Xsm_xdm.Store.children store dnode) in
    check "explicit kept" true
      (Xsm_xdm.Store.string_value store (List.hd (Xsm_xdm.Store.attributes store e)) = "7"));
  (* a default that does not fit the type is an error *)
  check "bad default" true (Result.is_error (validate doc_without (s Ast.Optional (Some "x"))))

let test_validate_empty_content () =
  let s = Ast.schema (Ast.element "e" (Ast.Anonymous (Ast.complex None))) in
  check "empty ok" true (Result.is_ok (validate (Tree.document (Tree.elem "e")) s));
  check "element child rejected" true
    (Result.is_error
       (validate (Tree.document (Tree.elem "e" ~children:[ Tree.element (Tree.elem "x") ])) s));
  check "text rejected (not mixed)" true
    (Result.is_error (validate (Tree.document (Tree.elem "e" ~children:[ Tree.text "hi" ])) s));
  (* whitespace tolerated *)
  check "whitespace ok" true
    (Result.is_ok (validate (Tree.document (Tree.elem "e" ~children:[ Tree.text "  \n " ])) s))

let test_validate_mixed_empty () =
  let s = Ast.schema (Ast.element "e" (Ast.Anonymous (Ast.complex ~mixed:true None))) in
  check "one text ok" true
    (Result.is_ok (validate (Tree.document (Tree.elem "e" ~children:[ Tree.text "hi" ])) s))

let test_validate_choice_content () =
  let s = Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some Samples.example3_group)))) in
  let mk kids = Tree.document (Tree.elem "r" ~children:(List.map (fun k -> Tree.element (Tree.elem k ~children:[Tree.text "v"])) kids)) in
  check "empty" true (Result.is_ok (validate (mk []) s));
  check "zeros and ones" true (Result.is_ok (validate (mk [ "zero"; "one"; "zero" ]) s));
  check "foreign" true (Result.is_error (validate (mk [ "two" ]) s))

let test_validate_group_repetition () =
  (* the group B C repeated 2..3 times *)
  let g = { Samples.example2_group with Ast.group_repetition = Ast.repeat 2 (Some 3) } in
  let s = Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some g)))) in
  let mk n =
    Tree.document
      (Tree.elem "r"
         ~children:
           (List.concat
              (List.init n (fun _ ->
                   [ Tree.element (Tree.elem "B" ~children:[Tree.text "b"]);
                     Tree.element (Tree.elem "C" ~children:[Tree.text "c"]) ]))))
  in
  check "once too few" true (Result.is_error (validate (mk 1) s));
  check "twice" true (Result.is_ok (validate (mk 2) s));
  check "thrice" true (Result.is_ok (validate (mk 3) s));
  check "four too many" true (Result.is_error (validate (mk 4) s))

let test_validate_existing_store_tree () =
  (* validate works on trees built directly in the algebra too *)
  let module S = Xsm_xdm.Store in
  let store = S.create () in
  let d = S.new_document store in
  let e = S.new_element store (Name.local "n") in
  S.append_child store d e;
  S.append_child store e (S.new_text store "42");
  let schema = Ast.schema (Ast.element "n" (Ast.named_type "xs:int")) in
  check "store tree valid" true (Result.is_ok (Validator.validate store d schema));
  check "element entry point" true
    (Result.is_ok (Validator.validate_element_node store e schema))

let test_error_paths () =
  match validate (Samples.bookstore_invalid_document ()) Samples.example7_schema with
  | Error (e :: _) ->
    check "path names the book" true
      (e.Validator.path = "/BookStore/Book[1]")
  | _ -> Alcotest.fail "expected a located error"

let test_recursive_schema_validation () =
  (* type NodeT = sequence of zero or more NodeT children: deep
     instances validate and annotate correctly *)
  let node_type =
    Ast.complex
      (Some (Ast.sequence [ Ast.elem_p (Ast.element ~repetition:Ast.many "child" (Ast.named_type "NodeT")) ]))
  in
  let s =
    Ast.schema ~complex_types:[ ("NodeT", node_type) ]
      (Ast.element "root" (Ast.named_type "NodeT"))
  in
  let rec nest k =
    if k = 0 then Tree.elem "child"
    else Tree.elem "child" ~children:[ Tree.element (nest (k - 1)) ]
  in
  let doc depth =
    Tree.document (Tree.elem "root" ~children:[ Tree.element (nest depth) ])
  in
  check "depth 50" true (Result.is_ok (validate (doc 50) s));
  check "depth 500" true (Result.is_ok (validate (doc 500) s));
  (* a wrong leaf name at the bottom is caught *)
  let rec bad k =
    if k = 0 then Tree.elem "leafy"
    else Tree.elem "child" ~children:[ Tree.element (bad (k - 1)) ]
  in
  check "deep error caught" true
    (Result.is_error (validate (Tree.document (Tree.elem "root" ~children:[ Tree.element (bad 50) ])) s))

let test_all_duplicate_names_rejected () =
  let g =
    Ast.all_of
      [
        Ast.elem_p (Ast.element "a" (Ast.named_type "xs:string"));
        Ast.elem_p (Ast.element "a" (Ast.named_type "xs:int"));
      ]
  in
  let s = Ast.schema (Ast.element "r" (Ast.Anonymous (Ast.complex (Some g)))) in
  check "duplicate names in all" true (Result.is_error (Schema_check.check s))

(* ---------------- canonicalization ---------------- *)

let test_canonical_flatten () =
  (* a (b c) d  ==  a b c d *)
  let el n = Ast.elem_p (Ast.element n (Ast.named_type "xs:string")) in
  let nested = Ast.sequence [ el "a"; Ast.group_p (Ast.sequence [ el "b"; el "c" ]); el "d" ] in
  let flat = Canonical.simplify_group nested in
  check_int "flattened size" 4 (Canonical.group_size flat);
  check "equivalent" true (Canonical.equivalent_groups nested flat = Ok true)

let test_canonical_drop_zero () =
  let el ?repetition n = Ast.elem_p (Ast.element ?repetition n (Ast.named_type "xs:string")) in
  let g = Ast.sequence [ el "a"; el ~repetition:(Ast.repeat 0 (Some 0)) "never"; el "b" ] in
  let s = Canonical.simplify_group g in
  check_int "dropped" 2 (Canonical.group_size s);
  check "equivalent" true (Canonical.equivalent_groups g s = Ok true)

let test_canonical_unwrap_single () =
  (* ((e{1,2}){0,unbounded}) == e{0,unbounded} up to language *)
  let inner =
    Ast.sequence [ Ast.elem_p (Ast.element ~repetition:(Ast.repeat 1 (Some 2)) "e" (Ast.named_type "xs:string")) ]
  in
  let outer = Ast.sequence ~repetition:Ast.many [ Ast.group_p inner ] in
  let s = Canonical.simplify_group outer in
  check "equivalent" true (Canonical.equivalent_groups outer s = Ok true);
  check_int "single particle" 1 (Canonical.group_size s)

let test_canonical_dedup_choice () =
  let el n = Ast.elem_p (Ast.element n (Ast.named_type "xs:string")) in
  let g = Ast.choice [ el "a"; el "b"; el "a" ] in
  let s = Canonical.simplify_group g in
  check_int "deduped" 2 (Canonical.group_size s);
  check "equivalent" true (Canonical.equivalent_groups g s = Ok true)

let test_canonical_schema_preserves_validation () =
  let schema = Samples.example7_schema in
  let simplified = Canonical.simplify_schema schema in
  let rng = Generator.rng 55 in
  for _ = 1 to 20 do
    let doc = Generator.instance rng schema in
    check "same verdict" true
      (Validator.is_valid doc schema = Validator.is_valid doc simplified)
  done;
  check "invalid still invalid" true
    (not (Validator.is_valid (Samples.bookstore_invalid_document ()) simplified))

let test_equivalence_distinguishes () =
  let el n = Ast.elem_p (Ast.element n (Ast.named_type "xs:string")) in
  let ab = Ast.sequence [ el "a"; el "b" ] in
  let ba = Ast.sequence [ el "b"; el "a" ] in
  let choice_ab = Ast.choice [ Ast.group_p ab; Ast.group_p ba ] in
  let all_ab = Ast.all_of [ el "a"; el "b" ] in
  check "ab <> ba" true (Canonical.equivalent_groups ab ba = Ok false);
  check "ab = ab" true (Canonical.equivalent_groups ab ab = Ok true);
  (* all{a,b} = (a b | b a): interleave vs glushkov equivalence *)
  check "all = both orders" true (Canonical.equivalent_groups all_ab choice_ab = Ok true);
  check "all <> ab" true (Canonical.equivalent_groups all_ab ab = Ok false)

(* ---------------- roundtrip (§8) ---------------- *)

let test_roundtrip_examples () =
  List.iter
    (fun (doc, schema) ->
      match Roundtrip.holds_for doc schema with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "g(f(X)) differed from X"
      | Error es ->
        Alcotest.failf "not an S-document: %s"
          (String.concat "; " (List.map Validator.error_to_string es)))
    [
      (Samples.bookstore_document ~books:4 (), Samples.example7_schema);
      (Samples.example8_document, Samples.library_schema);
      (Samples.library_document ~books:10 ~papers:5 (), Samples.library_schema);
    ]

let test_roundtrip_rejects_invalid () =
  match Roundtrip.holds_for (Samples.bookstore_invalid_document ()) Samples.example7_schema with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hypothesis should fail"

let test_roundtrip_text () =
  let text =
    Xsm_xml.Printer.to_string (Samples.bookstore_document ~books:2 ())
  in
  match Roundtrip.text_roundtrip text Samples.example7_schema with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "text roundtrip differed"
  | Error e -> Alcotest.fail e

(* ---------------- generator ---------------- *)

let test_generator_instances_valid () =
  let rng = Generator.rng 123 in
  for _ = 1 to 25 do
    let doc = Generator.instance rng Samples.example7_schema in
    match validate doc Samples.example7_schema with
    | Ok _ -> ()
    | Error es ->
      Alcotest.failf "generated instance invalid: %s"
        (String.concat "; " (List.map Validator.error_to_string es))
  done

let test_generator_random_schemas_wellformed () =
  let rng = Generator.rng 99 in
  for _ = 1 to 15 do
    let s = Generator.random_schema rng in
    (match Schema_check.check s with
    | Ok () -> ()
    | Error es ->
      Alcotest.failf "random schema ill-formed: %s"
        (String.concat "; "
           (List.map (fun e -> Format.asprintf "%a" Schema_check.pp_error e) es)));
    let doc = Generator.instance rng s in
    match validate doc s with
    | Ok _ -> ()
    | Error es ->
      Alcotest.failf "instance of random schema invalid: %s"
        (String.concat "; " (List.map Validator.error_to_string es))
  done

let test_generator_deterministic () =
  let s1 = Generator.random_schema (Generator.rng 5) in
  let s2 = Generator.random_schema (Generator.rng 5) in
  let d1 = Generator.instance (Generator.rng 6) s1 in
  let d2 = Generator.instance (Generator.rng 6) s2 in
  check "same seed, same doc" true (Tree.equal_content d1 d2)

let test_sample_values_valid () =
  let rng = Generator.rng 31 in
  let types =
    List.filter Xsm_datatypes.Builtin.is_simple Xsm_datatypes.Builtin.all
  in
  List.iter
    (fun b ->
      let st = Xsm_datatypes.Simple_type.builtin b in
      for _ = 1 to 5 do
        let v = Generator.sample_value rng st in
        if not (Xsm_datatypes.Simple_type.is_valid st v) then
          Alcotest.failf "sample %S invalid for %s" v (Xsm_datatypes.Builtin.name b)
      done)
    types

(* ---------------- compiled schema ---------------- *)

(* the non-empty content models of a schema, counted on the syntax:
   one per named complex type and one per anonymous complex type *)
let content_model_count (s : Ast.schema) =
  let rec of_type = function
    | Ast.Complex_content { content = Some g; _ } when not (Ast.group_is_empty g) ->
      1 + of_group g
    | Ast.Simple_content _ | Ast.Complex_content _ -> 0
  and of_group (g : Ast.group_def) =
    List.fold_left (fun n p -> n + of_particle p) 0 g.particles
  and of_particle = function
    | Ast.Element_particle { elem_type = Ast.Anonymous ct; _ } -> of_type ct
    | Ast.Element_particle _ -> 0
    | Ast.Group_particle inner -> of_group inner
  in
  List.fold_left (fun n (_, ct) -> n + of_type ct) 0 s.complex_types
  + of_particle (Ast.Element_particle s.root)

let test_compile_determinizes_once () =
  let compiles = Xsm_obs.Metrics.Counter.make "validate.automaton_compiles" in
  List.iter
    (fun (s, doc) ->
      let models = content_model_count s in
      let before = Xsm_obs.Metrics.Counter.value compiles in
      let compiled = Compiled.make s in
      let after_compile = Xsm_obs.Metrics.Counter.value compiles - before in
      check_int "one determinization per non-empty content model" models after_compile;
      check_int "content models listed" models (List.length (Compiled.content_models compiled));
      for _ = 1 to 5 do
        check "valid" true (Result.is_ok (Validator.validate_document ~automata:compiled doc s))
      done;
      let v = Validator.create ~automata:compiled s in
      Validator.start_element v (Name.local "nothing");
      Validator.end_element v;
      ignore (Validator.finish v);
      check_int "validation determinizes nothing" models
        (Xsm_obs.Metrics.Counter.value compiles - before))
    [
      (Samples.example7_schema, Samples.bookstore_document ~books:3 ());
      (Samples.library_schema, Samples.library_document ~books:3 ~papers:2 ());
    ]

let test_compiled_named_types_shared () =
  (* a recursive named type is compiled once; the child a step attributes
     is the very element of the type's own content model *)
  let node_type =
    Ast.complex
      (Some
         (Ast.sequence
            [ Ast.elem_p (Ast.element ~repetition:Ast.many "child" (Ast.named_type "NodeT")) ]))
  in
  let s =
    Ast.schema ~complex_types:[ ("NodeT", node_type) ]
      (Ast.element "root" (Ast.named_type "NodeT"))
  in
  let c = Compiled.make s in
  check_int "one content model" 1 (List.length (Compiled.content_models c));
  let root = Compiled.root c in
  match root.ty.content with
  | Compiled.Model { run = Compiled.Table (_, [| child |]); _ } ->
    check "child shares the root's type" true (child.ty == root.ty)
  | _ -> Alcotest.fail "expected a determinized one-position model"

let test_compiled_nested_group_reported_once () =
  (* a nested group is checked as part of its content model: one UPA
     diagnostic, at the content model *)
  let note ty = Ast.elem_p (Ast.element "note" (Ast.named_type ty)) in
  let g =
    Ast.sequence
      [
        Ast.elem_p (Ast.element "header" (Ast.named_type "xs:string"));
        Ast.group_p (Ast.choice [ note "xs:string"; Ast.group_p (Ast.sequence [ note "xs:token" ]) ]);
      ]
  in
  let s = Ast.schema (Ast.element "memo" (Ast.Anonymous (Ast.complex (Some g)))) in
  match Schema_check.check s with
  | Error [ e ] ->
    Alcotest.(check string) "at the content model" "memo" (Schema_check.location_to_string e.loc);
    Alcotest.(check string) "message" "content model violates Unique Particle Attribution"
      e.message
  | Error es -> Alcotest.failf "expected one diagnostic, got %d" (List.length es)
  | Ok () -> Alcotest.fail "expected a UPA violation"

let suite =
  [
    ( "schema.ast",
      [
        Alcotest.test_case "repetition" `Quick test_repetition;
        Alcotest.test_case "group observers" `Quick test_group_observers;
      ] );
    ( "schema.check",
      [
        Alcotest.test_case "paper examples" `Quick test_check_example_schemas;
        Alcotest.test_case "unknown type" `Quick test_check_unknown_type;
        Alcotest.test_case "duplicate names" `Quick test_check_duplicate_names_in_group;
        Alcotest.test_case "UPA violation" `Quick test_check_upa_violation;
        Alcotest.test_case "duplicate attributes" `Quick test_check_duplicate_attributes;
        Alcotest.test_case "recursive schema" `Quick test_check_recursive_schema_terminates;
        Alcotest.test_case "resolve" `Quick test_resolve;
      ] );
    ( "schema.compiled",
      [
        Alcotest.test_case "determinize once" `Quick test_compile_determinizes_once;
        Alcotest.test_case "named types shared" `Quick test_compiled_named_types_shared;
        Alcotest.test_case "nested group reported once" `Quick
          test_compiled_nested_group_reported_once;
      ] );
    ( "schema.automaton",
      [
        Alcotest.test_case "sequence" `Quick test_automaton_sequence;
        Alcotest.test_case "choice*" `Quick test_automaton_choice_star;
        Alcotest.test_case "bounded" `Quick test_automaton_bounded;
        Alcotest.test_case "large bound" `Quick test_automaton_large_bound;
        Alcotest.test_case "too large" `Quick test_automaton_too_large;
        Alcotest.test_case "nested groups" `Quick test_automaton_nested_groups;
        Alcotest.test_case "determinism" `Quick test_automaton_determinism_flag;
        Alcotest.test_case "attribution" `Quick test_automaton_run_attribution;
        Alcotest.test_case "all group" `Quick test_all_group;
        Alcotest.test_case "all constraints" `Quick test_all_group_constraints;
        Alcotest.test_case "all validation" `Quick test_all_group_validation;
      ] );
    ( "schema.backtrack",
      [
        Alcotest.test_case "agreement" `Quick test_backtrack_agreement;
        Alcotest.test_case "step counter" `Quick test_backtrack_counts_steps;
      ] );
    ( "schema.validator",
      [
        Alcotest.test_case "bookstore" `Quick test_validate_bookstore;
        Alcotest.test_case "wrong root" `Quick test_validate_wrong_root;
        Alcotest.test_case "type annotation" `Quick test_validate_annotates_types;
        Alcotest.test_case "simple values" `Quick test_validate_simple_type_value_error;
        Alcotest.test_case "attributes" `Quick test_validate_attribute_types;
        Alcotest.test_case "attribute use/default" `Quick test_attribute_use_and_default;
        Alcotest.test_case "empty content" `Quick test_validate_empty_content;
        Alcotest.test_case "mixed empty" `Quick test_validate_mixed_empty;
        Alcotest.test_case "choice content" `Quick test_validate_choice_content;
        Alcotest.test_case "group repetition" `Quick test_validate_group_repetition;
        Alcotest.test_case "store trees" `Quick test_validate_existing_store_tree;
        Alcotest.test_case "recursive schemas" `Quick test_recursive_schema_validation;
        Alcotest.test_case "all duplicate names" `Quick test_all_duplicate_names_rejected;
        Alcotest.test_case "error paths" `Quick test_error_paths;
      ] );
    ( "schema.canonical",
      [
        Alcotest.test_case "flatten" `Quick test_canonical_flatten;
        Alcotest.test_case "drop zero" `Quick test_canonical_drop_zero;
        Alcotest.test_case "unwrap single" `Quick test_canonical_unwrap_single;
        Alcotest.test_case "dedup choice" `Quick test_canonical_dedup_choice;
        Alcotest.test_case "schema preserved" `Quick test_canonical_schema_preserves_validation;
        Alcotest.test_case "equivalence" `Quick test_equivalence_distinguishes;
      ] );
    ( "schema.roundtrip",
      [
        Alcotest.test_case "paper examples" `Quick test_roundtrip_examples;
        Alcotest.test_case "invalid rejected" `Quick test_roundtrip_rejects_invalid;
        Alcotest.test_case "from text" `Quick test_roundtrip_text;
      ] );
    ( "schema.generator",
      [
        Alcotest.test_case "instances valid" `Quick test_generator_instances_valid;
        Alcotest.test_case "random schemas" `Quick test_generator_random_schemas_wellformed;
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "sample values" `Quick test_sample_values_valid;
      ] );
  ]
