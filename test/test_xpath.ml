(* Tests for xsm_xpath: parser, evaluation over the XDM store and the
   block storage, agreement between backends, the planner's index route
   over the block lists. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module B = Xsm_storage.Block_storage
module E = Xsm_xpath.Eval.Over_store
module ES = Xsm_xpath.Eval.Over_storage
module SP = Xsm_xpath.Planner.Over_storage
module P = Xsm_xpath.Path_parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fixture () =
  let store = Store.create () in
  let dnode = Convert.load store Xsm_schema.Samples.example8_document in
  (store, dnode)

let eval store dnode q =
  match E.eval_string store dnode q with
  | Ok ns -> E.strings store ns
  | Error e -> Alcotest.failf "%s: %s" q e

(* ---------------- parser ---------------- *)

let test_parse_shapes () =
  let ok s = check s true (Result.is_ok (P.parse s)) in
  ok "/a/b/c";
  ok "//b";
  ok "/a//b";
  ok "a/b";
  ok "/a/b[2]";
  ok "/a/b[last()]";
  ok "/a/b[position()=3]";
  ok "/a/b[position()<=3]";
  ok "/a/b[position()<3]";
  ok "/a/b[position()>=2]";
  ok "/a/b[position()>1]";
  ok "/a/b[last()-1]";
  ok "//book[author]";
  ok "//book[author=\"Codd\"]/title";
  ok "//book[author='Codd']";
  ok "/a/@id";
  ok "/a/text()";
  ok "//node()";
  ok "/a/*";
  ok "child::a/descendant::b";
  ok "ancestor::a";
  ok "following-sibling::*";
  ok "..";
  ok "self::a"

let test_parse_errors () =
  let bad s = check s true (Result.is_error (P.parse s)) in
  bad "";
  bad "/";
  bad "/a[";
  bad "/a[]";
  bad "/a]";
  bad "/a[b=]";
  bad "bogus::a";
  bad "/a/b[1";
  bad "/a b";
  bad "/a/b[position()!3]";
  bad "/a/b[last()-]"

let test_parse_print_roundtrip () =
  List.iter
    (fun s ->
      let p = P.parse_exn s in
      let printed = Xsm_xpath.Path_ast.to_string p in
      let p2 = P.parse_exn printed in
      check s true (Xsm_xpath.Path_ast.to_string p2 = printed))
    [ "/a/b/c"; "//b[2]"; "/a//b[last()]"; "/a//b[last()-2]"; "/a/@id";
      "//book[author=\"X\"]/title"; "//b[position()<=3]"; "//b[position()>1]" ]

(* ---------------- evaluation over the store ---------------- *)

let test_eval_basics () =
  let store, dnode = fixture () in
  Alcotest.(check (list string)) "book titles"
    [ "Foundations of Databases"; "An Introduction to Database Systems" ]
    (eval store dnode "/library/book/title");
  check_int "authors anywhere" 6 (List.length (eval store dnode "//author"));
  Alcotest.(check (list string)) "positional"
    [ "An Introduction to Database Systems" ]
    (eval store dnode "/library/book[2]/title");
  Alcotest.(check (list string)) "last()"
    [ "The Complexity of Relational Query Languages" ]
    (eval store dnode "/library/paper[last()]/title");
  Alcotest.(check (list string)) "last()-1"
    [ "A Relational Model for Large Shared Data Banks" ]
    (eval store dnode "/library/paper[last()-1]/title");
  Alcotest.(check (list string)) "position()<=2"
    [ "Abiteboul"; "Hull" ]
    (eval store dnode "/library/book[1]/author[position()<=2]");
  Alcotest.(check (list string)) "position()>1"
    [ "Hull"; "Vianu" ]
    (eval store dnode "/library/book[1]/author[position()>1]");
  Alcotest.(check (list string)) "filter by child value"
    [ "A Relational Model for Large Shared Data Banks";
      "The Complexity of Relational Query Languages" ]
    (eval store dnode "//paper[author=\"Codd\"]/title");
  Alcotest.(check (list string)) "exists filter"
    [ "An Introduction to Database Systems" ]
    (eval store dnode "//book[issue]/title");
  check_int "wildcard" 4 (List.length (eval store dnode "/library/*"));
  Alcotest.(check (list string)) "text()"
    [ "Abiteboul"; "Hull"; "Vianu" ]
    (eval store dnode "/library/book[1]/author/text()")

let test_eval_axes () =
  let store, dnode = fixture () in
  Alcotest.(check (list string)) "parent"
    [ "Addison-Wesley2004" ]
    (eval store dnode "//publisher/..");
  check_int "ancestors of year" 4
    (List.length
       (match E.eval_string store dnode "//year/ancestor::*" with
       | Ok ns -> ns
       | Error e -> Alcotest.fail e)
     |> fun n -> n + 1);
  (* ^ //year has ancestors issue, book, library (3 elements); adding 1 = 4
       keeps the arithmetic explicit *)
  Alcotest.(check (list string)) "following-sibling"
    [ "Hull"; "Vianu" ]
    (eval store dnode "/library/book[1]/author[1]/following-sibling::*");
  Alcotest.(check (list string)) "preceding-sibling of issue"
    [ "An Introduction to Database Systems"; "Date" ]
    (eval store dnode "//issue/preceding-sibling::*" |> List.sort compare)

let test_eval_document_order_dedup () =
  let store, dnode = fixture () in
  (* //title//.. style nonsense can produce duplicates before dedup *)
  match E.eval_string store dnode "//author/ancestor-or-self::*/ancestor::library" with
  | Ok ns -> check_int "dedup to one library" 1 (List.length ns)
  | Error e -> Alcotest.fail e

let test_eval_attributes () =
  let store = Store.create () in
  let doc =
    Xsm_xml.Tree.document
      (Xsm_xml.Tree.elem "r"
         ~children:
           [
             Xsm_xml.Tree.element
               (Xsm_xml.Tree.elem "item" ~attrs:[ Xsm_xml.Tree.attr "id" "a" ]);
             Xsm_xml.Tree.element
               (Xsm_xml.Tree.elem "item" ~attrs:[ Xsm_xml.Tree.attr "id" "b" ]);
           ])
  in
  let dnode = Convert.load store doc in
  Alcotest.(check (list string)) "@id" [ "a"; "b" ] (eval store dnode "/r/item/@id");
  Alcotest.(check (list string)) "filter on attribute"
    [ "b" ]
    (eval store dnode "/r/item[@id=\"b\"]/@id")

(* ---------------- storage backend agreement ---------------- *)

let queries =
  [
    "/library/book/title"; "//author"; "/library/book[2]/title"; "//paper[author=\"Codd\"]/title";
    "/library/*"; "//book[issue]/title"; "//year"; "/library/paper[last()]/title";
    "//issue/publisher"; "/library/book[1]/author/text()";
    "/library/paper[last()-1]/title"; "/library/book[1]/author[position()<=2]";
    "/library/book[1]/author[position()>1]";
  ]

let test_backend_agreement () =
  let store, dnode = fixture () in
  let bs = B.of_store ~block_capacity:4 store dnode in
  let rootd = B.root bs in
  List.iter
    (fun q ->
      let a = eval store dnode q in
      match ES.eval_string bs rootd q with
      | Ok ds -> Alcotest.(check (list string)) q a (List.map (B.string_value bs) ds)
      | Error e -> Alcotest.failf "%s: %s" q e)
    queries

let test_backend_agreement_random () =
  let rng = Xsm_schema.Generator.rng 2024 in
  for _ = 1 to 5 do
    let schema = Xsm_schema.Generator.random_schema ~max_depth:3 rng in
    let doc = Xsm_schema.Generator.instance rng schema in
    let store = Store.create () in
    let dnode = Convert.load store doc in
    let bs = B.of_store store dnode in
    let rootd = B.root bs in
    List.iter
      (fun q ->
        match E.eval_string store dnode q, ES.eval_string bs rootd q with
        | Ok a, Ok b ->
          Alcotest.(check (list string)) q
            (E.strings store a)
            (List.map (B.string_value bs) b)
        | Error _, Error _ -> ()
        | _ -> Alcotest.failf "one backend failed on %s" q)
      [ "//*"; "//text()"; "/root/*" ]
  done

(* ---------------- the planner over the block lists ---------------- *)

let storage_planner bs = SP.create bs (B.root bs)

let test_storage_planner_agreement () =
  let store, dnode = fixture () in
  let bs = B.of_store ~block_capacity:4 store dnode in
  let planner = storage_planner bs in
  List.iter
    (fun q ->
      check (q ^ " takes the index route") true (SP.uses_index planner (P.parse_exn q));
      match SP.eval_string planner q with
      | Ok ds ->
        Alcotest.(check (list string)) q (eval store dnode q)
          (List.map (B.string_value bs) ds)
      | Error e -> Alcotest.failf "%s: %s" q e)
    [ "/library/book/title"; "//author"; "//title"; "/library/paper/author"; "//issue/year" ]

let test_storage_planner_fallback_shapes () =
  let store, dnode = fixture () in
  let bs = B.of_store store dnode in
  let planner = storage_planner bs in
  let indexed q = SP.uses_index planner (P.parse_exn q) in
  check "positional predicate falls back" false (indexed "/library/book[2]");
  check "relative path falls back" false (indexed "book/title");
  check "child path indexed" true (indexed "/library/book/title");
  (* a fallback still answers, through the evaluator *)
  match SP.eval_string planner "/library/book[2]/title" with
  | Ok ds ->
    Alcotest.(check (list string)) "fallback answer" (eval store dnode "/library/book[2]/title")
      (List.map (B.string_value bs) ds)
  | Error e -> Alcotest.fail e

let test_storage_planner_document_order () =
  let store, dnode = fixture () in
  let bs = B.of_store ~block_capacity:2 store dnode in
  match SP.eval_string (storage_planner bs) "//title" with
  | Ok ds ->
    let nids = List.map B.nid ds in
    let rec increasing = function
      | a :: (b :: _ as rest) ->
        Xsm_numbering.Sedna_label.compare a b < 0 && increasing rest
      | [ _ ] | [] -> true
    in
    check "merged in document order" true (increasing nids)
  | Error e -> Alcotest.fail e

let suite =
  [
    ( "xpath.parser",
      [
        Alcotest.test_case "shapes" `Quick test_parse_shapes;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "print roundtrip" `Quick test_parse_print_roundtrip;
      ] );
    ( "xpath.eval",
      [
        Alcotest.test_case "basics" `Quick test_eval_basics;
        Alcotest.test_case "axes" `Quick test_eval_axes;
        Alcotest.test_case "dedup + order" `Quick test_eval_document_order_dedup;
        Alcotest.test_case "attributes" `Quick test_eval_attributes;
      ] );
    ( "xpath.backends",
      [
        Alcotest.test_case "agreement" `Quick test_backend_agreement;
        Alcotest.test_case "agreement (random)" `Quick test_backend_agreement_random;
      ] );
    ( "xpath.storage-planner",
      [
        Alcotest.test_case "agreement" `Quick test_storage_planner_agreement;
        Alcotest.test_case "fallback shapes" `Quick test_storage_planner_fallback_shapes;
        Alcotest.test_case "document order" `Quick test_storage_planner_document_order;
      ] );
  ]
