(* Tests for the index subsystem: the extent join algebra, typed value
   indexes, and — the contract that matters — indexed evaluation
   returning exactly the node list (same nodes, document order, no
   duplicates) the naive evaluator returns, on fixed fixtures, on
   random generated documents, and after random updates. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name
module Label = Xsm_numbering.Sedna_label
module B = Xsm_storage.Block_storage
module E = Xsm_xpath.Eval.Over_store
module ES = Xsm_xpath.Eval.Over_storage
module P = Xsm_xpath.Path_parser
module Pl = Xsm_xpath.Planner.Over_store
module PlS = Xsm_xpath.Planner.Over_storage
module Extent = Xsm_index.Extent
module VI = Xsm_index.Value_index
module Gen = Xsm_schema.Generator
module Update = Xsm_schema.Update

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_nodes = Alcotest.(check (list int))

let check_store_nodes msg a b =
  check_nodes msg (List.map Store.node_id a) (List.map Store.node_id b)

let fixture () =
  let store = Store.create () in
  let dnode = Convert.load store Xsm_schema.Samples.example8_document in
  (store, dnode)

(* ---------------- the extent join algebra ---------------- *)

let extent_of labels =
  Extent.of_rev_list (List.rev_map (fun (l, n) -> { Extent.label = l; node = n }) labels)

let test_extent_joins () =
  (* three siblings under the root, each with two children *)
  let sibs = Label.assign_children Label.root 3 in
  let kids l = Label.assign_children l 2 in
  let s1, s2, s3 =
    match sibs with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "assign_children"
  in
  let parents = extent_of [ (s1, 1); (s3, 3) ] in
  let all_kids =
    extent_of
      (List.concat_map
         (fun (s, i) -> List.mapi (fun j l -> (l, (10 * i) + j)) (kids s))
         [ (s1, 1); (s2, 2); (s3, 3) ])
  in
  check_nodes "parent join keeps children of restricted parents"
    [ 10; 11; 30; 31 ]
    (Extent.nodes (Extent.restrict_by_parent ~among:parents all_kids));
  check_nodes "ancestor join agrees on depth-2 descendants"
    [ 10; 11; 30; 31 ]
    (Extent.nodes (Extent.restrict_by_ancestor ~among:parents all_kids));
  check_nodes "semijoin keeps parents that contain a target"
    [ 1 ]
    (Extent.nodes
       (Extent.semijoin_containing
          ~targets:[ extent_of [ (List.hd (kids s1), 10) ] ]
          parents));
  let some_kids = extent_of [ (List.nth (kids s1) 1, 11); (List.hd (kids s2), 20) ] in
  check_nodes "intersection by label" [ 11 ]
    (Extent.nodes (Extent.inter all_kids some_kids) |> List.filter (fun n -> n = 11));
  check_int "merge dedups by label" (Extent.length all_kids)
    (Extent.length (Extent.merge [ all_kids; some_kids; Extent.empty ]))

(* ---------------- typed value indexes ---------------- *)

let test_value_index_probes () =
  (* six owner labels in document order; target = owner (leaf values) *)
  let labels = Array.of_list (Label.assign_children Label.root 6) in
  let pos_of =
    let assoc =
      Array.to_list (Array.mapi (fun i l -> (Label.to_raw l, i)) labels)
    in
    fun l -> List.assoc (Label.to_raw l) assoc
  in
  let vi = VI.create () in
  let set i s =
    VI.set_target vi ~target:labels.(i) ~owner:labels.(i) [ (VI.Key.of_string s, s) ]
  in
  set 0 "10";
  set 1 "2";
  set 2 "30";
  set 3 "abc";
  set 4 "b";
  set 5 "10";
  let eq s = List.map pos_of (VI.eq vi s) in
  let range op probe = List.map pos_of (VI.range vi op (VI.Key.of_string probe)) in
  Alcotest.(check (list int)) "eq on exact string" [ 0; 5 ] (eq "10");
  Alcotest.(check (list int)) "eq misses" [] (eq "10.5");
  Alcotest.(check (list int)) "numeric range < 10" [ 1 ] (range VI.Lt "10");
  Alcotest.(check (list int)) "numeric range <= 10" [ 0; 1; 5 ] (range VI.Le "10");
  Alcotest.(check (list int)) "numeric range > 2 stays numeric" [ 0; 2; 5 ] (range VI.Gt "2");
  Alcotest.(check (list int)) "text range >= b stays textual" [ 4 ] (range VI.Ge "b");
  check "numbers order before text" true
    (VI.Key.compare (VI.Key.of_string "999") (VI.Key.of_string "a") < 0);
  check "decimal key is exact" true
    (VI.Key.compare (VI.Key.of_value (Xsm_datatypes.Value.Decimal (Xsm_datatypes.Decimal.of_int 10)))
       (VI.Key.of_string "10.0")
    = 0);
  (* keyed maintenance: replacing and removing a target's entries *)
  check_int "six entries" 6 (VI.size vi);
  set 5 "99";
  Alcotest.(check (list int)) "replaced target left the old key" [ 0 ] (eq "10");
  Alcotest.(check (list int)) "and answers under the new key" [ 5 ] (eq "99");
  VI.remove_target vi labels.(1);
  Alcotest.(check (list int)) "removed target no longer answers" [] (eq "2");
  check_int "five entries left" 5 (VI.size vi);
  check_int "five targets left" 5 (VI.target_count vi)

(* ---------------- parser: comparison predicates ---------------- *)

let test_parse_comparisons () =
  let ok s = check s true (Result.is_ok (P.parse s)) in
  let bad s = check s true (Result.is_error (P.parse s)) in
  ok "//book[price<30]";
  ok "//book[price <= 30.5]/title";
  ok "//book[price > \"x\"]";
  ok "//book[issue/year >= 2000]";
  ok "/r/item[@id>'a']";
  ok "//book[price<-3]";
  bad "/a[b<]";
  bad "/a[<3]";
  (* printing round-trips through the parser *)
  List.iter
    (fun s ->
      let printed = Xsm_xpath.Path_ast.to_string (P.parse_exn s) in
      check s true (Xsm_xpath.Path_ast.to_string (P.parse_exn printed) = printed))
    [ "//book[price<30]"; "//book[issue/year>=2000]/title"; "/r/item[@id>\"a\"]" ]

(* ---------------- planner vs naive evaluator ---------------- *)

let indexed_queries =
  [
    "/library/book/title";
    "//author";
    "/library/*";
    "//text()";
    "//book[issue]/title";
    "//paper[author=\"Codd\"]/title";
    "/library//year";
    "//issue/year";
    "/library/book/author/text()";
    "/library/descendant::year";
    "/library/descendant-or-self::*";
    "//book[issue/year>=2000]/title";
    "//book[issue/year<2000]/title";
    "//paper[title>\"S\"]/author";
    "//book[issue/publisher]";
  ]

let fallback_queries =
  [
    "/library/book[2]/title";
    "/library/paper[last()]/title";
    "/library/paper[last()-1]/title";
    "/library/book[1]/author[position()<=2]";
    "//publisher/..";
    "//year/ancestor::*";
    "/library/book[1]/author[1]/following-sibling::*";
    "book/title";
  ]

let test_planner_agreement_store () =
  let store, dnode = fixture () in
  let planner = Pl.create store dnode in
  List.iter
    (fun q ->
      let naive =
        match E.eval_string store dnode q with Ok ns -> ns | Error e -> Alcotest.fail e
      in
      match Pl.eval_string planner q with
      | Ok ns -> check_store_nodes q naive ns
      | Error e -> Alcotest.failf "%s: %s" q e)
    (indexed_queries @ fallback_queries)

let test_planner_uses_index () =
  let store, dnode = fixture () in
  let planner = Pl.create store dnode in
  List.iter
    (fun q -> check ("index: " ^ q) true (Pl.uses_index planner (P.parse_exn q)))
    indexed_queries;
  List.iter
    (fun q -> check ("fallback: " ^ q) false (Pl.uses_index planner (P.parse_exn q)))
    fallback_queries;
  (* one (path, relative-path) pair builds exactly one value index,
     reused across probes with different literals *)
  let fresh = Pl.create store dnode in
  check_int "no value indexes yet" 0 (Pl.value_index_count fresh);
  ignore (Pl.eval_string fresh "//paper[author=\"Codd\"]/title");
  ignore (Pl.eval_string fresh "//paper[author=\"Vardi\"]/title");
  ignore (Pl.eval_string fresh "//paper[author=\"Codd\"]");
  check_int "value index cache reused" 1 (Pl.value_index_count fresh);
  Pl.invalidate fresh;
  ignore (Pl.eval_string fresh "//author");
  check_int "refresh drops value indexes" 0 (Pl.value_index_count fresh)

let test_planner_agreement_storage () =
  let store, dnode = fixture () in
  let bs = B.of_store ~block_capacity:4 store dnode in
  let rootd = B.root bs in
  let planner = PlS.create bs rootd in
  let labels ds = List.map (fun d -> Label.to_raw (B.nid d)) ds in
  List.iter
    (fun q ->
      let naive =
        match ES.eval_string bs rootd q with Ok ds -> ds | Error e -> Alcotest.fail e
      in
      match PlS.eval_string planner q with
      | Ok ds -> Alcotest.(check (list string)) q (labels naive) (labels ds)
      | Error e -> Alcotest.failf "%s: %s" q e)
    (indexed_queries @ fallback_queries)

(* The storage planner reads §9's own structures, so building it holds
   nothing per descriptor.  A [Path_index] copy held 9.6 live words per
   descriptor on this library. *)
let test_storage_planner_ceiling () =
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:1000 ~papers:600 () in
  let bs = B.of_store store (Convert.load store doc) in
  let descriptors = B.descriptor_count bs in
  check "at least 12 000 descriptors" true (descriptors >= 12_000);
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let planner = PlS.create bs (B.root bs) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity planner);
  let per = float_of_int (after - before) /. float_of_int descriptors in
  check (Printf.sprintf "%.3f live words per descriptor < 0.5" per) true (per < 0.5)

(* Estimating reads extent sizes from the blocks' resident counts: no
   block is faulted or touched, while evaluating the same paths is *)
let test_storage_planner_estimate_touches_nothing () =
  let store, dnode = fixture () in
  let bs = B.of_store ~block_capacity:2 store dnode in
  let path = Filename.temp_file "xsm-guide" ".pages" in
  let pager = B.attach_pager bs ~capacity:2 (Xsm_pager.Page_file.create ~page_size:512 path) in
  let planner = PlS.create bs (B.root bs) in
  let accesses () = (Xsm_pager.Pager.stats pager).Xsm_pager.Pager.accesses in
  let queries = [ "//author"; "/library/book/title"; "//book[issue/year < 1980]/title" ] in
  let before = accesses () in
  List.iter (fun q -> ignore (PlS.estimate planner (P.parse_exn q))) queries;
  check_int "estimates touch no block" before (accesses ());
  List.iter (fun q -> ignore (PlS.eval_string planner q)) queries;
  check "evaluations scan blocks" true (accesses () > before);
  Sys.remove path

let test_planner_attributes () =
  let store = Store.create () in
  let doc =
    Tree.document
      (Tree.elem "r"
         ~children:
           [
             Tree.element (Tree.elem "item" ~attrs:[ Tree.attr "id" "a" ]);
             Tree.element (Tree.elem "item" ~attrs:[ Tree.attr "id" "b" ]);
             Tree.element (Tree.elem "item" ~attrs:[ Tree.attr "id" "c" ]);
           ])
  in
  let dnode = Convert.load store doc in
  let planner = Pl.create store dnode in
  List.iter
    (fun q ->
      let naive =
        match E.eval_string store dnode q with Ok ns -> ns | Error e -> Alcotest.fail e
      in
      check "uses index" true (Pl.uses_index planner (P.parse_exn q));
      match Pl.eval_string planner q with
      | Ok ns -> check_store_nodes q naive ns
      | Error e -> Alcotest.failf "%s: %s" q e)
    [ "/r/item/@id"; "/r/item[@id=\"b\"]"; "/r/item[@id>\"a\"]/@id"; "//@id" ]

(* ---------------- property: random documents, random updates ------- *)

let element_names store dnode =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun n ->
      match Store.kind store n, Store.node_name store n with
      | Store.Kind.Element, Some name ->
        let s = Name.to_string name in
        if Hashtbl.mem seen s then None
        else begin
          Hashtbl.add seen s ();
          Some s
        end
      | _ -> None)
    (Store.descendants_or_self store dnode)

let queries_for store dnode rng =
  let names = element_names store dnode in
  let pick () = List.nth names (Gen.int rng (List.length names)) in
  let root_name =
    match Store.children store dnode with
    | r :: _ -> Name.to_string (Option.get (Store.node_name store r))
    | [] -> "x"
  in
  let n1 = pick () and n2 = pick () and n3 = pick () in
  [
    "//" ^ n1;
    "/" ^ root_name ^ "/*";
    "//" ^ n2 ^ "//" ^ n3;
    "//" ^ n1 ^ "[" ^ n2 ^ "]";
    "//" ^ n2 ^ "[" ^ n3 ^ ">\"A\"]";
    "//text()";
    "/" ^ root_name ^ "/descendant::" ^ n3;
  ]

let agree planner store dnode q =
  let naive =
    match E.eval_string store dnode q with Ok ns -> ns | Error e -> Alcotest.fail e
  in
  match Pl.eval_string planner q with
  | Ok ns -> check_store_nodes q naive ns
  | Error e -> Alcotest.failf "%s: %s" q e

let random_mutation store dnode rng =
  let elements =
    List.filter
      (fun n -> Store.kind store n = Store.Kind.Element)
      (Store.descendants_or_self store dnode)
  in
  let pick_elem () = List.nth elements (Gen.int rng (List.length elements)) in
  let op =
    match Gen.int rng 5 with
    | 0 ->
      Update.Insert_element
        {
          parent = pick_elem ();
          before = None;
          tree = Tree.elem "mutant" ~children:[ Tree.text "inserted" ];
        }
    | 1 -> Update.Insert_text { parent = pick_elem (); before = None; text = "mut" }
    | 2 -> (
      (* delete a childless element if one exists *)
      match
        List.find_opt
          (fun n ->
            Store.children store n = []
            &&
            match Store.parent store n with
            | Some p -> not (Store.equal_node p dnode)
            | None -> false)
          elements
      with
      | Some leaf -> Update.Delete leaf
      | None -> Update.Insert_text { parent = pick_elem (); before = None; text = "x" })
    | 3 -> (
      let texts =
        List.filter
          (fun n -> Store.kind store n = Store.Kind.Text)
          (Store.descendants_or_self store dnode)
      in
      match texts with
      | [] -> Update.Insert_text { parent = pick_elem (); before = None; text = "y" }
      | ts -> Update.Replace_content { node = List.nth ts (Gen.int rng (List.length ts)); value = "42" })
    | _ ->
      Update.Set_attribute
        { element = pick_elem (); name = Name.local "mut"; value = "7" }
  in
  match Update.apply store op with Ok _ -> () | Error _ -> ()

let test_property_random_docs () =
  let rng = Gen.rng 99 in
  for _ = 1 to 8 do
    let schema = Gen.random_schema ~max_depth:3 rng in
    let doc = Gen.instance rng schema in
    let store = Store.create () in
    let dnode = Convert.load store doc in
    let planner = Pl.create store dnode in
    let queries = queries_for store dnode rng in
    List.iter (agree planner store dnode) queries;
    (* mutate, invalidate, and check the rebuilt index again *)
    for _ = 1 to 4 do
      random_mutation store dnode rng
    done;
    Pl.invalidate planner;
    check "stale after invalidate" true (Pl.stale planner);
    List.iter (agree planner store dnode) (queries_for store dnode rng @ queries);
    check "fresh after re-evaluation" false (Pl.stale planner)
  done

let test_property_library () =
  (* the bench fixture, at a size where mistakes in the joins would show *)
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books:60 ~papers:30 () in
  let dnode = Convert.load store doc in
  let planner = Pl.create store dnode in
  List.iter
    (agree planner store dnode)
    [
      "//author";
      "/library/book/title";
      "//book[issue/year<1990]/title";
      "//book[issue/year>=1985]//year";
      "//book[issue]/author";
      "/library//publisher";
    ]

(* ---------------- qcheck: maintained index = rebuilt index --------

   The per-key counts behind {!VI.summary} are maintained inside
   [set_target]/[remove_target] — the calls the planner issues while
   it absorbs a batch of changes — and so are the probe structures: once
   a probe has built them, each call splices its entries in and out,
   and the assembled summary is memoized until the next call.  After
   any random maintenance history, with probes and summaries taken
   between the steps, the maintained index must answer [eq], [range]
   and [summary] exactly like an index built from scratch over the
   same ground truth, and its summary must equal
   {!VI.rebuilt_summary}.  Keys are compared with [VI.Key.compare]:
   lexical variants of one decimal ("7", "7.0") are one key even when
   their representations differ. *)

module Q = QCheck

let seed_gen = Q.make ~print:string_of_int Q.Gen.(int_bound 1_000_000)

let to_alco ?(count = 200) name law =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name seed_gen law)

let summary_equal (a : VI.summary) (b : VI.summary) =
  a.VI.s_rows = b.VI.s_rows
  && a.VI.s_targets = b.VI.s_targets
  && a.VI.s_distinct = b.VI.s_distinct
  && a.VI.s_numbers = b.VI.s_numbers
  && List.length a.VI.s_buckets = List.length b.VI.s_buckets
  && List.for_all2
       (fun (k1, c1) (k2, c2) -> VI.Key.compare k1 k2 = 0 && c1 = c2)
       a.VI.s_buckets b.VI.s_buckets

let stats_law seed =
  let rng = Gen.rng seed in
  let vi = VI.create () in
  (* ground truth: target label -> (owner, values) *)
  let truth = Hashtbl.create 32 in
  let labels = Array.of_list (Label.assign_children Label.root 24) in
  (* fewer owners than targets: several targets answer with one owner *)
  let owners = Array.sub labels 0 6 in
  let value () =
    (* a mix of integers, decimals, text, lexical variants of one
       number, and whitespace-padded numerics (keyed as numbers) *)
    match Gen.int rng 6 with
    | 0 -> "7"
    | 1 -> "7.0"
    | 2 -> string_of_int (Gen.int rng 20)
    | 3 -> Printf.sprintf "%d.%d" (Gen.int rng 10) (Gen.int rng 100)
    | 4 -> String.make 1 (Char.chr (Char.code 'a' + Gen.int rng 5))
    | _ -> Printf.sprintf " %d " (Gen.int rng 20)
  in
  let literals = [ "7"; "7.0"; "3"; " 5 "; "a"; "c"; "e"; "1.5"; "19" ] in
  let probes = List.map VI.Key.of_string literals in
  let bucket_counts = [ 1; 4; 8 ] in
  let pick xs = List.nth xs (Gen.int rng (List.length xs)) in
  (* take a probe or a summary now and then, so the caches and the
     memo are live while later steps maintain them *)
  let touch () =
    match Gen.int rng 4 with
    | 0 -> ignore (VI.eq vi (pick literals))
    | 1 -> ignore (VI.range vi (pick [ VI.Lt; VI.Le; VI.Gt; VI.Ge ]) (pick probes))
    | 2 -> ignore (VI.summary ~buckets:(pick bucket_counts) vi)
    | _ -> ()
  in
  let fail what = Alcotest.failf "maintained %s diverged from rebuild (seed %d)" what seed in
  for _batch = 1 to 1 + Gen.int rng 6 do
    for _ = 1 to 1 + Gen.int rng 10 do
      let t = labels.(Gen.int rng (Array.length labels)) in
      (match Gen.int rng 4 with
      | 0 ->
        VI.remove_target vi t;
        Hashtbl.remove truth t
      | _ ->
        (* 0 values = removal through the set_target path *)
        let owner = owners.(Gen.int rng (Array.length owners)) in
        let vals =
          List.init (Gen.int rng 3) (fun _ ->
              let s = value () in
              (VI.Key.of_string s, s))
        in
        VI.set_target vi ~target:t ~owner vals;
        if vals = [] then Hashtbl.remove truth t else Hashtbl.replace truth t (owner, vals));
      touch ()
    done;
    let fresh = VI.create () in
    Hashtbl.iter (fun target (owner, vals) -> VI.set_target fresh ~target ~owner vals) truth;
    List.iter
      (fun lit -> if VI.eq vi lit <> VI.eq fresh lit then fail ("eq " ^ lit))
      literals;
    List.iter
      (fun op ->
        List.iter
          (fun probe -> if VI.range vi op probe <> VI.range fresh op probe then fail "range")
          probes)
      [ VI.Lt; VI.Le; VI.Gt; VI.Ge ];
    List.iter
      (fun buckets ->
        let s = VI.summary ~buckets vi in
        if not (summary_equal s (VI.rebuilt_summary ~buckets vi)) then
          fail (Printf.sprintf "summary (%d buckets) vs rebuilt_summary" buckets);
        if not (summary_equal s (VI.summary ~buckets fresh)) then
          fail (Printf.sprintf "summary (%d buckets) vs a fresh index" buckets))
      (* the last touched bucket count first, so a stale memo shows *)
      (List.rev bucket_counts)
  done;
  true

(* ---------------- the build ---------------- *)

(* A library with an attribute on every book: the build's labels are
   exactly the document-order labelling of the tree ({!Labeler.label_tree},
   attributes ahead of children), every extent is in document order,
   and path nodes are numbered in first-encounter pre-order. *)
let library_with_ids books =
  let store = Store.create () in
  let doc = Xsm_schema.Samples.library_document ~books ~papers:(books / 4) () in
  let dnode = Convert.load store doc in
  let library = List.hd (Store.children store dnode) in
  List.iteri
    (fun i book ->
      Store.attach_attribute store book
        (Store.new_attribute store (Name.local "id") (Printf.sprintf "b%d" i)))
    (Store.children store library);
  (store, dnode)

let test_build_labels () =
  let store, dnode = library_with_ids 12 in
  let idx = Pl.PI.build store dnode in
  let labels = Xsm_numbering.Labeler.label_tree store dnode in
  let nodes = Store.descendants_or_self store dnode in
  check_int "every node indexed" (List.length nodes) (Pl.PI.entry_count idx);
  List.iter
    (fun n ->
      match Pl.PI.locate idx store n with
      | None -> Alcotest.fail "a node is not indexed"
      | Some (pn, l) ->
        check "label = the document-order labelling" true
          (Label.equal l (Xsm_numbering.Labeler.label labels n));
        check "the node is in its path's extent" true (Extent.mem (Pl.PI.extent idx pn) l))
    nodes;
  let rec pre acc pn = List.fold_left pre (Pl.PI.id pn :: acc) (Pl.PI.children idx pn) in
  check_nodes "pnode ids in first-encounter pre-order"
    (List.init (Pl.PI.pnode_count idx) Fun.id)
    (List.rev (pre [] (Pl.PI.root idx)));
  for pid = 0 to Pl.PI.pnode_count idx - 1 do
    let ls = List.map (fun (e : _ Extent.entry) -> e.Extent.label) (Extent.entries (Pl.PI.extent idx (Pl.PI.pnode idx pid))) in
    check "extent in document order" true (List.sort Label.compare ls = ls)
  done

(* What a build allocates per indexed node — its extent entry, its id
   table slots, its label — on a 400-book library: 30 words is the
   ceiling. *)
let test_build_words_per_node () =
  let store, dnode = library_with_ids 400 in
  let nodes = float_of_int (Store.subtree_size store dnode) in
  ignore (Pl.PI.build store dnode);
  let w0 = Gc.minor_words () in
  let idx = Pl.PI.build store dnode in
  let per_node = (Gc.minor_words () -. w0) /. nodes in
  ignore (Sys.opaque_identity idx);
  if per_node > 30. then Alcotest.failf "%.1f minor words per node, ceiling 30" per_node

let suite =
  [
    ( "index.build",
      [
        Alcotest.test_case "labels and pnode ids" `Quick test_build_labels;
        Alcotest.test_case "at most 30 words per node" `Quick test_build_words_per_node;
      ] );
    ( "index.extent",
      [
        Alcotest.test_case "structural joins" `Quick test_extent_joins;
        Alcotest.test_case "value index probes" `Quick test_value_index_probes;
      ] );
    ( "index.parser",
      [ Alcotest.test_case "comparison predicates" `Quick test_parse_comparisons ] );
    ( "index.planner",
      [
        Alcotest.test_case "agreement (store)" `Quick test_planner_agreement_store;
        Alcotest.test_case "agreement (storage)" `Quick test_planner_agreement_storage;
        Alcotest.test_case "index vs fallback" `Quick test_planner_uses_index;
        Alcotest.test_case "attributes" `Quick test_planner_attributes;
        Alcotest.test_case "storage planner ceiling" `Quick test_storage_planner_ceiling;
        Alcotest.test_case "storage estimate touches nothing" `Quick
          test_storage_planner_estimate_touches_nothing;
      ] );
    ( "index.property",
      [
        Alcotest.test_case "random docs + updates" `Quick test_property_random_docs;
        Alcotest.test_case "library fixture" `Quick test_property_library;
        to_alco ~count:120 "maintained stats = rebuilt stats" stats_law;
      ] );
  ]
