(* Differential index maintenance: a planner handed the change of
   every applied update keeps answering exactly like the naive
   evaluator — and like a planner rebuilt from scratch — without
   rebuilding, across inserts, deletes, content replacement and
   attribute updates. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name
module E = Xsm_xpath.Eval.Over_store
module Pl = Xsm_xpath.Planner.Over_store
module Gen = Xsm_schema.Generator
module Update = Xsm_schema.Update

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_store_nodes msg a b =
  Alcotest.(check (list int)) msg (List.map Store.node_id a) (List.map Store.node_id b)

let library ?(books = 20) ?(papers = 10) () =
  let store = Store.create () in
  let dnode =
    Convert.load store (Xsm_schema.Samples.library_document ~books ~papers ())
  in
  (store, dnode)

let apply_exn store op =
  match Update.apply store op with
  | Ok applied -> applied
  | Error e -> Alcotest.fail e

(* apply, and hand the planner the change, as every caller does *)
let apply_fed planner store op = Pl.apply_changes planner [ Update.change (apply_exn store op) ]

let queries =
  [
    "//author";
    "/library/book/title";
    "//book[issue/year<1990]/title";
    "//book[issue/year>=1985]//year";
    "//book[issue]/author";
    "/library//publisher";
    "//text()";
  ]

let agree planner store dnode q =
  let naive =
    match E.eval_string store dnode q with Ok ns -> ns | Error e -> Alcotest.fail e
  in
  match Pl.eval_string planner q with
  | Ok ns -> check_store_nodes q naive ns
  | Error e -> Alcotest.failf "%s: %s" q e

let agree_all planner store dnode = List.iter (agree planner store dnode) queries

(* the maintained index holds exactly the entries a from-scratch build
   would: same entry count (pnode counts may differ — maintenance keeps
   emptied path nodes around, a rebuild never learns about them) *)
let same_as_rebuild planner store dnode =
  let fresh = Pl.create store dnode in
  check_int "maintained entry count = rebuilt entry count"
    (Pl.PI.entry_count (Pl.index fresh))
    (Pl.PI.entry_count (Pl.index planner))

let book_tree i =
  Tree.elem "book"
    ~children:
      [
        Tree.element (Tree.elem "title" ~children:[ Tree.text (Printf.sprintf "Fresh %d" i) ]);
        Tree.element (Tree.elem "author" ~children:[ Tree.text "Maintainer" ]);
        Tree.element
          (Tree.elem "issue"
             ~children:
               [
                 Tree.element
                   (Tree.elem "year" ~children:[ Tree.text (string_of_int (1950 + i)) ]);
                 Tree.element
                   (Tree.elem "publisher" ~children:[ Tree.text "Inc HQ" ]);
               ]);
      ]

(* ---------------- the change an update makes ---------------- *)

let test_undo_mirror () =
  let store, dnode = library () in
  let planner = Pl.create store dnode in
  let libr = List.hd (Store.children store dnode) in
  let applied =
    apply_exn store (Update.Insert_element { parent = libr; before = None; tree = book_tree 0 })
  in
  let undone = Update.undo store applied in
  (match (Update.change applied, undone) with
  | Update.Added a, Update.Removed b ->
    check "mirror names the same node" true (Store.equal_node a b)
  | _ -> Alcotest.fail "expected Added, then Removed");
  (* a planner fed both the apply and the undo ends where it began *)
  Pl.apply_changes planner [ Update.change applied; undone ];
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  (* and so for a delete, a content change and a fresh attribute *)
  let book = List.hd (Store.children store libr) in
  let text =
    List.find (fun n -> Store.kind store n = Store.Kind.Text) (Store.descendants_or_self store book)
  in
  List.iter
    (fun op ->
      let applied = apply_exn store op in
      Pl.apply_changes planner [ Update.change applied ];
      Pl.apply_changes planner [ Update.undo store applied ];
      agree_all planner store dnode;
      same_as_rebuild planner store dnode)
    [
      Update.Delete book;
      Update.Replace_content { node = text; value = "1492" };
      Update.Set_attribute { element = book; name = Name.local "tag"; value = "a" };
    ];
  check_int "never rebuilt" 1 (Pl.maintenance_stats planner).Xsm_xpath.Planner.epochs

(* ---------------- structural maintenance ---------------- *)

let test_incremental_updates () =
  let store, dnode = library () in
  let planner = Pl.create store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  (* insert a whole subtree *)
  apply_fed planner store
    (Update.Insert_element { parent = libr; before = None; tree = book_tree 1 });
  agree_all planner store dnode;
  (* insert before an anchor (exercises label-between) *)
  let anchor = List.nth (Store.children store libr) 3 in
  apply_fed planner store
    (Update.Insert_element { parent = libr; before = Some anchor; tree = book_tree 2 });
  agree_all planner store dnode;
  (* delete a subtree *)
  apply_fed planner store (Update.Delete (List.nth (Store.children store libr) 5));
  agree_all planner store dnode;
  (* replace a text's content *)
  let a_text =
    List.find
      (fun n -> Store.kind store n = Store.Kind.Text)
      (Store.descendants_or_self store dnode)
  in
  apply_fed planner store (Update.Replace_content { node = a_text; value = "2001" });
  agree_all planner store dnode;
  (* attach a fresh attribute, then overwrite it *)
  let an_elem = List.hd (Store.children store libr) in
  apply_fed planner store
    (Update.Set_attribute { element = an_elem; name = Name.local "tag"; value = "a" });
  apply_fed planner store
    (Update.Set_attribute { element = an_elem; name = Name.local "tag"; value = "b" });
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  let stats = Pl.maintenance_stats planner in
  check_int "never rebuilt" 1 stats.Xsm_xpath.Planner.epochs;
  check "changes were absorbed incrementally" true (stats.Xsm_xpath.Planner.applied >= 6)

let test_batched_replay () =
  (* many updates handed over in one batch, in order, against the
     final store state — including an insert whose subtree is deleted
     again before the planner ever looks *)
  let store, dnode = library () in
  let planner = Pl.create store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  let step op = Update.change (apply_exn store op) in
  let c1 = step (Update.Insert_element { parent = libr; before = None; tree = book_tree 7 }) in
  let c2 = step (Update.Delete (List.nth (Store.children store libr) 0)) in
  let c3 = step (Update.Delete (List.rev (Store.children store libr) |> List.hd)) in
  let c4 = step (Update.Insert_element { parent = libr; before = None; tree = book_tree 8 }) in
  Pl.apply_changes planner [ c1; c2; c3; c4 ];
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  check_int "one batch, no rebuild" 1 (Pl.maintenance_stats planner).Xsm_xpath.Planner.epochs

(* ---------------- value index maintenance ---------------- *)

let test_value_index_maintenance () =
  let store, dnode = library () in
  let planner = Pl.create store dnode in
  let q = "//book[issue/year<1990]/title" in
  agree planner store dnode q;
  check_int "value index cached" 1 (Pl.value_index_count planner);
  (* flip a year across the predicate boundary *)
  let year_text =
    let years =
      match E.eval_string store dnode "//book/issue/year/text()" with
      | Ok ns -> ns
      | Error e -> Alcotest.fail e
    in
    List.hd years
  in
  apply_fed planner store (Update.Replace_content { node = year_text; value = "1800" });
  agree planner store dnode q;
  apply_fed planner store (Update.Replace_content { node = year_text; value = "2100" });
  agree planner store dnode q;
  (* a freshly inserted book must show up in the probe answers *)
  let libr = List.hd (Store.children store dnode) in
  apply_fed planner store
    (Update.Insert_element { parent = libr; before = None; tree = book_tree 3 });
  agree planner store dnode q;
  (* ... and a deleted one must disappear from them *)
  apply_fed planner store (Update.Delete (List.hd (Store.children store libr)));
  agree planner store dnode q;
  let stats = Pl.maintenance_stats planner in
  check_int "maintained, not rebuilt" 1 stats.Xsm_xpath.Planner.epochs;
  check "the value index survived maintenance" true (Pl.value_index_count planner >= 1)

(* ---------------- the size-ratio heuristic ---------------- *)

let test_heuristic_falls_back_to_rebuild () =
  let store, dnode = library ~books:2 ~papers:1 () in
  let planner = Pl.create store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  (* a batch far larger than a quarter of this small index, handed
     over at once as `xsm load --index` hands its subtrees *)
  let batch =
    List.init 12 (fun i ->
        Update.change
          (apply_exn store
             (Update.Insert_element { parent = libr; before = None; tree = book_tree (i + 1) })))
  in
  Pl.apply_changes planner batch;
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  let stats = Pl.maintenance_stats planner in
  check "big batch triggered a rebuild" true (stats.Xsm_xpath.Planner.epochs > 1)

(* ---------------- random sequences, every prefix ---------------- *)

let random_fed_op planner store dnode rng step =
  let int = Gen.int in
  let elements =
    List.filter
      (fun n -> Store.kind store n = Store.Kind.Element)
      (Store.descendants_or_self store dnode)
  in
  let pick_elem () = List.nth elements (int rng (List.length elements)) in
  let deletable =
    List.filter
      (fun n ->
        match Store.parent store n with
        | Some p -> not (Store.equal_node p dnode)
        | None -> false)
      elements
  in
  let op =
    match int rng 6 with
    | 0 ->
      Update.Insert_element
        { parent = pick_elem (); before = None; tree = book_tree step }
    | 1 ->
      Update.Insert_text { parent = pick_elem (); before = None; text = "interleaved" }
    | 2 when deletable <> [] ->
      (* delete a whole random subtree, not just leaves *)
      Update.Delete (List.nth deletable (int rng (List.length deletable)))
    | 3 -> (
      let texts =
        List.filter
          (fun n -> Store.kind store n = Store.Kind.Text)
          (Store.descendants_or_self store dnode)
      in
      match texts with
      | [] -> Update.Insert_text { parent = pick_elem (); before = None; text = "t" }
      | ts ->
        Update.Replace_content
          { node = List.nth ts (int rng (List.length ts)); value = string_of_int (1900 + step) })
    | _ ->
      Update.Set_attribute
        { element = pick_elem (); name = Name.local "m"; value = string_of_int step }
  in
  match Update.apply store op with
  | Ok applied -> Pl.apply_changes planner [ Update.change applied ]
  | Error _ -> ()

let test_property_prefixes () =
  let rng = Gen.rng 4242 in
  for _ = 1 to 12 do
    let store, dnode = library ~books:4 ~papers:2 () in
    let planner = Pl.create store dnode in
    for step = 1 to 6 do
      random_fed_op planner store dnode rng step;
      (* every prefix of the sequence: maintained = naive = rebuilt *)
      agree_all planner store dnode;
      same_as_rebuild planner store dnode
    done
  done

let suite =
  [
    ( "index.maintenance",
      [
        Alcotest.test_case "undo mirrors the change" `Quick test_undo_mirror;
        Alcotest.test_case "incremental updates" `Quick test_incremental_updates;
        Alcotest.test_case "batched replay" `Quick test_batched_replay;
        Alcotest.test_case "value index upkeep" `Quick test_value_index_maintenance;
        Alcotest.test_case "size-ratio heuristic" `Quick test_heuristic_falls_back_to_rebuild;
        Alcotest.test_case "random prefixes" `Quick test_property_prefixes;
      ] );
  ]
