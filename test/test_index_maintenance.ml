(* Differential index maintenance: a planner subscribed to an update
   journal keeps answering exactly like the naive evaluator — and like
   a planner rebuilt from scratch — without rebuilding, across
   inserts, deletes, content replacement and attribute updates. *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Tree = Xsm_xml.Tree
module Name = Xsm_xml.Name
module E = Xsm_xpath.Eval.Over_store
module Pl = Xsm_xpath.Planner.Over_store
module Gen = Xsm_schema.Generator
module Update = Xsm_schema.Update
module Journal = Xsm_schema.Update.Journal

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

let live_planner store dnode =
  let planner = Pl.create store dnode in
  let journal = Journal.create () in
  Xsm_xpath.Planner.attach_journal planner journal;
  (planner, journal)

let apply_exn journal store op =
  match Update.apply ~journal store op with
  | Ok applied -> applied
  | Error e -> Alcotest.fail e

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

(* ---------------- the journal itself ---------------- *)

let test_journal_records () =
  let store, dnode = library ~books:2 ~papers:1 () in
  let journal = Journal.create () in
  let cursor = Journal.subscribe journal in
  let libr = List.hd (Store.children store dnode) in
  check_int "empty journal" 0 (Journal.pending journal cursor);
  let applied =
    apply_exn journal store
      (Update.Insert_element { parent = libr; before = None; tree = book_tree 0 })
  in
  check_int "insert recorded" 1 (Journal.pending journal cursor);
  Update.undo ~journal store applied;
  check_int "undo records its mirror" 2 (Journal.pending journal cursor);
  (match Journal.read journal cursor with
  | [ Journal.Inserted a; Journal.Deleted b ] ->
    check "mirror names the same node" true (Store.equal_node a b)
  | _ -> Alcotest.fail "expected [Inserted; Deleted]");
  check_int "drain empties" 0 (Journal.pending journal cursor);
  (* unjournaled applications leave the journal untouched *)
  ignore
    (match
       Update.apply store
         (Update.Insert_element { parent = libr; before = None; tree = book_tree 1 })
     with
    | Ok a -> a
    | Error e -> Alcotest.fail e);
  check_int "no journal, no entry" 0 (Journal.pending journal cursor)

(* ---------------- structural maintenance ---------------- *)

let test_incremental_updates () =
  let store, dnode = library () in
  let planner, journal = live_planner store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  (* insert a whole subtree *)
  ignore
    (apply_exn journal store
       (Update.Insert_element { parent = libr; before = None; tree = book_tree 1 }));
  agree_all planner store dnode;
  (* insert before an anchor (exercises label-between) *)
  let anchor = List.nth (Store.children store libr) 3 in
  ignore
    (apply_exn journal store
       (Update.Insert_element { parent = libr; before = Some anchor; tree = book_tree 2 }));
  agree_all planner store dnode;
  (* delete a subtree *)
  ignore (apply_exn journal store (Update.Delete (List.nth (Store.children store libr) 5)));
  agree_all planner store dnode;
  (* replace a text's content *)
  let a_text =
    List.find
      (fun n -> Store.kind store n = Store.Kind.Text)
      (Store.descendants_or_self store dnode)
  in
  ignore
    (apply_exn journal store (Update.Replace_content { node = a_text; value = "2001" }));
  agree_all planner store dnode;
  (* attach a fresh attribute, then overwrite it *)
  let an_elem = List.hd (Store.children store libr) in
  ignore
    (apply_exn journal store
       (Update.Set_attribute { element = an_elem; name = Name.local "tag"; value = "a" }));
  ignore
    (apply_exn journal store
       (Update.Set_attribute { element = an_elem; name = Name.local "tag"; value = "b" }));
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  let stats = Pl.maintenance_stats planner in
  check_int "never rebuilt" 1 stats.Xsm_xpath.Planner.epochs;
  check "changes were absorbed incrementally" true (stats.Xsm_xpath.Planner.applied >= 6)

let test_batched_replay () =
  (* many updates between two evaluations: the journal drains once, in
     order, against the final store state — including an insert whose
     subtree is deleted again before the planner ever looks *)
  let store, dnode = library () in
  let planner, journal = live_planner store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  ignore
    (apply_exn journal store
       (Update.Insert_element { parent = libr; before = None; tree = book_tree 7 }));
  let doomed = List.nth (Store.children store libr) 0 in
  ignore (apply_exn journal store (Update.Delete doomed));
  let newest = List.rev (Store.children store libr) |> List.hd in
  ignore (apply_exn journal store (Update.Delete newest));
  ignore
    (apply_exn journal store
       (Update.Insert_element { parent = libr; before = None; tree = book_tree 8 }));
  (* a cursor subscribed now starts at the oldest entry the planner's
     cursor still pins *)
  let c = Journal.subscribe journal in
  check "journal is pending" true (Journal.pending journal c = 4);
  Journal.unsubscribe journal c;
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  check_int "one batch, no rebuild" 1 (Pl.maintenance_stats planner).Xsm_xpath.Planner.epochs

(* ---------------- value index maintenance ---------------- *)

let test_value_index_maintenance () =
  let store, dnode = library () in
  let planner, journal = live_planner store dnode in
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
  ignore
    (apply_exn journal store (Update.Replace_content { node = year_text; value = "1800" }));
  agree planner store dnode q;
  ignore
    (apply_exn journal store (Update.Replace_content { node = year_text; value = "2100" }));
  agree planner store dnode q;
  (* a freshly inserted book must show up in the probe answers *)
  let libr = List.hd (Store.children store dnode) in
  ignore
    (apply_exn journal store
       (Update.Insert_element { parent = libr; before = None; tree = book_tree 3 }));
  agree planner store dnode q;
  (* ... and a deleted one must disappear from them *)
  ignore (apply_exn journal store (Update.Delete (List.hd (Store.children store libr))));
  agree planner store dnode q;
  let stats = Pl.maintenance_stats planner in
  check_int "maintained, not rebuilt" 1 stats.Xsm_xpath.Planner.epochs;
  check "the value index survived maintenance" true (Pl.value_index_count planner >= 1)

(* ---------------- the size-ratio heuristic ---------------- *)

let test_heuristic_falls_back_to_rebuild () =
  let store, dnode = library ~books:2 ~papers:1 () in
  let planner, journal = live_planner store dnode in
  agree_all planner store dnode;
  let libr = List.hd (Store.children store dnode) in
  (* a batch far larger than a quarter of this small index *)
  for i = 1 to 12 do
    ignore
      (apply_exn journal store
         (Update.Insert_element { parent = libr; before = None; tree = book_tree i }))
  done;
  agree_all planner store dnode;
  same_as_rebuild planner store dnode;
  let stats = Pl.maintenance_stats planner in
  check "big batch triggered a rebuild" true (stats.Xsm_xpath.Planner.epochs > 1)

(* ---------------- random sequences, every prefix ---------------- *)

let random_journaled_op store dnode journal rng step =
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
  ignore (Update.apply ~journal store op)

let test_property_prefixes () =
  let rng = Gen.rng 4242 in
  for _ = 1 to 12 do
    let store, dnode = library ~books:4 ~papers:2 () in
    let planner, journal = live_planner store dnode in
    for step = 1 to 6 do
      random_journaled_op store dnode journal rng step;
      (* every prefix of the sequence: maintained = naive = rebuilt *)
      agree_all planner store dnode;
      same_as_rebuild planner store dnode
    done
  done

let suite =
  [
    ( "index.maintenance",
      [
        Alcotest.test_case "journal records and drains" `Quick test_journal_records;
        Alcotest.test_case "incremental updates" `Quick test_incremental_updates;
        Alcotest.test_case "batched replay" `Quick test_batched_replay;
        Alcotest.test_case "value index upkeep" `Quick test_value_index_maintenance;
        Alcotest.test_case "size-ratio heuristic" `Quick test_heuristic_falls_back_to_rebuild;
        Alcotest.test_case "random prefixes" `Quick test_property_prefixes;
      ] );
  ]
