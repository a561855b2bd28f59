(* Tests for xsm_storage: descriptive schema (§9.1), block storage and
   node descriptors (§9.2). *)

module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module DS = Xsm_storage.Descriptive_schema
module B = Xsm_storage.Block_storage
module Name = Xsm_xml.Name
module Label = Xsm_numbering.Sedna_label

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let load doc =
  let store = Store.create () in
  let dnode = Convert.load store doc in
  (store, dnode)

(* ---------------- descriptive schema ---------------- *)

let test_dataguide_example8 () =
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let ds, _ = DS.of_tree store dnode in
  (* the paper's figure: /, library, book(title,author,issue(publisher,year)),
     paper(title,author) + text nodes under every leaf *)
  let paths = DS.paths ds in
  List.iter
    (fun expected ->
      if not (List.mem expected paths) then Alcotest.failf "missing path %s" expected)
    [
      "/library"; "/library/book"; "/library/book/title"; "/library/book/author";
      "/library/book/issue"; "/library/book/issue/publisher"; "/library/book/issue/year";
      "/library/paper"; "/library/paper/title"; "/library/paper/author";
    ];
  (* one path per distinct document path, regardless of instance count *)
  let store2, dnode2 = load (Xsm_schema.Samples.library_document ~books:50 ~papers:50 ()) in
  let ds2, _ = DS.of_tree store2 dnode2 in
  check_int "same schema for scaled library" (DS.node_count ds) (DS.node_count ds2)

let test_dataguide_path_bijection () =
  (* every document path exists in the schema and vice versa *)
  let store, dnode = load (Xsm_schema.Samples.library_document ~books:7 ~papers:3 ()) in
  let ds, snode_of = DS.of_tree store dnode in
  (* forward: every node maps to a schema node with the same (name,kind) path *)
  let rec doc_path n =
    match Store.parent store n with
    | None -> []
    | Some p ->
      doc_path p
      @ [ (Option.map Name.to_string (Store.node_name store n), Store.node_kind store n) ]
  in
  let rec schema_path sn =
    match DS.parent ds sn with
    | None -> []
    | Some p ->
      schema_path p
      @ [ (Option.map Name.to_string (DS.name sn), DS.kind_to_string (DS.kind sn)) ]
  in
  List.iter
    (fun n ->
      let sn = snode_of (Store.node_id n) in
      if doc_path n <> schema_path sn then Alcotest.fail "path mismatch")
    (Store.descendants_or_self store dnode);
  (* backward: every schema node has at least one instance (surjectivity) *)
  let instance_snodes =
    List.map
      (fun n -> DS.snode_id (snode_of (Store.node_id n)))
      (Store.descendants_or_self store dnode)
  in
  let rec all_snodes sn = sn :: List.concat_map all_snodes (DS.children ds sn) in
  List.iter
    (fun sn ->
      if not (List.mem (DS.snode_id sn) instance_snodes) then
        Alcotest.fail "schema node with no instances")
    (all_snodes (DS.root ds))

let test_dataguide_incremental () =
  let ds = DS.create () in
  let root = DS.root ds in
  let a1 = DS.find_or_add ds root ~name:(Some (Name.local "a")) DS.Element in
  let a2 = DS.find_or_add ds root ~name:(Some (Name.local "a")) DS.Element in
  check "find_or_add is idempotent" true (DS.equal_snode a1 a2);
  let t = DS.find_or_add ds a1 ~name:None DS.Text in
  check "text child" true (DS.kind t = DS.Text);
  (* same name, different kind = different schema node *)
  let at = DS.find_or_add ds a1 ~name:(Some (Name.local "a")) DS.Attribute in
  let el = DS.find_or_add ds a1 ~name:(Some (Name.local "a")) DS.Element in
  check "kind distinguishes" false (DS.equal_snode at el);
  check_int "node count" 5 (DS.node_count ds)

(* ---------------- block storage ---------------- *)

let build ?(block_capacity = 8) doc =
  let store, dnode = load doc in
  let bs = B.of_store ~block_capacity store dnode in
  (store, dnode, bs)

let test_build_and_integrity () =
  let store, _, bs = build (Xsm_schema.Samples.library_document ~books:20 ~papers:10 ()) in
  check_int "all nodes materialized" (Store.node_count store) (B.descriptor_count bs);
  match B.check_integrity bs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_accessor_equivalence () =
  (* E9: every accessor over descriptors equals the XDM reference *)
  let store, dnode, bs = build (Xsm_schema.Samples.library_document ~books:12 ~papers:6 ()) in
  (* both trees walked in parallel; [parent] is the descriptor paired
     with the node's parent *)
  let visited = ref 0 in
  let rec walk ~parent n d =
    incr visited;
    check_str "node-kind" (Store.node_kind store n) (B.node_kind d);
    check "node-name" true (Option.equal Name.equal (Store.node_name store n) (B.node_name d));
    check_str "string-value" (Store.string_value store n) (B.string_value bs d);
    let expect_children = List.map (Store.string_value store) (Store.children store n) in
    let got_children = List.map (B.string_value bs) (B.children bs d) in
    Alcotest.(check (list string)) "children" expect_children got_children;
    let expect_attrs =
      List.filter_map (fun a -> Option.map Name.to_string (Store.node_name store a)) (Store.attributes store n)
    in
    let got_attrs =
      List.filter_map (fun a -> Option.map Name.to_string (B.node_name a)) (B.attributes bs d)
    in
    Alcotest.(check (list string)) "attributes" expect_attrs got_attrs;
    (* parent agreement *)
    (match parent, B.parent d with
    | None, None -> ()
    | Some pd', Some pd -> check "parent" true (B.nid pd' = B.nid pd)
    | _ -> Alcotest.fail "parent disagreement");
    List.iter2 (walk ~parent:(Some d)) (Store.attributes store n) (B.attributes bs d);
    List.iter2 (walk ~parent:(Some d)) (Store.children store n) (B.children bs d)
  in
  walk ~parent:None dnode (B.root bs);
  check_int "every node visited" (Store.subtree_size store dnode) !visited

let test_block_ordering_invariant () =
  (* the paper: descriptors in block i precede those in block j>i *)
  let _, _, bs = build ~block_capacity:4 (Xsm_schema.Samples.library_document ~books:30 ~papers:0 ()) in
  let ds = B.schema bs in
  let rec walk sn =
    let descs = B.descendants_by_snode bs sn in
    let rec increasing = function
      | a :: (b :: _ as rest) -> Label.compare (B.nid a) (B.nid b) < 0 && increasing rest
      | [ _ ] | [] -> true
    in
    if not (increasing descs) then Alcotest.fail "block scan out of document order";
    List.iter walk (DS.children ds sn)
  in
  walk (DS.root ds);
  check "blocks per snode > 1 somewhere" true
    (let rec any sn =
       B.blocks_of_snode bs sn > 1 || List.exists any (DS.children ds sn)
     in
     any (DS.root ds))

let test_first_child_by_schema () =
  let store, dnode, bs = build Xsm_schema.Samples.example8_document in
  ignore store;
  let rootd = B.root bs in
  let library = List.hd (B.children bs rootd) in
  let ds = B.schema bs in
  let lib_sn = B.snode library in
  (* library has exactly two child schema nodes: book and paper *)
  let child_snames =
    List.filter_map (fun sn -> Option.map Name.to_string (DS.name sn)) (DS.children ds lib_sn)
  in
  Alcotest.(check (list string)) "two pointers" [ "book"; "paper" ] child_snames;
  List.iter
    (fun sn ->
      match B.first_child_by_schema library sn with
      | Some d ->
        (* it is the nid-least child with that schema node *)
        let same =
          List.filter (fun c -> DS.equal_snode (B.snode c) sn) (B.children bs library)
        in
        check "first is least" true
          (List.for_all (fun c -> Label.compare (B.nid d) (B.nid c) <= 0) same)
      | None -> Alcotest.fail "missing first-child pointer")
    (DS.children ds lib_sn);
  ignore dnode

let test_insert_element_and_text () =
  let _, _, bs = build ~block_capacity:4 Xsm_schema.Samples.example8_document in
  let rootd = B.root bs in
  let library = List.hd (B.children bs rootd) in
  let count_before = List.length (B.children bs library) in
  let anchor = List.hd (B.children bs library) in
  let d, _ = B.insert_element bs ~parent:library ~after:(Some anchor) (Name.local "cd") in
  check_int "one more child" (count_before + 1) (List.length (B.children bs library));
  (* position: right after the anchor *)
  (match B.children bs library with
  | _ :: second :: _ -> check "inserted second" true (Label.equal (B.nid second) (B.nid d))
  | _ -> Alcotest.fail "expected children");
  (* give it a text child *)
  let t, _ = B.insert_text bs ~parent:d ~after:None "Best of 2004" in
  check_str "text value" "Best of 2004" (B.string_value bs t);
  check_str "element value" "Best of 2004" (B.string_value bs d);
  (* insert first (before everything) *)
  let d2, _ = B.insert_element bs ~parent:library ~after:None (Name.local "front") in
  (match B.children bs library with
  | first :: _ -> check "front inserted first" true (Label.equal (B.nid first) (B.nid d2))
  | [] -> Alcotest.fail "no children");
  match B.check_integrity bs with Ok () -> () | Error e -> Alcotest.fail e

let test_insert_attribute () =
  let _, _, bs = build Xsm_schema.Samples.example8_document in
  let library = List.hd (B.children bs (B.root bs)) in
  let a, _ = B.insert_attribute bs ~parent:library (Name.local "curated") "yes" in
  check_str "attr value" "yes" (B.string_value bs a);
  check_int "one attribute" 1 (List.length (B.attributes bs library));
  (* attributes precede element children in order *)
  let first_child = List.hd (B.children bs library) in
  check "attr before children" true (Label.compare (B.nid a) (B.nid first_child) < 0);
  match B.check_integrity bs with Ok () -> () | Error e -> Alcotest.fail e

let test_block_splits () =
  (* tiny blocks + many inserts at one point force splits *)
  let _, _, bs = build ~block_capacity:4 (Xsm_schema.Samples.library_document ~books:10 ~papers:0 ()) in
  let library = List.hd (B.children bs (B.root bs)) in
  let anchor = List.hd (B.children bs library) in
  let total_moved = ref 0 in
  for _ = 1 to 50 do
    let _, moved = B.insert_element bs ~parent:library ~after:(Some anchor) (Name.local "x") in
    total_moved := !total_moved + moved
  done;
  check "splits happened" true (B.split_count bs > 0);
  check "descriptors moved" true (!total_moved > 0);
  match B.check_integrity bs with Ok () -> () | Error e -> Alcotest.fail e

(* a full block splits into two non-empty halves, so a capacity below
   2 is refused where a storage is made; 2 is the smallest that splits *)
let test_capacity_floor () =
  let refused what f =
    check (what ^ " refused") true (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let store, dnode = load Xsm_schema.Samples.example8_document in
  List.iter
    (fun c ->
      refused (Printf.sprintf "create_empty capacity %d" c) (fun () ->
          B.create_empty ~block_capacity:c ());
      refused (Printf.sprintf "of_store capacity %d" c) (fun () ->
          B.of_store ~block_capacity:c store dnode))
    [ -1; 0; 1 ];
  let bs = B.of_store ~block_capacity:2 store dnode in
  let library = List.hd (B.children bs (B.root bs)) in
  for _ = 1 to 10 do
    ignore (B.insert_element bs ~parent:library ~after:None (Name.local "x"))
  done;
  check "capacity 2 splits" true (B.split_count bs > 0);
  match B.check_integrity bs with Ok () -> () | Error e -> Alcotest.fail e

let test_delete () =
  let _, _, bs = build Xsm_schema.Samples.example8_document in
  let library = List.hd (B.children bs (B.root bs)) in
  let before = List.length (B.children bs library) in
  (* delete the first paper's title text, then the title, exercising
     leaf-only deletion *)
  let book1 = List.hd (B.children bs library) in
  (match B.delete bs book1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "deleting an inner node must fail");
  let title = List.hd (B.children bs book1) in
  let text = List.hd (B.children bs title) in
  B.delete bs text;
  check_str "title now empty" "" (B.string_value bs title);
  B.delete bs title;
  check "title gone" true
    (List.for_all
       (fun c -> B.node_name c <> Some (Name.local "title"))
       (B.children bs book1));
  check_int "library children unchanged" before (List.length (B.children bs library));
  match B.check_integrity bs with Ok () -> () | Error e -> Alcotest.fail e

let test_descendants_by_snode_counts () =
  let _, _, bs = build (Xsm_schema.Samples.library_document ~books:9 ~papers:4 ()) in
  let ds = B.schema bs in
  let rec find sn path =
    match path with
    | [] -> Some sn
    | name :: rest -> (
      match
        List.find_opt
          (fun c -> DS.name c = Some (Name.local name))
          (DS.children ds sn)
      with
      | Some c -> find c rest
      | None -> None)
  in
  (match find (DS.root ds) [ "library"; "book" ] with
  | Some book_sn -> check_int "9 books" 9 (List.length (B.descendants_by_snode bs book_sn))
  | None -> Alcotest.fail "book schema node not found");
  match find (DS.root ds) [ "library"; "paper"; "title" ] with
  | Some t_sn -> check_int "4 paper titles" 4 (List.length (B.descendants_by_snode bs t_sn))
  | None -> Alcotest.fail "paper title schema node not found"

let test_serialization_roundtrip () =
  (* g computed from the physical representation: of_store then
     to_document reproduces the original document *)
  List.iter
    (fun doc ->
      let store, dnode = load doc in
      let bs = B.of_store ~block_capacity:4 store dnode in
      let back = B.to_document bs in
      if not (Xsm_xml.Tree.equal_content back doc) then
        Alcotest.fail "storage serialization diverged")
    [
      Xsm_schema.Samples.example8_document;
      Xsm_schema.Samples.library_document ~books:13 ~papers:7 ();
      Xsm_schema.Samples.bookstore_document ~books:5 ();
    ]

let test_serialization_after_updates () =
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let bs = B.of_store store dnode in
  let library = List.hd (B.children bs (B.root bs)) in
  let anchor = List.hd (B.children bs library) in
  let d, _ = B.insert_element bs ~parent:library ~after:(Some anchor) (Name.local "cd") in
  let _ = B.insert_text bs ~parent:d ~after:None "Readings in DB" in
  let _ = B.insert_attribute bs ~parent:d (Name.local "year") "2004" in
  let back = B.to_document bs in
  (* the serialized document contains the inserted node in position *)
  let lib = back.Xsm_xml.Tree.root in
  (match Xsm_xml.Tree.child_elements lib with
  | _ :: second :: _ ->
    check "cd in position" true (Name.to_string second.Xsm_xml.Tree.name = "cd");
    check "cd text" true (Xsm_xml.Tree.text_content second = "Readings in DB");
    check "cd attr" true
      (Xsm_xml.Tree.attribute_value second (Name.local "year") = Some "2004")
  | _ -> Alcotest.fail "expected children")

let suite =
  [
    ( "storage.dataguide",
      [
        Alcotest.test_case "example 8" `Quick test_dataguide_example8;
        Alcotest.test_case "path bijection" `Quick test_dataguide_path_bijection;
        Alcotest.test_case "incremental" `Quick test_dataguide_incremental;
      ] );
    ( "storage.blocks",
      [
        Alcotest.test_case "build + integrity" `Quick test_build_and_integrity;
        Alcotest.test_case "accessor equivalence (E9)" `Quick test_accessor_equivalence;
        Alcotest.test_case "block ordering" `Quick test_block_ordering_invariant;
        Alcotest.test_case "first-child-by-schema" `Quick test_first_child_by_schema;
        Alcotest.test_case "insert element/text" `Quick test_insert_element_and_text;
        Alcotest.test_case "insert attribute" `Quick test_insert_attribute;
        Alcotest.test_case "block splits" `Quick test_block_splits;
        Alcotest.test_case "capacity below 2 refused" `Quick test_capacity_floor;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "block scans" `Quick test_descendants_by_snode_counts;
        Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
        Alcotest.test_case "serialization after updates" `Quick test_serialization_after_updates;
      ] );
  ]
