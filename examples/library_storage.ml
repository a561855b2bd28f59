(* The §9 storage walk-through on the paper's Example 8 library
   document: descriptive schema extraction (the DataGuide of the
   figure), block layout, numbering labels, structural predicates and
   update stability.

   Run with: dune exec examples/library_storage.exe *)

module Store = Xsm_xdm.Store
module B = Xsm_storage.Block_storage
module DS = Xsm_storage.Descriptive_schema
module Label = Xsm_numbering.Sedna_label

let () =
  let doc = Xsm_schema.Samples.example8_document in
  let store = Store.create () in
  let dnode = Xsm_xdm.Convert.load store doc in

  (* the document itself *)
  print_endline "=== Example 8 document ===";
  print_string (Xsm_xml.Printer.element_to_pretty_string doc.Xsm_xml.Tree.root);

  (* §9.1: descriptive schema *)
  let bs = B.of_store ~block_capacity:4 store dnode in
  let ds = B.schema bs in
  print_endline "\n=== Descriptive schema (the paper's figure) ===";
  Format.printf "%a" DS.pp ds;
  Printf.printf "document nodes: %d, schema nodes: %d\n"
    (Store.node_count store) (DS.node_count ds);

  print_endline "\n=== Schema paths ===";
  List.iter print_endline (DS.paths ds);

  (* §9.2: block layout *)
  Printf.printf "\nblocks: %d (capacity 4 each), descriptors: %d\n"
    (B.block_count bs) (B.descriptor_count bs);

  (* first-child-by-schema: the library element holds two pointers *)
  let rootd = B.root bs in
  let library = List.hd (B.children bs rootd) in
  let lib_snode = B.snode library in
  Printf.printf "\nlibrary schema node has %d children (book, paper)\n"
    (List.length (DS.children ds lib_snode));
  List.iter
    (fun child_snode ->
      match B.first_child_by_schema library child_snode with
      | Some d ->
        Printf.printf "first %s child: string-value %S\n"
          (match DS.name child_snode with Some n -> Xsm_xml.Name.to_string n | None -> "#text")
          (String.sub (B.string_value bs d) 0 (min 30 (String.length (B.string_value bs d))))
      | None -> ())
    (DS.children ds lib_snode);

  (* §9.3: numbering labels and the three predicates *)
  print_endline "\n=== Numbering labels ===";
  let books = B.children bs library in
  List.iteri
    (fun i b ->
      Format.printf "child %d (%s): nid = %a@." i (B.node_kind b) Label.pp (B.nid b))
    books;
  (match books with
  | b1 :: b2 :: _ ->
    Printf.printf "relation(nid b1, nid b2) decides order without the tree: %s\n"
      (match Label.relation (B.nid b1) (B.nid b2) with
      | Label.Before -> "Before"
      | _ -> "?");
    Printf.printf "relation(nid library, nid b1): %s\n"
      (match Label.relation (B.nid library) (B.nid b1) with
      | Label.Parent -> "Parent"
      | Label.Ancestor -> "Ancestor"
      | _ -> "?")
  | _ -> ());

  (* Proposition 1: inserting does not disturb existing labels *)
  print_endline "\n=== Update stability (Proposition 1) ===";
  let before = List.map (fun d -> Label.to_raw (B.nid d)) books in
  let anchor = List.hd books in
  let inserted, moved = B.insert_element bs ~parent:library ~after:(Some anchor)
      (Xsm_xml.Name.local "pamphlet") in
  Format.printf "inserted pamphlet with nid %a (%d descriptors moved by splits)@."
    Label.pp (B.nid inserted) moved;
  let after = List.map (fun d -> Label.to_raw (B.nid d)) books in
  Printf.printf "existing labels unchanged: %b\n" (before = after);
  (match B.check_integrity bs with
  | Ok () -> print_endline "storage invariants hold after the update"
  | Error e -> Printf.printf "INTEGRITY VIOLATION: %s\n" e);

  (* schema-driven queries: the planner over the storage moves over the
     descriptive schema and scans block lists, no tree traversal *)
  print_endline "\n=== Schema-driven queries (Sedna access path) ===";
  let planner = Xsm_xpath.Planner.Over_storage.create bs (B.root bs) in
  List.iter
    (fun q ->
      match Xsm_xpath.Planner.Over_storage.eval_string planner q with
      | Ok descs ->
        Printf.printf "%-24s -> %d nodes: %s\n" q (List.length descs)
          (String.concat " | "
             (List.filteri (fun i _ -> i < 3) (List.map (B.string_value bs) descs)))
      | Error e -> Printf.printf "%-24s -> %s\n" q e)
    [ "/library/book/title"; "//author"; "/library/paper/title"; "//year" ]
