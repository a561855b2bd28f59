(* Tests for xsm_numbering: the Sedna scheme's three predicates
   (§9.3), Proposition 1 update stability, and the baseline schemes. *)

module Label = Xsm_numbering.Sedna_label
module Labeler = Xsm_numbering.Labeler
module Dewey = Xsm_numbering.Dewey
module Range = Xsm_numbering.Range_label
module Prime = Xsm_numbering.Prime_label
module Store = Xsm_xdm.Store
module Convert = Xsm_xdm.Convert
module Name = Xsm_xml.Name

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Sedna labels ---------------- *)

let test_label_validation () =
  check "root ok" true (Result.is_ok (Label.of_raw (Label.to_raw Label.root)));
  check "empty" true (Result.is_error (Label.of_raw ""));
  check "leading sep" true (Result.is_error (Label.of_raw "\x01\x80"));
  check "trailing sep" true (Result.is_error (Label.of_raw "\x80\x01"));
  check "double sep" true (Result.is_error (Label.of_raw "\x80\x01\x01\x80"));
  check "trailing min digit" true (Result.is_error (Label.of_raw "\x80\x01\x02"));
  check "good two-level" true (Result.is_ok (Label.of_raw "\x80\x01\x90"))

let test_label_predicates () =
  let l s = match Label.of_raw s with Ok l -> l | Error e -> Alcotest.fail e in
  let root = l "\x80" in
  let child1 = l "\x80\x01\x40" in
  let child2 = l "\x80\x01\x90" in
  let grandchild = l "\x80\x01\x40\x01\x80" in
  check "parent" true (Label.is_parent root child1);
  check "ancestor" true (Label.is_ancestor root grandchild);
  check "not parent of grandchild" false (Label.is_parent root grandchild);
  check "child before sibling" true (Label.compare child1 child2 < 0);
  check "ancestor precedes descendant" true (Label.compare root grandchild < 0);
  check "grandchild before uncle" true (Label.compare grandchild child2 < 0);
  check "relation Before" true (Label.relation child1 child2 = Label.Before);
  check "relation After" true (Label.relation child2 grandchild = Label.After);
  check "relation Self" true (Label.relation root root = Label.Self);
  check "relation Child" true (Label.relation child1 root = Label.Child);
  check "relation Descendant" true (Label.relation grandchild root = Label.Descendant)

let test_label_depth () =
  check_int "root depth" 1 (Label.depth Label.root);
  check_int "child depth" 2 (Label.depth (Label.first_child Label.root))

let test_assign_children_ordered () =
  List.iter
    (fun n ->
      let kids = Label.assign_children Label.root n in
      check_int "count" n (List.length kids);
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> Label.compare a b < 0 && strictly_increasing rest
        | [ _ ] | [] -> true
      in
      check "ordered" true (strictly_increasing kids);
      List.iter
        (fun k ->
          check "is child" true (Label.is_parent Label.root k);
          check "valid" true (Result.is_ok (Label.of_raw (Label.to_raw k))))
        kids)
    [ 1; 2; 10; 254; 255; 1000 ]

let test_between_properties () =
  (* repeated bisection always succeeds and stays ordered *)
  let kids = Label.assign_children Label.root 2 in
  let a = List.nth kids 0 and b = List.nth kids 1 in
  let rec bisect a b n =
    if n = 0 then ()
    else begin
      let m = Label.between a b in
      if not (Label.compare a m < 0 && Label.compare m b < 0) then
        Alcotest.failf "between broke ordering at step %d" n;
      (match Label.of_raw (Label.to_raw m) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "between produced invalid label: %s" e);
      check "still a sibling" true (Label.is_parent Label.root m);
      bisect a m (n - 1)
    end
  in
  bisect a b 64;
  (* converging from the right too *)
  let rec bisect_r a b n =
    if n > 0 then begin
      let m = Label.between a b in
      bisect_r m b (n - 1)
    end
  in
  bisect_r a b 64

let test_before_after_siblings () =
  let k = Label.first_child Label.root in
  let prev = Label.before_sibling k in
  let next = Label.after_sibling k in
  check "prev < k" true (Label.compare prev k < 0);
  check "k < next" true (Label.compare k next < 0);
  check "prev sibling" true (Label.is_parent Label.root prev);
  check "next sibling" true (Label.is_parent Label.root next);
  (* iterating after_sibling never breaks order *)
  let rec iterate l n acc =
    if n = 0 then acc
    else begin
      let nl = Label.after_sibling l in
      check "increasing" true (Label.compare l nl < 0);
      iterate nl (n - 1) (nl :: acc)
    end
  in
  ignore (iterate k 300 []);
  let rec iterate_before l n =
    if n > 0 then begin
      let pl = Label.before_sibling l in
      check "decreasing" true (Label.compare pl l < 0);
      iterate_before pl (n - 1)
    end
  in
  iterate_before k 64

let test_between_rejects_non_siblings () =
  let k = Label.first_child Label.root in
  let g = Label.first_child k in
  (match Label.between k g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument (not siblings)");
  match Label.between k k with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument (out of order)"

(* ---------------- labeler vs ground truth ---------------- *)

let load doc =
  let store = Store.create () in
  let dnode = Convert.load store doc in
  (store, dnode)

let test_labeler_ground_truth () =
  let store, dnode = load (Xsm_schema.Samples.library_document ~books:8 ~papers:4 ()) in
  let t = Labeler.label_tree store dnode in
  check_int "every node labelled" (List.length (Store.descendants_or_self store dnode))
    (Labeler.label_count t);
  check "relations agree with tree" true (Labeler.check_against_tree store dnode t)

let test_labeler_reverse_lookup () =
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let t = Labeler.label_tree store dnode in
  (* labels are unique, so the bindings read backwards name each node *)
  let node_of l =
    List.filter_map
      (fun (m, l') -> if Label.equal l l' then Some m else None)
      (Labeler.bindings t)
  in
  List.iter
    (fun n ->
      match node_of (Labeler.label t n) with
      | [ m ] -> check "roundtrip" true (Store.equal_node n m)
      | _ -> Alcotest.fail "reverse lookup failed")
    (Store.descendants_or_self store dnode)

let test_proposition1 () =
  (* heavy insertion at one point: no existing label ever changes *)
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let t = Labeler.label_tree store dnode in
  let lib = List.hd (Store.children store dnode) in
  let snapshot =
    List.map (fun n -> (n, Labeler.label t n)) (Store.descendants_or_self store dnode)
  in
  let anchor = List.hd (Store.children store lib) in
  let next = ref (List.nth (Store.children store lib) 1) in
  for i = 1 to 200 do
    let e = Store.new_element store (Name.local (Printf.sprintf "ins%d" i)) in
    (* always insert right after the original anchor: worst case for
       label growth, keeps hitting the same gap *)
    Store.insert_child_before store lib ~before:!next e;
    let l = Labeler.label_new_child t store e in
    if not (Label.is_parent (Labeler.label t lib) l
            && Label.compare (Labeler.label t anchor) l < 0
            && Label.compare l (Labeler.label t !next) < 0)
    then Alcotest.fail "new label is not between its neighbours";
    next := e
  done;
  List.iter
    (fun (n, l) ->
      if not (Label.equal (Labeler.label t n) l) then Alcotest.fail "a label changed")
    snapshot;
  check "labels agree with the tree" true (Labeler.check_against_tree store dnode t);
  check "200 insertions, zero relabels" true true

(* The reference oracle for label maintenance: the rule the labeler
   used before it read neighbours from the store.  A new node's left
   neighbour is its predecessor in the parent's attributes @ children;
   its right neighbour is the next label in the whole table that is a
   child of the parent's label — found by scanning every label.
   Descendants get [assign_children], as in the labeler.  Kept here,
   and only here, so the local rule is checked against it. *)
module Scan_oracle = struct
  type t = (int, Label.t) Hashtbl.t  (* node id -> label *)

  let of_labeler store root : t =
    let t = Hashtbl.create 256 in
    let labels = Labeler.label_tree store root in
    List.iter
      (fun n -> Hashtbl.replace t (Store.node_id n) (Labeler.label labels n))
      (Store.descendants_or_self store root);
    t

  let label (t : t) n = Hashtbl.find t (Store.node_id n)

  let rec label_descendants t store n l =
    Hashtbl.replace t (Store.node_id n) l;
    let ordered = Store.attributes store n @ Store.children store n in
    List.iter2 (label_descendants t store) ordered
      (Label.assign_children l (List.length ordered))

  let previous_in_parent store p n =
    let rec go prev = function
      | [] -> Alcotest.fail "oracle: node not among its parent's nodes"
      | x :: rest -> if Store.equal_node x n then prev else go (Some x) rest
    in
    go None (Store.attributes store p @ Store.children store p)

  let insert t store n =
    match Store.parent store n with
    | None -> ()
    | Some p ->
      let pl = label t p in
      let kids =
        Hashtbl.fold (fun _ l acc -> if Label.is_parent pl l then l :: acc else acc) t []
        |> List.sort Label.compare
      in
      let fresh =
        match previous_in_parent store p n with
        | None -> (
          match kids with [] -> Label.first_child pl | first :: _ -> Label.before_sibling first)
        | Some s -> (
          let sl = label t s in
          match List.filter (fun l -> Label.compare l sl > 0) kids with
          | [] -> Label.after_sibling sl
          | next :: _ -> Label.between sl next)
      in
      label_descendants t store n fresh

  let rec delete t store n =
    Hashtbl.remove t (Store.node_id n);
    List.iter (delete t store) (Store.attributes store n @ Store.children store n)

  (* the labeler agrees byte for byte on every node of the tree *)
  let agrees t store root labels =
    Hashtbl.length t = Labeler.label_count labels
    && List.for_all
         (fun n ->
           match Hashtbl.find_opt t (Store.node_id n), Labeler.label_opt labels n with
           | Some a, Some b -> Label.equal a b
           | _ -> false)
         (Store.descendants_or_self store root)
end

let test_gap_cases () =
  (* each of the four gap rules, reached through the store walk and
     checked against the scan oracle and the tree *)
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let t = Labeler.label_tree store dnode in
  let oracle = Scan_oracle.of_labeler store dnode in
  let lib = List.hd (Store.children store dnode) in
  let book = List.hd (Store.children store lib) in
  let title = List.hd (Store.children store book) in
  let label = Labeler.label t in
  let step what expected n =
    let l = Labeler.label_new_child t store n in
    Scan_oracle.insert oracle store n;
    check (what ^ ": gap rule") true (Label.equal l (expected ()));
    check (what ^ ": oracle") true (Scan_oracle.agrees oracle store dnode t)
  in
  (* before the first child: an attribute attaches ahead of children *)
  let a = Store.new_attribute store (Name.local "id") "b1" in
  let first = label title in
  Store.attach_attribute store book a;
  step "before first child" (fun () -> Label.before_sibling first) a;
  (* between: a second attribute sits between [a] and the first child *)
  let a2 = Store.new_attribute store (Name.local "lang") "en" in
  Store.attach_attribute store book a2;
  step "between" (fun () -> Label.between (label a) (label title)) a2;
  (* after the last child *)
  let e = Store.new_element store (Name.local "note") in
  let last = label (List.nth (Store.children store book) (List.length (Store.children store book) - 1)) in
  Store.append_child store book e;
  step "after last child" (fun () -> Label.after_sibling last) e;
  (* first child of a leaf *)
  let txt = Store.new_text store "x" in
  Store.append_child store e txt;
  step "first child" (fun () -> Label.first_child (label e)) txt;
  check "labels agree with the tree" true (Labeler.check_against_tree store dnode t)

let test_label_growth_bounded_for_spread_inserts () =
  (* inserting at random gaps keeps labels short; this guards the
     assign_children spreading enhancement *)
  let kids = Label.assign_children Label.root 1000 in
  let max_len = List.fold_left (fun m k -> max m (Label.length k)) 0 kids in
  check "spread labels short" true (max_len <= 5)

(* ---------------- Dewey baseline ---------------- *)

let test_dewey_predicates () =
  let a = [ 1; 2 ] and b = [ 1; 2; 1 ] and c = [ 1; 3 ] in
  check "parent" true (Dewey.is_parent a b);
  check "ancestor" true (Dewey.is_ancestor [ 1 ] b);
  check "order" true (Dewey.compare a b < 0 && Dewey.compare b c < 0);
  check "not parent" false (Dewey.is_parent [ 1 ] b)

let test_dewey_matches_tree_order () =
  let store, dnode = load (Xsm_schema.Samples.library_document ~books:5 ~papers:3 ()) in
  let f = Dewey.forest_of_tree store dnode in
  let nodes = Store.descendants_or_self store dnode in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = compare (Xsm_xdm.Order.compare store a b) 0 in
          let got = compare (Dewey.compare (Dewey.label f a) (Dewey.label f b)) 0 in
          if expected <> got then Alcotest.fail "dewey order mismatch")
        nodes)
    nodes

let test_dewey_insert_relabels () =
  let store, dnode = load (Xsm_schema.Samples.library_document ~books:10 ~papers:0 ()) in
  let f = Dewey.forest_of_tree store dnode in
  let lib = List.hd (Store.children store dnode) in
  let first = List.hd (Store.children store lib) in
  let e = Store.new_element store (Name.local "ins") in
  let _, changed = Dewey.insert_after f ~parent:lib ~after:(Some first) e in
  (* 9 following book subtrees must be renumbered *)
  check "many relabels" true (changed > 9);
  (* appending at the end renumbers nobody *)
  let last = List.nth (Store.children store lib) (List.length (Store.children store lib) - 1) in
  let e2 = Store.new_element store (Name.local "ins2") in
  let _, changed2 = Dewey.insert_after f ~parent:lib ~after:(Some last) e2 in
  check_int "append free" 0 changed2

(* ---------------- Range baseline ---------------- *)

let test_range_predicates_and_relabel () =
  let store, dnode = load (Xsm_schema.Samples.library_document ~books:6 ~papers:2 ()) in
  let f = Range.forest_of_tree ~gap:8 store dnode in
  let nodes = Store.descendants_or_self store dnode in
  (* containment = ancestorship *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = Xsm_xdm.Order.is_ancestor store a b in
          let got = Range.is_ancestor (Range.label f a) (Range.label f b) in
          if expected <> got then Alcotest.fail "range ancestor mismatch")
        nodes)
    nodes;
  (* hammer one gap until a global relabel happens *)
  let lib = List.hd (Store.children store dnode) in
  let anchor = List.hd (Store.children store lib) in
  let relabels_before = Range.relabel_count f in
  for i = 1 to 40 do
    let e = Store.new_element store (Name.local (Printf.sprintf "r%d" i)) in
    ignore (Range.insert_after f ~parent:lib ~after:(Some anchor) e)
  done;
  check "eventually relabels" true (Range.relabel_count f > relabels_before)

(* ---------------- Prime baseline ---------------- *)

let test_prime_predicates () =
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let f = Prime.forest_of_tree store dnode in
  let nodes = Store.descendants_or_self store dnode in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = Xsm_xdm.Order.is_ancestor store a b in
          let got = Prime.is_ancestor (Prime.label f a) (Prime.label f b) in
          if expected <> got then Alcotest.fail "prime ancestor mismatch";
          let eo = compare (Xsm_xdm.Order.compare store a b) 0 in
          let go = compare (Prime.compare_order f (Prime.label f a) (Prime.label f b)) 0 in
          if eo <> go then Alcotest.fail "prime order mismatch")
        nodes)
    nodes

let test_prime_insert_shifts_sc_table () =
  let store, dnode = load Xsm_schema.Samples.example8_document in
  let f = Prime.forest_of_tree store dnode in
  let lib = List.hd (Store.children store dnode) in
  let first = List.hd (Store.children store lib) in
  let e = Store.new_element store (Name.local "ins") in
  let _, shifted = Prime.insert_after f ~parent:lib ~after:(Some first) e in
  check "sc entries rewritten" true (shifted > 0)

let suite =
  [
    ( "numbering.label",
      [
        Alcotest.test_case "validation" `Quick test_label_validation;
        Alcotest.test_case "§9.3 predicates" `Quick test_label_predicates;
        Alcotest.test_case "depth" `Quick test_label_depth;
        Alcotest.test_case "assign_children" `Quick test_assign_children_ordered;
        Alcotest.test_case "between" `Quick test_between_properties;
        Alcotest.test_case "before/after" `Quick test_before_after_siblings;
        Alcotest.test_case "between guards" `Quick test_between_rejects_non_siblings;
      ] );
    ( "numbering.labeler",
      [
        Alcotest.test_case "ground truth" `Quick test_labeler_ground_truth;
        Alcotest.test_case "reverse lookup" `Quick test_labeler_reverse_lookup;
        Alcotest.test_case "Proposition 1" `Quick test_proposition1;
        Alcotest.test_case "four gap cases = scan oracle" `Quick test_gap_cases;
        Alcotest.test_case "spread labels short" `Quick test_label_growth_bounded_for_spread_inserts;
      ] );
    ( "numbering.dewey",
      [
        Alcotest.test_case "predicates" `Quick test_dewey_predicates;
        Alcotest.test_case "tree order" `Quick test_dewey_matches_tree_order;
        Alcotest.test_case "insert relabels" `Quick test_dewey_insert_relabels;
      ] );
    ( "numbering.range",
      [ Alcotest.test_case "predicates + relabel" `Quick test_range_predicates_and_relabel ] );
    ( "numbering.prime",
      [
        Alcotest.test_case "predicates" `Quick test_prime_predicates;
        Alcotest.test_case "SC shifts" `Quick test_prime_insert_shifts_sc_table;
      ] );
  ]
