module Store = Xsm_xdm.Store

type t = {
  labels : (int, Sedna_label.t) Hashtbl.t;  (* node id -> label *)
  reverse : (string, Store.node) Hashtbl.t;  (* raw label -> node *)
}

let set t node l =
  Hashtbl.replace t.labels (Store.node_id node) l;
  Hashtbl.replace t.reverse (Sedna_label.to_raw l) node

let label t node = Hashtbl.find t.labels (Store.node_id node)
let label_opt t node = Hashtbl.find_opt t.labels (Store.node_id node)

let node_of t l = Hashtbl.find_opt t.reverse (Sedna_label.to_raw l)

let label_count t = Hashtbl.length t.labels

let max_label_bytes t =
  Hashtbl.fold (fun _ l acc -> max acc (Sedna_label.length l)) t.labels 0

let label_tree store root =
  let t = { labels = Hashtbl.create 256; reverse = Hashtbl.create 256 } in
  let rec go node l =
    set t node l;
    let ordered = Store.attributes store node @ Store.children store node in
    let child_labels = Sedna_label.assign_children l (List.length ordered) in
    List.iter2 go ordered child_labels
  in
  go root Sedna_label.root;
  t

let append_in_document_order store root =
  let t = { labels = Hashtbl.create 256; reverse = Hashtbl.create 256 } in
  let rec go node l =
    set t node l;
    let i = ref 0 in
    List.iter
      (fun child ->
        go child (Sedna_label.append_child l !i);
        incr i)
      (Store.attributes store node @ Store.children store node)
  in
  go root Sedna_label.root;
  t

let label_new_child t store node =
  let parent =
    match Store.parent store node with
    | Some p -> p
    | None -> invalid_arg "Labeler.label_new_child: node has no parent"
  in
  let siblings = Store.attributes store parent @ Store.children store parent in
  match Sedna_label.neighbours ~label_of:(label_opt t) ~is_self:(Store.equal_node node) siblings with
  | None -> invalid_arg "Labeler.label_new_child: node not among its parent's nodes"
  | Some (prev, next) ->
    let fresh = Sedna_label.gap ~parent:(label t parent) prev next in
    set t node fresh;
    fresh

let rec label_descendants t store node =
  let l = label t node in
  let ordered = Store.attributes store node @ Store.children store node in
  let child_labels = Sedna_label.assign_children l (List.length ordered) in
  List.iter2
    (fun child cl ->
      set t child cl;
      label_descendants t store child)
    ordered child_labels

let label_inserted_subtree t store node =
  if Option.is_some (Store.parent store node) then begin
    ignore (label_new_child t store node);
    label_descendants t store node
  end

let remove t node =
  match Hashtbl.find_opt t.labels (Store.node_id node) with
  | None -> ()
  | Some l ->
    Hashtbl.remove t.labels (Store.node_id node);
    Hashtbl.remove t.reverse (Sedna_label.to_raw l)

let remove_subtree t store node =
  let rec go node =
    remove t node;
    List.iter go (Store.attributes store node);
    List.iter go (Store.children store node)
  in
  go node

let bindings t =
  Hashtbl.fold
    (fun raw node acc ->
      match Sedna_label.of_raw raw with
      | Ok l -> (node, l) :: acc
      | Error _ -> acc)
    t.reverse []
  |> List.sort (fun (a, _) (b, _) -> Store.compare_node a b)

let restore pairs =
  let n = max 16 (List.length pairs) in
  let t = { labels = Hashtbl.create n; reverse = Hashtbl.create n } in
  List.iter (fun (node, l) -> set t node l) pairs;
  t

let check_against_tree store root t =
  let nodes = Store.descendants_or_self store root in
  let module Order = Xsm_xdm.Order in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          match Hashtbl.find_opt t.labels (Store.node_id a),
                Hashtbl.find_opt t.labels (Store.node_id b) with
          | Some la, Some lb ->
            let expected : Sedna_label.relation =
              if Store.equal_node a b then Sedna_label.Self
              else if Order.is_ancestor store a b then
                if Store.parent store b = Some a then Sedna_label.Parent
                else Sedna_label.Ancestor
              else if Order.is_ancestor store b a then
                if Store.parent store a = Some b then Sedna_label.Child
                else Sedna_label.Descendant
              else if Order.precedes store a b then Sedna_label.Before
              else Sedna_label.After
            in
            Sedna_label.relation la lb = expected
          | _ -> false)
        nodes)
    nodes
