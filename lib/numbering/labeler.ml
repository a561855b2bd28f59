module Store = Xsm_xdm.Store

(* node -> label, sized for a tree up front where its size is known
   (a snapshot's header).  No runtime path looks a node up by its
   label, so no reverse table is kept up to date. *)
type t = (Store.node, Sedna_label.t) Hashtbl.t

let create n = Hashtbl.create (max 16 n)
let set t node l = Hashtbl.replace t node l
let label t node = Hashtbl.find t node
let label_opt t node = Hashtbl.find_opt t node

let label_count t = Hashtbl.length t
let max_label_bytes t = Hashtbl.fold (fun _ l acc -> max acc (Sedna_label.length l)) t 0

let label_tree store root =
  let t = create 256 in
  let rec go node l =
    set t node l;
    let ordered = Store.attributes store node @ Store.children store node in
    let child_labels = Sedna_label.assign_children l (List.length ordered) in
    List.iter2 go ordered child_labels
  in
  go root Sedna_label.root;
  t

let append_in_document_order store root =
  let t = create 256 in
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

let rec last_of = function [] -> None | [ a ] -> Some a | _ :: rest -> last_of rest

let label_new_child t store node =
  let parent =
    match Store.parent store node with
    | Some p -> p
    | None -> invalid_arg "Labeler.label_new_child: node has no parent"
  in
  let walk () =
    Sedna_label.neighbours ~label_of:(label_opt t) ~is_self:(Store.equal_node node)
      (Store.attributes store parent @ Store.children store parent)
  in
  (* an appended child has nothing after it, and the node just before
     it (the previous child, else the last attribute) is its nearest
     labelled neighbour when it carries a label: no walk *)
  let neighbours =
    match Store.kind store node with
    | (Store.Kind.Element | Store.Kind.Text) when Store.next_sibling store node = None -> (
      let prev =
        match Store.previous_sibling store node with
        | Some _ as prev -> prev
        | None -> last_of (Store.attributes store parent)
      in
      match prev with
      | None -> Some (None, None)
      | Some p -> (
        match label_opt t p with Some _ as l -> Some (l, None) | None -> walk ()))
    | Store.Kind.Document | Store.Kind.Element | Store.Kind.Attribute | Store.Kind.Text -> walk ()
  in
  match neighbours with
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

let remove t node = Hashtbl.remove t node

let remove_subtree t store node =
  let rec go node =
    remove t node;
    List.iter go (Store.attributes store node);
    List.iter go (Store.children store node)
  in
  go node

let bindings t =
  Hashtbl.fold (fun node l acc -> (node, l) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Store.compare_node a b)

let restore pairs =
  let t = create (List.length pairs) in
  List.iter (fun (node, l) -> set t node l) pairs;
  t

let check_against_tree store root t =
  let nodes = Store.descendants_or_self store root in
  let module Order = Xsm_xdm.Order in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          match label_opt t a, label_opt t b with
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
