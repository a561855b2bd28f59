module Store = Xsm_xdm.Store
module Journal = Xsm_schema.Update.Journal
module Bs = Xsm_storage.Block_storage

exception Out_of_sync of string

type t = { bs : Bs.t; journal : Journal.t; cursor : Journal.cursor }

let storage m = m.bs

let create ?block_capacity journal store root =
  let bs = Bs.of_store ?block_capacity store root in
  { bs; journal; cursor = Journal.subscribe journal }

let detach m = Journal.unsubscribe m.journal m.cursor

let desc_exn m n =
  match Bs.descriptor_of_node m.bs n with
  | Some d -> d
  | None -> raise (Out_of_sync "store node has no descriptor")

let rec insert_subtree m store ~parent_d ~after_d n =
  match Store.kind store n with
  | Store.Kind.Text ->
    let d, _ = Bs.insert_text m.bs ~parent:parent_d ~after:after_d (Store.string_value store n) in
    Bs.bind_node m.bs n d;
    d
  | Store.Kind.Attribute ->
    let name =
      match Store.node_name store n with
      | Some nm -> nm
      | None -> raise (Out_of_sync "unnamed attribute")
    in
    let d, _ = Bs.insert_attribute m.bs ~parent:parent_d name (Store.string_value store n) in
    Bs.bind_node m.bs n d;
    d
  | Store.Kind.Element ->
    let name =
      match Store.node_name store n with
      | Some nm -> nm
      | None -> raise (Out_of_sync "unnamed element")
    in
    let d, _ = Bs.insert_element m.bs ~parent:parent_d ~after:after_d name in
    Bs.bind_node m.bs n d;
    let last_attr =
      List.fold_left
        (fun _ a -> Some (insert_subtree m store ~parent_d:d ~after_d:None a))
        None (Store.attributes store n)
    in
    ignore
      (List.fold_left
         (fun after c -> Some (insert_subtree m store ~parent_d:d ~after_d:after c))
         last_attr (Store.children store n));
    d
  | Store.Kind.Document -> raise (Out_of_sync "cannot insert a document node")

(* bottom-up: the storage deletes leaves only *)
let rec delete_subtree m d =
  List.iter (delete_subtree m) (Bs.attributes m.bs d);
  List.iter (delete_subtree m) (Bs.children m.bs d);
  Bs.delete m.bs d

let apply_entry m store = function
  | Journal.Content n -> Bs.set_content m.bs (desc_exn m n) (Store.string_value store n)
  | Journal.Deleted n -> delete_subtree m (desc_exn m n)
  | Journal.Inserted n ->
    let p =
      match Store.parent store n with
      | Some p -> p
      | None -> raise (Out_of_sync "inserted node has no parent")
    in
    let parent_d = desc_exn m p in
    (* after the nearest sibling the replica already holds: one drained
       batch may link several siblings before any is absorbed *)
    let after_d =
      match
        Xsm_numbering.Sedna_label.neighbours ~label_of:(Bs.descriptor_of_node m.bs)
          ~is_self:(Store.equal_node n)
          (Store.attributes store p @ Store.children store p)
      with
      | Some (prev, _) -> prev
      | None -> raise (Out_of_sync "inserted node is not among its parent's nodes")
    in
    ignore (insert_subtree m store ~parent_d ~after_d n)

let absorb m store = Journal.iter m.journal m.cursor (apply_entry m store)
