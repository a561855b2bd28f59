module Store = Xsm_xdm.Store
module Name = Xsm_xml.Name
module Schema = Descriptive_schema
module Label = Xsm_numbering.Sedna_label
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Codec = Xsm_pager.Codec

type desc = {
  id : int;
  d_snode : Schema.snode;
  mutable parent : desc option;
  mutable left : desc option;
  mutable right : desc option;
  mutable next_in_block : desc option;
  mutable prev_in_block : desc option;
  mutable nid : Label.t;
  mutable first_children : (int * desc) list;  (* child snode id -> first desc *)
  mutable value : string;
  mutable home : block option;
}

and block = {
  block_id : int;
  b_snode : Schema.snode;
  capacity : int;
  owner : t;
  mutable count : int;
  mutable first : desc option;
  mutable last : desc option;
  mutable next_block : block option;
  mutable prev_block : block option;
}

and t = {
  dschema : Schema.t;
  block_capacity : int;
  mutable next_desc_id : int;
  mutable next_block_id : int;
  mutable splits : int;
  mutable descriptors : int;
  (* head/tail block per schema node id *)
  heads : (int, block) Hashtbl.t;
  tails : (int, block) Hashtbl.t;
  by_node : (int, desc) Hashtbl.t;  (* store node id -> descriptor *)
  mutable root_desc : desc option;
  blocks_by_id : (int, block) Hashtbl.t;
  mutable pager : Pager.t option;
  mutable lsn_now : unit -> int;  (* WAL position covering the current change *)
  ser_buf : Buffer.t;  (* block images are encoded here, under the pager mutex *)
}

let schema t = t.dschema

(* ------------------------------------------------------------------ *)
(* Paging discipline                                                   *)

(* Values are the paged payload: evicting a block drops every
   descriptor's value string (the skeleton — pointers, nids, chains —
   stays resident), and faulting the block back restores the values
   positionally from the blob.  So only three kinds of call go through
   the pager:

   - value reads ([read_value], one [Pager.read] critical section);
   - structural mutations, which {e write first} ([Pager.write]:
     fault and mark dirty in one section, before the change): that
     positional match means mutating a cold block's chain would let a
     later fault hand old values to the new chain;
   - extent scans ([descendants_by_snode]), whose [~scan] touch drives
     2Q admission.

   Navigation ([root], [parent], siblings, first-child-by-schema,
   [children], [attributes]) reads resident pointers and never touches
   a block. *)
let evicted_value = "\000<paged-out>"

let touch_block ?scan t b =
  match t.pager with
  | None -> ()
  | Some p -> ignore (Pager.touch ?scan p b.block_id)

(* the one call a mutation makes before it mutates: fault the block in
   and mark it dirty, in one pager section *)
let write_block ?pin t b =
  match t.pager with
  | None -> ()
  | Some p -> Pager.write ?pin p b.block_id ~lsn:(t.lsn_now ())

let unpin_block t b =
  match t.pager with None -> () | Some p -> Pager.unpin p b.block_id

(* pointer-only mutations (parent/left/right/first-children) could be
   dirtied after the fact — a fault never restores pointers — but one
   section before the change is cheaper than two *)
let dirty_desc d = match d.home with None -> () | Some b -> write_block b.owner b

(* fault and field read in one critical section: a concurrent
   reader's fault cannot evict the block in between *)
let read_value d =
  match d.home with
  | None -> d.value
  | Some b -> (
    match b.owner.pager with
    | None -> d.value
    | Some p -> Pager.read p b.block_id (fun () -> d.value))

let root t =
  match t.root_desc with
  | Some d -> d
  | None -> invalid_arg "Block_storage.root: empty"

let descriptor_of_node t n = Hashtbl.find_opt t.by_node (Store.node_id n)
let bind_node t n d = Hashtbl.replace t.by_node (Store.node_id n) d

(* ------------------------------------------------------------------ *)
(* Block management                                                    *)

let new_block t snode =
  let b =
    {
      block_id = t.next_block_id;
      b_snode = snode;
      capacity = t.block_capacity;
      owner = t;
      count = 0;
      first = None;
      last = None;
      next_block = None;
      prev_block = None;
    }
  in
  t.next_block_id <- t.next_block_id + 1;
  Hashtbl.replace t.blocks_by_id b.block_id b;
  (match t.pager with
  | None -> ()
  | Some p ->
    (* dirty from birth: a clean frame with no disk image would be
       evicted without write-back and its descriptors' values lost *)
    Pager.register_new p b.block_id ~lsn:(t.lsn_now ()));
  b

(* append a block at the tail of its snode's list *)
let append_block t b =
  let sid = Schema.snode_id b.b_snode in
  (match Hashtbl.find_opt t.tails sid with
  | None ->
    Hashtbl.replace t.heads sid b;
    Hashtbl.replace t.tails sid b
  | Some tail ->
    tail.next_block <- Some b;
    b.prev_block <- Some tail;
    Hashtbl.replace t.tails sid b)

(* insert block nb right after block b in the list *)
let link_block_after t b nb =
  nb.prev_block <- Some b;
  nb.next_block <- b.next_block;
  (match b.next_block with
  | Some n -> n.prev_block <- Some nb
  | None -> Hashtbl.replace t.tails (Schema.snode_id b.b_snode) nb);
  b.next_block <- Some nb

(* append descriptor at the tail of block b's chain *)
let append_to_block b d =
  write_block b.owner b;
  d.home <- Some b;
  d.prev_in_block <- b.last;
  d.next_in_block <- None;
  (match b.last with Some l -> l.next_in_block <- Some d | None -> b.first <- Some d);
  b.last <- Some d;
  b.count <- b.count + 1

(* insert descriptor nd into block b right after descriptor d (None =
   at the head) *)
let insert_in_block b ~after nd =
  write_block b.owner b;
  nd.home <- Some b;
  (match after with
  | None ->
    nd.prev_in_block <- None;
    nd.next_in_block <- b.first;
    (match b.first with Some f -> f.prev_in_block <- Some nd | None -> b.last <- Some nd);
    b.first <- Some nd
  | Some d ->
    nd.prev_in_block <- Some d;
    nd.next_in_block <- d.next_in_block;
    (match d.next_in_block with
    | Some n -> n.prev_in_block <- Some nd
    | None -> b.last <- Some nd);
    d.next_in_block <- Some nd);
  b.count <- b.count + 1

let remove_from_block d =
  match d.home with
  | None -> ()
  | Some b ->
    write_block b.owner b;
    (match d.prev_in_block with
    | Some p -> p.next_in_block <- d.next_in_block
    | None -> b.first <- d.next_in_block);
    (match d.next_in_block with
    | Some n -> n.prev_in_block <- d.prev_in_block
    | None -> b.last <- d.prev_in_block);
    b.count <- b.count - 1;
    d.home <- None;
    d.prev_in_block <- None;
    d.next_in_block <- None

(* split a full block: move the upper half of the chain into a fresh
   block linked right after; returns how many descriptors moved.  The
   source block stays pinned across the fresh block's registration:
   admitting the new frame can evict, and the source is mid-surgery. *)
let split_block t b =
  write_block ~pin:true t b;
  let keep = b.count / 2 in
  (* find the descriptor at position keep-1 *)
  let rec nth d i = if i = 0 then d else nth (Option.get d.next_in_block) (i - 1) in
  let boundary = nth (Option.get b.first) (keep - 1) in
  let moved_head = boundary.next_in_block in
  boundary.next_in_block <- None;
  let old_last = b.last in
  b.last <- Some boundary;
  let nb = new_block t b.b_snode in
  link_block_after t b nb;
  nb.first <- moved_head;
  nb.last <- old_last;
  (match moved_head with Some m -> m.prev_in_block <- None | None -> ());
  let moved = ref 0 in
  let rec adopt = function
    | None -> ()
    | Some d ->
      d.home <- Some nb;
      incr moved;
      adopt d.next_in_block
  in
  adopt moved_head;
  nb.count <- !moved;
  b.count <- b.count - !moved;
  t.splits <- t.splits + 1;
  unpin_block t b;
  !moved

(* ------------------------------------------------------------------ *)
(* Descriptor construction                                             *)

let new_desc t snode nid =
  let d =
    {
      id = t.next_desc_id;
      d_snode = snode;
      parent = None;
      left = None;
      right = None;
      next_in_block = None;
      prev_in_block = None;
      nid;
      first_children = [];
      value = "";
      home = None;
    }
  in
  t.next_desc_id <- t.next_desc_id + 1;
  t.descriptors <- t.descriptors + 1;
  d

(* during initial (document-ordered) build: place at tail block *)
let place_at_tail t d =
  let sid = Schema.snode_id d.d_snode in
  let target =
    match Hashtbl.find_opt t.tails sid with
    | Some b when b.count < b.capacity -> b
    | Some _ | None ->
      let b = new_block t d.d_snode in
      append_block t b;
      b
  in
  append_to_block target d

let make_empty ~block_capacity =
  {
    dschema = Schema.create ();
    block_capacity;
    next_desc_id = 0;
    next_block_id = 0;
    splits = 0;
    descriptors = 0;
    heads = Hashtbl.create 64;
    tails = Hashtbl.create 64;
    by_node = Hashtbl.create 256;
    root_desc = None;
    blocks_by_id = Hashtbl.create 64;
    pager = None;
    lsn_now = (fun () -> 0);
    ser_buf = Buffer.create 1024;
  }

let of_store ?(block_capacity = 64) store docnode =
  let t = make_empty ~block_capacity in
  let rec build node sn nid =
    let d = new_desc t sn nid in
    Hashtbl.replace t.by_node (Store.node_id node) d;
    (match Store.kind store node with
    | Store.Kind.Text | Store.Kind.Attribute -> d.value <- Store.string_value store node
    | Store.Kind.Document | Store.Kind.Element -> ());
    place_at_tail t d;
    let ordered = Store.attributes store node @ Store.children store node in
    let child_labels = Label.assign_children nid (List.length ordered) in
    let prev = ref None in
    List.iter2
      (fun c cl ->
        let csn =
          Schema.find_or_add t.dschema sn
            ~name:(Store.node_name store c)
            (Schema.kind_of_store (Store.kind store c))
        in
        let cd = build c csn cl in
        cd.parent <- Some d;
        (match !prev with
        | Some p ->
          p.right <- Some cd;
          cd.left <- Some p
        | None -> ());
        prev := Some cd;
        if not (List.mem_assoc (Schema.snode_id csn) d.first_children) then
          d.first_children <- d.first_children @ [ (Schema.snode_id csn, cd) ])
      ordered child_labels;
    d
  in
  let rootd =
    match Store.kind store docnode with
    | Store.Kind.Document -> build docnode (Schema.root t.dschema) Label.root
    | Store.Kind.Element ->
      let sn =
        Schema.find_or_add t.dschema (Schema.root t.dschema)
          ~name:(Store.node_name store docnode)
          Schema.Element
      in
      build docnode sn Label.root
    | Store.Kind.Attribute | Store.Kind.Text ->
      invalid_arg "Block_storage.of_store: not a tree root"
  in
  t.root_desc <- Some rootd;
  t

(* ------------------------------------------------------------------ *)
(* Streaming (document-order) build                                    *)

let create_empty ?(block_capacity = 64) () =
  let t = make_empty ~block_capacity in
  let d = new_desc t (Schema.root t.dschema) Label.root in
  place_at_tail t d;
  t.root_desc <- Some d;
  t

let snode d = d.d_snode
let node_kind d = Schema.kind_to_string (Schema.kind d.d_snode)
let node_name d = Schema.name d.d_snode

let parent d = d.parent

let nid d = d.nid
let desc_id d = d.id

let left_sibling d = d.left
let right_sibling d = d.right

let home_block_id d = Option.map (fun b -> b.block_id) d.home

let first_child_by_schema d sn = List.assoc_opt (Schema.snode_id sn) d.first_children

let all_children_unordered d =
  (* leftmost first child, then the right-sibling chain *)
  match d.first_children with
  | [] -> []
  | firsts ->
    let leftmost =
      List.fold_left
        (fun best (_, c) ->
          match best with
          | None -> Some c
          | Some b -> if Label.compare c.nid b.nid < 0 then Some c else best)
        None firsts
    in
    let rec walk acc = function
      | None -> List.rev acc
      | Some c -> walk (c :: acc) c.right
    in
    walk [] leftmost

let children _t d =
  List.filter
    (fun c -> match Schema.kind c.d_snode with
      | Schema.Element | Schema.Text -> true
      | Schema.Attribute | Schema.Document -> false)
    (all_children_unordered d)

let attributes _t d =
  List.filter (fun c -> Schema.kind c.d_snode = Schema.Attribute) (all_children_unordered d)

let rec string_value t d =
  match Schema.kind d.d_snode with
  | Schema.Text | Schema.Attribute -> read_value d
  | Schema.Document | Schema.Element ->
    String.concat "" (List.map (string_value t) (children t d))

let typed_value t d = [ Xsm_datatypes.Value.Untyped_atomic (string_value t d) ]

let descendants_by_snode t sn =
  match Hashtbl.find_opt t.heads (Schema.snode_id sn) with
  | None -> []
  | Some head ->
    let rec blocks acc = function
      | None -> List.rev acc
      | Some b -> blocks (b :: acc) b.next_block
    in
    let in_block b =
      (* an extent scan streams through the pool's FIFO: the scan hint
         keeps even re-referenced blocks out of the LRU working set *)
      touch_block ~scan:true t b;
      let rec go acc = function
        | None -> List.rev acc
        | Some d -> go (d :: acc) d.next_in_block
      in
      go [] b.first
    in
    List.concat_map in_block (blocks [] (Some head))

let rec to_element t d =
  match Schema.kind d.d_snode with
  | Schema.Element ->
    let name =
      match Schema.name d.d_snode with
      | Some n -> n
      | None -> invalid_arg "to_element: unnamed element descriptor"
    in
    let attributes =
      List.map
        (fun a ->
          match Schema.name a.d_snode with
          | Some n -> { Xsm_xml.Tree.name = n; value = read_value a }
          | None -> invalid_arg "to_element: unnamed attribute descriptor")
        (attributes t d)
    in
    let children =
      List.map
        (fun c ->
          match Schema.kind c.d_snode with
          | Schema.Text -> Xsm_xml.Tree.Text (read_value c)
          | Schema.Element -> Xsm_xml.Tree.Element (to_element t c)
          | Schema.Document | Schema.Attribute ->
            invalid_arg "to_element: impossible child kind")
        (children t d)
    in
    { Xsm_xml.Tree.name; attributes; children }
  | Schema.Document | Schema.Attribute | Schema.Text ->
    invalid_arg "to_element: not an element descriptor"

let to_document t =
  let r = root t in
  match Schema.kind r.d_snode with
  | Schema.Document -> (
    match children t r with
    | [ e ] -> Xsm_xml.Tree.document (to_element t e)
    | _ -> invalid_arg "to_document: document descriptor must have one element child")
  | Schema.Element -> Xsm_xml.Tree.document (to_element t r)
  | Schema.Attribute | Schema.Text -> invalid_arg "to_document: bad root descriptor"

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* document-order placement: the new descriptor must sit after every
   same-snode descriptor with a smaller nid and before every one with
   a larger nid.  We scan the block list to find the neighbour. *)
let place_ordered t d =
  let sid = Schema.snode_id d.d_snode in
  match Hashtbl.find_opt t.heads sid with
  | None ->
    let b = new_block t d.d_snode in
    append_block t b;
    append_to_block b d;
    0
  | Some head ->
    (* find the last descriptor with nid < d.nid *)
    let rec find_block b =
      match b.next_block with
      | Some nb -> (
        match nb.first with
        | Some f when Label.compare f.nid d.nid < 0 -> find_block nb
        | Some _ | None -> b)
      | None -> b
    in
    let b = find_block head in
    let rec find_pred cur pred =
      match cur with
      | None -> pred
      | Some c -> if Label.compare c.nid d.nid < 0 then find_pred c.next_in_block (Some c) else pred
    in
    let pred = find_pred b.first None in
    if b.count < b.capacity then begin
      insert_in_block b ~after:pred d;
      0
    end
    else begin
      (* split, then retry placement in the correct half *)
      let moved = split_block t b in
      let target =
        match b.last with
        | Some l when Label.compare d.nid l.nid > 0 -> Option.get b.next_block
        | Some _ -> b
        | None -> b
      in
      let pred = find_pred target.first None in
      insert_in_block target ~after:pred d;
      moved
    end

let sibling_label ~parent_d ~after =
  match after with
  | None -> (
    (* before the current first child, or the very first child *)
    match
      List.fold_left
        (fun best (_, c) ->
          match best with
          | None -> Some c
          | Some b -> if Label.compare c.nid b.nid < 0 then Some c else best)
        None parent_d.first_children
    with
    | None -> Label.first_child parent_d.nid
    | Some first -> Label.before_sibling first.nid)
  | Some a -> (
    match a.right with
    | None -> Label.after_sibling a.nid
    | Some next -> Label.between a.nid next.nid)

let link_sibling ~parent_d ~after nd =
  nd.parent <- Some parent_d;
  (match after with
  | None ->
    (* becomes leftmost: fix old leftmost's left pointer *)
    let old_first =
      List.fold_left
        (fun best (_, c) ->
          match best with
          | None -> Some c
          | Some b -> if Label.compare c.nid b.nid < 0 then Some c else best)
        None parent_d.first_children
    in
    (match old_first with
    | Some f ->
      nd.right <- Some f;
      f.left <- Some nd;
      dirty_desc f
    | None -> ())
  | Some a ->
    nd.left <- Some a;
    nd.right <- a.right;
    (match a.right with
    | Some r ->
      r.left <- Some nd;
      dirty_desc r
    | None -> ());
    a.right <- Some nd;
    dirty_desc a);
  (* maintain the first-child-by-schema vector *)
  let sid = Schema.snode_id nd.d_snode in
  (match List.assoc_opt sid parent_d.first_children with
  | None -> parent_d.first_children <- parent_d.first_children @ [ (sid, nd) ]
  | Some current ->
    if Label.compare nd.nid current.nid < 0 then
      parent_d.first_children <-
        List.map (fun (k, v) -> if k = sid then (k, nd) else (k, v)) parent_d.first_children);
  dirty_desc parent_d

(* streaming append: the caller supplies the nid (a document-order
   append label) and guarantees [after] is the current last child, so
   the tail block of the snode's list is always the right placement —
   no scan, no split *)
let append_generic t ~parent:parent_d ~after kind name value nid =
  let sn = Schema.find_or_add t.dschema parent_d.d_snode ~name kind in
  let d = new_desc t sn nid in
  d.value <- value;
  link_sibling ~parent_d ~after d;
  place_at_tail t d;
  d

let append_element t ~parent ~after name nid =
  append_generic t ~parent ~after Schema.Element (Some name) "" nid

let append_text t ~parent ~after value nid =
  append_generic t ~parent ~after Schema.Text None value nid

let append_attribute t ~parent ~after name value nid =
  append_generic t ~parent ~after Schema.Attribute (Some name) value nid

let insert_generic t ~parent:parent_d ~after kind name value =
  let sn =
    Schema.find_or_add t.dschema parent_d.d_snode ~name kind
  in
  let nid = sibling_label ~parent_d ~after in
  let d = new_desc t sn nid in
  d.value <- value;
  link_sibling ~parent_d ~after d;
  let moved = place_ordered t d in
  (d, moved)

let insert_element t ~parent ~after name =
  insert_generic t ~parent ~after Schema.Element (Some name) ""

let insert_text t ~parent ~after value =
  insert_generic t ~parent ~after Schema.Text None value

let insert_attribute t ~parent name value =
  (* attributes precede element children in the §7 order; we place the
     new attribute after the last existing attribute *)
  let attrs = attributes t parent in
  let after = match List.rev attrs with [] -> None | last :: _ -> Some last in
  insert_generic t ~parent ~after Schema.Attribute (Some name) value

let set_content t d v =
  match d.home with
  | None -> d.value <- v
  | Some b ->
    write_block ~pin:true t b;
    d.value <- v;
    unpin_block t b

let delete t d =
  if d.first_children <> [] then invalid_arg "Block_storage.delete: not a leaf";
  (match d.left with
  | Some l ->
    l.right <- d.right;
    dirty_desc l
  | None -> ());
  (match d.right with
  | Some r ->
    r.left <- d.left;
    dirty_desc r
  | None -> ());
  (match d.parent with
  | Some p ->
    let sid = Schema.snode_id d.d_snode in
    (match List.assoc_opt sid p.first_children with
    | Some cur when cur == d ->
      (* next same-snode sibling, if any, becomes the first child *)
      let rec next_same = function
        | None -> None
        | Some r -> if Schema.snode_id r.d_snode = sid then Some r else next_same r.right
      in
      (match next_same d.right with
      | Some r ->
        p.first_children <-
          List.map (fun (k, v) -> if k = sid then (k, r) else (k, v)) p.first_children
      | None -> p.first_children <- List.remove_assoc sid p.first_children)
    | _ -> ());
    dirty_desc p
  | None -> ());
  remove_from_block d;
  t.descriptors <- t.descriptors - 1

(* ------------------------------------------------------------------ *)
(* Block blobs and checkpoint metadata                                 *)

(* blob layout, per descriptor in chain order:
   id ‖ snode id ‖ nid ‖ value ‖ parent+1 ‖ left+1 ‖ right+1
   ‖ #first-children ‖ (snode id ‖ desc id)*
   prefixed by the block's snode id and count.  The full structure is
   written (the reopen path rebuilds skeletons from it) but a live
   fault restores only the values — the skeleton never leaves
   memory. *)
let serialize_block b =
  let w = b.owner.ser_buf in
  Buffer.clear w;
  Codec.W.varint w (Schema.snode_id b.b_snode);
  Codec.W.varint w b.count;
  let opt_id = function None -> Codec.W.varint w 0 | Some d -> Codec.W.varint w (d.id + 1) in
  let rec go = function
    | None -> ()
    | Some d ->
      Codec.W.varint w d.id;
      Codec.W.varint w (Schema.snode_id d.d_snode);
      Codec.W.string w (Label.to_raw d.nid);
      Codec.W.string w d.value;
      opt_id d.parent;
      opt_id d.left;
      opt_id d.right;
      Codec.W.varint w (List.length d.first_children);
      List.iter
        (fun (sid, c) ->
          Codec.W.varint w sid;
          Codec.W.varint w c.id)
        d.first_children;
      go d.next_in_block
  in
  go b.first;
  Codec.W.contents w

(* restore a faulted block: values only, matched positionally against
   the resident chain (which cannot have changed while cold — every
   structural mutation faults first) *)
let deserialize_block b payload =
  let r = Codec.R.of_string payload in
  let sid = Codec.R.varint r in
  if sid <> Schema.snode_id b.b_snode then
    raise (Codec.Corrupt (Printf.sprintf "block %d blob: snode %d, expected %d" b.block_id sid
                            (Schema.snode_id b.b_snode)));
  let n = Codec.R.varint r in
  if n <> b.count then
    raise (Codec.Corrupt (Printf.sprintf "block %d blob: %d descriptors, chain has %d"
                            b.block_id n b.count));
  let rec go = function
    | None -> ()
    | Some d ->
      let id = Codec.R.varint r in
      if id <> d.id then
        raise (Codec.Corrupt (Printf.sprintf "block %d blob: descriptor %d, chain has %d"
                                b.block_id id d.id));
      Codec.R.skip_varint r (* snode *);
      Codec.R.skip_string r (* nid *);
      d.value <- Codec.R.string r;
      Codec.R.skip_varint r (* parent *);
      Codec.R.skip_varint r (* left *);
      Codec.R.skip_varint r (* right *);
      for _ = 1 to 2 * Codec.R.varint r do
        Codec.R.skip_varint r (* first-child snode id, desc id *)
      done;
      go d.next_in_block
  in
  go b.first

let evict_block b =
  let rec go = function
    | None -> ()
    | Some d ->
      d.value <- evicted_value;
      go d.next_in_block
  in
  go b.first

let handlers t =
  {
    Pager.serialize = (fun id -> serialize_block (Hashtbl.find t.blocks_by_id id));
    deserialize = (fun id payload -> deserialize_block (Hashtbl.find t.blocks_by_id id) payload);
    on_evict = (fun id -> evict_block (Hashtbl.find t.blocks_by_id id));
  }

let set_lsn_source t f = t.lsn_now <- f
let pager t = t.pager

let attach_pager ?wal t ~capacity file =
  if t.pager <> None then invalid_arg "Block_storage.attach_pager: already paged";
  let p = Pager.create ~capacity ~handlers:(handlers t) ?wal file in
  t.pager <- Some p;
  (* every existing block becomes resident and dirty: the first
     eviction or checkpoint writes its image *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.blocks_by_id [] in
  List.iter (fun id -> Pager.register_new p id ~lsn:(t.lsn_now ())) (List.sort compare ids);
  p

(* checkpoint metadata: everything the blobs do not carry — counters,
   the descriptive schema (replayable in id order), the per-snode
   block-list orders, and the root descriptor *)
let kind_byte = function
  | Schema.Document -> 0
  | Schema.Element -> 1
  | Schema.Attribute -> 2
  | Schema.Text -> 3

let kind_of_byte = function
  | 0 -> Schema.Document
  | 1 -> Schema.Element
  | 2 -> Schema.Attribute
  | 3 -> Schema.Text
  | b -> raise (Codec.Corrupt (Printf.sprintf "bad schema-node kind %d" b))

let encode_meta t =
  let w = Codec.W.create ~initial:1024 () in
  Codec.W.varint w t.block_capacity;
  Codec.W.varint w t.next_desc_id;
  Codec.W.varint w t.next_block_id;
  Codec.W.varint w t.splits;
  Codec.W.varint w t.descriptors;
  (match t.root_desc with
  | None -> Codec.W.varint w 0
  | Some d -> Codec.W.varint w (d.id + 1));
  let n = Schema.node_count t.dschema in
  Codec.W.varint w n;
  for i = 1 to n - 1 do
    let sn = Schema.by_id t.dschema i in
    let p = match Schema.parent t.dschema sn with Some p -> Schema.snode_id p | None -> 0 in
    Codec.W.varint w p;
    Codec.W.byte w (kind_byte (Schema.kind sn));
    Codec.W.opt_string w (Option.map Name.to_string (Schema.name sn))
  done;
  let lists =
    Hashtbl.fold
      (fun sid head acc ->
        let rec ids b acc = match b with None -> List.rev acc | Some b -> ids b.next_block (b.block_id :: acc) in
        (sid, ids (Some head) []) :: acc)
      t.heads []
  in
  let lists = List.sort (fun (a, _) (b, _) -> compare a b) lists in
  Codec.W.varint w (List.length lists);
  List.iter
    (fun (sid, ids) ->
      Codec.W.varint w sid;
      Codec.W.varint w (List.length ids);
      List.iter (Codec.W.varint w) ids)
    lists;
  Codec.W.contents w

let checkpoint t ~lsn =
  match t.pager with
  | None -> invalid_arg "Block_storage.checkpoint: no pager attached"
  | Some p -> Pager.checkpoint p ~lsn ~meta:(encode_meta t)

let of_page_file ?wal ~capacity file =
  (match Pager.read_meta file with
  | Some _ when Page_file.clean file -> ()
  | Some _ -> raise (Codec.Corrupt (Page_file.path file ^ ": not cleanly checkpointed"))
  | None -> raise (Codec.Corrupt (Page_file.path file ^ ": no checkpoint metadata")));
  let dir, meta = Option.get (Pager.read_meta file) in
  let heads_of_block = Hashtbl.create 64 in
  List.iter (fun (id, head) -> Hashtbl.replace heads_of_block id head) dir;
  let r = Codec.R.of_string meta in
  let block_capacity = Codec.R.varint r in
  let t = make_empty ~block_capacity in
  t.next_desc_id <- Codec.R.varint r;
  t.next_block_id <- Codec.R.varint r;
  t.splits <- Codec.R.varint r;
  t.descriptors <- Codec.R.varint r;
  let root_id = Codec.R.varint r - 1 in
  (* replay the descriptive schema in id order: find_or_add is
     deterministic, so every schema node lands on its original id *)
  let n = Codec.R.varint r in
  for i = 1 to n - 1 do
    let pid = Codec.R.varint r in
    let kind = kind_of_byte (Codec.R.byte r) in
    let name =
      match Codec.R.opt_string r with
      | None -> None
      | Some s -> Some (Name.of_string_exn s)
    in
    let sn = Schema.find_or_add t.dschema (Schema.by_id t.dschema pid) ~name kind in
    if Schema.snode_id sn <> i then
      raise (Codec.Corrupt (Printf.sprintf "schema replay: node %d resolved to %d" i
                              (Schema.snode_id sn)))
  done;
  (* pass 1: rebuild every block skeleton from its blob — chains,
     nids, homes — leaving values evicted (frames start cold) *)
  let descs : (int, desc) Hashtbl.t = Hashtbl.create 256 in
  let links : (desc * int * int * int * (int * int) list) list ref = ref [] in
  let load_block b =
    match Hashtbl.find_opt heads_of_block b.block_id with
    | None -> ()
    | Some head ->
      let payload, _lsn = Page_file.read_blob file head in
      let r = Codec.R.of_string payload in
      let sid = Codec.R.varint r in
      if sid <> Schema.snode_id b.b_snode then
        raise (Codec.Corrupt (Printf.sprintf "block %d blob: snode %d, expected %d" b.block_id
                                sid (Schema.snode_id b.b_snode)));
      let n = Codec.R.varint r in
      let prev = ref None in
      for _ = 1 to n do
        let id = Codec.R.varint r in
        let dsid = Codec.R.varint r in
        let nid =
          match Label.of_raw (Codec.R.string r) with
          | Ok l -> l
          | Error e -> raise (Codec.Corrupt ("bad numbering label: " ^ e))
        in
        let _value = Codec.R.string r in
        let p = Codec.R.varint r - 1 in
        let l = Codec.R.varint r - 1 in
        let rt = Codec.R.varint r - 1 in
        let fc = Codec.R.varint r in
        let firsts =
          List.init fc (fun _ ->
              let sid = Codec.R.varint r in
              let cid = Codec.R.varint r in
              (sid, cid))
        in
        let d =
          {
            id;
            d_snode = Schema.by_id t.dschema dsid;
            parent = None;
            left = None;
            right = None;
            next_in_block = None;
            prev_in_block = !prev;
            nid;
            first_children = [];
            value = evicted_value;
            home = Some b;
          }
        in
        (match !prev with Some pd -> pd.next_in_block <- Some d | None -> b.first <- Some d);
        prev := Some d;
        Hashtbl.replace descs id d;
        links := (d, p, l, rt, firsts) :: !links
      done;
      b.last <- !prev;
      b.count <- n
  in
  let nl = Codec.R.varint r in
  for _ = 1 to nl do
    let sid = Codec.R.varint r in
    let cnt = Codec.R.varint r in
    let ids = List.init cnt (fun _ -> Codec.R.varint r) in
    let sn = Schema.by_id t.dschema sid in
    List.iter
      (fun bid ->
        let b =
          {
            block_id = bid;
            b_snode = sn;
            capacity = block_capacity;
            owner = t;
            count = 0;
            first = None;
            last = None;
            next_block = None;
            prev_block = None;
          }
        in
        Hashtbl.replace t.blocks_by_id bid b;
        append_block t b;
        load_block b)
      ids
  done;
  if not (Codec.R.at_end r) then raise (Codec.Corrupt "trailing bytes in storage metadata");
  (* pass 2: resolve cross-block descriptor pointers by id *)
  let resolve id =
    match Hashtbl.find_opt descs id with
    | Some d -> d
    | None -> raise (Codec.Corrupt (Printf.sprintf "dangling descriptor id %d" id))
  in
  List.iter
    (fun (d, p, l, rt, firsts) ->
      if p >= 0 then d.parent <- Some (resolve p);
      if l >= 0 then d.left <- Some (resolve l);
      if rt >= 0 then d.right <- Some (resolve rt);
      d.first_children <- List.map (fun (sid, cid) -> (sid, resolve cid)) firsts)
    !links;
  if root_id >= 0 then t.root_desc <- Some (resolve root_id);
  (* the pager seeds cold frames from the checkpoint directory: the
     first touch of any block faults its values back in *)
  t.pager <- Some (Pager.create ~capacity ~handlers:(handlers t) ?wal file);
  t

(* ------------------------------------------------------------------ *)
(* Statistics and integrity                                            *)

let block_count t =
  Hashtbl.fold
    (fun _ head acc ->
      let rec count b acc = match b.next_block with None -> acc | Some nb -> count nb (acc + 1) in
      count head (acc + 1))
    t.heads 0

let split_count t = t.splits
let descriptor_count t = t.descriptors

let blocks_of_snode t sn =
  match Hashtbl.find_opt t.heads (Schema.snode_id sn) with
  | None -> 0
  | Some head ->
    let rec count b acc = match b.next_block with None -> acc | Some nb -> count nb (acc + 1) in
    count head 1

let check_integrity t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_snode_list _sid head =
    (* nids strictly increasing across the whole block list *)
    let rec walk_blocks prev_nid b =
      let rec walk_chain prev_nid = function
        | None -> Ok prev_nid
        | Some d -> (
          (match d.home with
          | Some hb when hb == b -> ()
          | _ -> failwith "descriptor home pointer wrong");
          match prev_nid with
          | Some p when Label.compare p d.nid >= 0 -> failwith "nid order violated"
          | _ -> walk_chain (Some d.nid) d.next_in_block)
      in
      match walk_chain prev_nid b.first with
      | Ok last -> (
        match b.next_block with
        | None -> Ok ()
        | Some nb -> (
          match nb.prev_block with
          | Some pb when pb == b -> walk_blocks last nb
          | Some _ | None -> failwith "block back-pointer wrong"))
      | Error _ as e -> e
    in
    walk_blocks None head
  in
  try
    Hashtbl.iter
      (fun sid head ->
        match check_snode_list sid head with
        | Ok () -> ()
        | Error e -> failwith e)
      t.heads;
    (* sibling chains and first-child pointers *)
    let rec check_desc d =
      List.iter
        (fun (sid, first) ->
          if Schema.snode_id first.d_snode <> sid then failwith "first-child snode mismatch";
          match first.parent with
          | Some p when p == d -> ()
          | Some _ | None -> failwith "first-child parent mismatch")
        d.first_children;
      let kids = all_children_unordered d in
      List.iter
        (fun c ->
          match c.parent with
          | Some p when p == d -> ()
          | Some _ | None -> failwith "child parent pointer wrong")
        kids;
      let rec ordered = function
        | a :: (b :: _ as rest) ->
          if Label.compare a.nid b.nid >= 0 then failwith "sibling order violated";
          ordered rest
        | [ _ ] | [] -> ()
      in
      ordered kids;
      List.iter check_desc kids
    in
    (match t.root_desc with Some r -> check_desc r | None -> ());
    Ok ()
  with Failure m -> err "%s" m
