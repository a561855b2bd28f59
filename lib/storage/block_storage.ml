module Store = Xsm_xdm.Store
module Name = Xsm_xml.Name
module Schema = Descriptive_schema
module Label = Xsm_numbering.Sedna_label
module Labeler = Xsm_numbering.Labeler
module Pager = Xsm_pager.Pager
module Page_file = Xsm_pager.Page_file
module Codec = Xsm_pager.Codec

(* Memory layout.  Every descriptor and every block allocates its own
   [Some] box once, at creation ([self], [b_self]); each link to it —
   parent, siblings, the in-block chain, a block's ends, [home], the
   block lists — stores that shared box, so linking allocates nothing
   and the accessors hand the box out as it is.  First-child-by-schema
   is a chain of mutable cells in first-appearance order, updated in
   place. *)
type desc = {
  id : int;
  d_snode : Schema.snode;
  mutable self : desc option;  (* [Some] of this descriptor, set once by [make_desc] *)
  mutable parent : desc option;
  mutable left : desc option;
  mutable right : desc option;
  mutable next_in_block : desc option;
  mutable prev_in_block : desc option;
  mutable nid : Label.t;
  mutable first_children : fc;
  mutable value : string;
  mutable home : block option;
}

(* child snode id -> the nid-least child of that snode *)
and fc = Fc_nil | Fc of { sid : int; mutable first : desc; mutable rest : fc }

and block = {
  block_id : int;
  b_snode : Schema.snode;
  capacity : int;
  owner : t;
  mutable b_self : block option;  (* [Some] of this block, set once by [make_block] *)
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
  (* head/tail block per schema node id, [None] past the end *)
  mutable heads : block option array;
  mutable tails : block option array;
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

(* ------------------------------------------------------------------ *)
(* First-child-by-schema chains                                        *)

(* the chain's cell for [sid], [Fc_nil] when it has none *)
let rec fc_cell sid = function
  | Fc c when c.sid <> sid -> fc_cell sid c.rest
  | cell -> cell

let rec fc_length n = function Fc_nil -> n | Fc c -> fc_length (n + 1) c.rest

(* the leftmost child overall: the nid-least of the chain's firsts *)
let rec fc_leftmost best = function
  | Fc_nil -> best
  | Fc c -> fc_leftmost (if Label.compare c.first.nid best.nid < 0 then c.first else best) c.rest

let leftmost_child d =
  match d.first_children with Fc_nil -> None | Fc c -> (fc_leftmost c.first c.rest).self

(* [nd], a new child of [d] with snode id [sid], becomes the chain's
   entry for [sid] if it has none (appended, keeping first-appearance
   order) or if it precedes the current one *)
let rec fc_link_from sid nd = function
  | Fc_nil -> ()
  | Fc c ->
    if c.sid = sid then (if Label.compare nd.nid c.first.nid < 0 then c.first <- nd)
    else (
      match c.rest with
      | Fc_nil -> c.rest <- Fc { sid; first = nd; rest = Fc_nil }
      | rest -> fc_link_from sid nd rest)

let fc_link d sid nd =
  match d.first_children with
  | Fc_nil -> d.first_children <- Fc { sid; first = nd; rest = Fc_nil }
  | chain -> fc_link_from sid nd chain

(* drop [sid]'s entry from the chain after the first cell *)
let rec fc_unlink_from sid = function
  | Fc_nil -> ()
  | Fc c -> (
    match c.rest with
    | Fc r when r.sid = sid -> c.rest <- r.rest
    | rest -> fc_unlink_from sid rest)

let fc_remove d sid =
  match d.first_children with
  | Fc c when c.sid = sid -> d.first_children <- c.rest
  | chain -> fc_unlink_from sid chain

(* ------------------------------------------------------------------ *)
(* Block management                                                    *)

(* the per-snode block lists' ends, indexed by snode id *)
let list_end ends sid = if sid < Array.length ends then Array.unsafe_get ends sid else None

let with_end ends sid b =
  let ends =
    if sid < Array.length ends then ends
    else begin
      let grown = Array.make (max (sid + 1) (2 * Array.length ends)) None in
      Array.blit ends 0 grown 0 (Array.length ends);
      grown
    end
  in
  ends.(sid) <- b;
  ends

let set_head t sid b = t.heads <- with_end t.heads sid b
let set_tail t sid b = t.tails <- with_end t.tails sid b

let make_block t ~block_id snode =
  let b =
    {
      block_id;
      b_snode = snode;
      capacity = t.block_capacity;
      owner = t;
      b_self = None;
      count = 0;
      first = None;
      last = None;
      next_block = None;
      prev_block = None;
    }
  in
  b.b_self <- Some b;
  Hashtbl.replace t.blocks_by_id block_id b;
  b

let new_block t snode =
  let b = make_block t ~block_id:t.next_block_id snode in
  t.next_block_id <- t.next_block_id + 1;
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
  (match list_end t.tails sid with
  | None -> set_head t sid b.b_self
  | Some tail as tail_box ->
    tail.next_block <- b.b_self;
    b.prev_block <- tail_box);
  set_tail t sid b.b_self

(* insert block nb right after block b in the list *)
let link_block_after t b nb =
  nb.prev_block <- b.b_self;
  nb.next_block <- b.next_block;
  (match b.next_block with
  | Some n -> n.prev_block <- nb.b_self
  | None -> set_tail t (Schema.snode_id b.b_snode) nb.b_self);
  b.next_block <- nb.b_self

(* append descriptor at the tail of block b's chain *)
let append_to_block b d =
  write_block b.owner b;
  d.home <- b.b_self;
  d.prev_in_block <- b.last;
  d.next_in_block <- None;
  (match b.last with Some l -> l.next_in_block <- d.self | None -> b.first <- d.self);
  b.last <- d.self;
  b.count <- b.count + 1

(* insert descriptor nd into block b right after descriptor d (None =
   at the head) *)
let insert_in_block b ~after nd =
  write_block b.owner b;
  nd.home <- b.b_self;
  (match after with
  | None ->
    nd.prev_in_block <- None;
    nd.next_in_block <- b.first;
    (match b.first with Some f -> f.prev_in_block <- nd.self | None -> b.last <- nd.self);
    b.first <- nd.self
  | Some d ->
    nd.prev_in_block <- d.self;
    nd.next_in_block <- d.next_in_block;
    (match d.next_in_block with
    | Some n -> n.prev_in_block <- nd.self
    | None -> b.last <- nd.self);
    d.next_in_block <- nd.self);
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
  b.last <- boundary.self;
  let nb = new_block t b.b_snode in
  link_block_after t b nb;
  nb.first <- moved_head;
  nb.last <- old_last;
  (match moved_head with Some m -> m.prev_in_block <- None | None -> ());
  let moved = ref 0 in
  let rec adopt = function
    | None -> ()
    | Some d ->
      d.home <- nb.b_self;
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

let make_desc ~id snode nid value =
  let d =
    {
      id;
      d_snode = snode;
      self = None;
      parent = None;
      left = None;
      right = None;
      next_in_block = None;
      prev_in_block = None;
      nid;
      first_children = Fc_nil;
      value;
      home = None;
    }
  in
  d.self <- Some d;
  d

let new_desc t snode nid =
  let d = make_desc ~id:t.next_desc_id snode nid "" in
  t.next_desc_id <- t.next_desc_id + 1;
  t.descriptors <- t.descriptors + 1;
  d

(* during initial (document-ordered) build: place at tail block *)
let place_at_tail t d =
  let sid = Schema.snode_id d.d_snode in
  let target =
    match list_end t.tails sid with
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
    heads = [||];
    tails = [||];
    root_desc = None;
    blocks_by_id = Hashtbl.create 64;
    pager = None;
    lsn_now = (fun () -> 0);
    ser_buf = Buffer.create 1024;
  }

(* a full block splits into two non-empty halves *)
let check_capacity fn block_capacity =
  if block_capacity < 2 then invalid_arg (Printf.sprintf "Block_storage.%s: block capacity < 2" fn)

let representable store root =
  match List.find_opt (fun n -> not (Store.untyped store n)) (Store.descendants_or_self store root) with
  | None -> Ok ()
  | Some n ->
    Error
      (Format.asprintf
         "%a carries a type annotation, typed value, nil flag or base URI; block storage keeps \
          none of them"
         (Store.pp_node store) n)

let of_store ?(block_capacity = 64) ?labels store docnode =
  check_capacity "of_store" block_capacity;
  let t = make_empty ~block_capacity in
  let labels_of nid ordered =
    match labels with
    | Some l -> List.map (Labeler.label l) ordered
    | None -> Label.assign_children nid (List.length ordered)
  in
  let rec build node sn nid =
    let d = new_desc t sn nid in
    (match Store.kind store node with
    | Store.Kind.Text | Store.Kind.Attribute -> d.value <- Store.string_value store node
    | Store.Kind.Document | Store.Kind.Element -> ());
    place_at_tail t d;
    let ordered = Store.attributes store node @ Store.children store node in
    let child_labels = labels_of nid ordered in
    let prev = ref None in
    List.iter2
      (fun c cl ->
        let csn =
          Schema.find_or_add t.dschema sn
            ~name:(Store.node_name store c)
            (Schema.kind_of_store (Store.kind store c))
        in
        let cd = build c csn cl in
        cd.parent <- d.self;
        (match !prev with
        | Some p ->
          p.right <- cd.self;
          cd.left <- !prev
        | None -> ());
        prev := cd.self;
        fc_link d (Schema.snode_id csn) cd)
      ordered child_labels;
    d
  in
  let root_label = match labels with Some l -> Labeler.label l docnode | None -> Label.root in
  let rootd =
    match Store.kind store docnode with
    | Store.Kind.Document -> build docnode (Schema.root t.dschema) root_label
    | Store.Kind.Element ->
      let sn =
        Schema.find_or_add t.dschema (Schema.root t.dschema)
          ~name:(Store.node_name store docnode)
          Schema.Element
      in
      build docnode sn root_label
    | Store.Kind.Attribute | Store.Kind.Text ->
      invalid_arg "Block_storage.of_store: not a tree root"
  in
  t.root_desc <- rootd.self;
  t

(* ------------------------------------------------------------------ *)
(* Streaming (document-order) build                                    *)

let create_empty ?(block_capacity = 64) () =
  check_capacity "create_empty" block_capacity;
  let t = make_empty ~block_capacity in
  let d = new_desc t (Schema.root t.dschema) Label.root in
  place_at_tail t d;
  t.root_desc <- d.self;
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

let first_child_by_schema d sn =
  match fc_cell (Schema.snode_id sn) d.first_children with Fc c -> c.first.self | Fc_nil -> None

let all_children_unordered d =
  (* leftmost first child, then the right-sibling chain *)
  let rec walk acc = function
    | None -> List.rev acc
    | Some c -> walk (c :: acc) c.right
  in
  walk [] (leftmost_child d)

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
  let rec chain acc = function None -> acc | Some d -> chain (d :: acc) d.next_in_block in
  let rec blocks acc = function
    | None -> List.rev acc
    | Some b ->
      (* an extent scan streams through the pool's FIFO: the scan hint
         keeps even re-referenced blocks out of the LRU working set *)
      touch_block ~scan:true t b;
      blocks (chain acc b.first) b.next_block
  in
  blocks [] (list_end t.heads (Schema.snode_id sn))

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

(* [of_store]'s inverse: a fresh XDM store node for every descriptor —
   text nodes as they are, adjacent or empty ones included — and the
   nids as (node, label) pairs *)
let to_store t =
  let store = Store.create () in
  let labels = ref [] in
  let rec build d =
    let node =
      match Schema.kind d.d_snode, Schema.name d.d_snode with
      | Schema.Document, _ -> Store.new_document store
      | Schema.Element, Some n -> Store.new_element store n
      | Schema.Attribute, Some n -> Store.new_attribute store n (read_value d)
      | Schema.Text, _ -> Store.new_text store (read_value d)
      | (Schema.Element | Schema.Attribute), None ->
        invalid_arg "Block_storage.to_store: unnamed descriptor"
    in
    labels := (node, d.nid) :: !labels;
    let attributes = List.map build (attributes t d) in
    Store.adopt store node ~attributes ~children:(List.map build (children t d));
    node
  in
  let root = build (root t) in
  (store, root, List.rev !labels)

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

(* document-order placement: the new descriptor must sit after every
   same-snode descriptor with a smaller nid and before every one with
   a larger nid.  We scan the block list to find the neighbour. *)
let place_ordered t d =
  let sid = Schema.snode_id d.d_snode in
  match list_end t.heads sid with
  | None ->
    let b = new_block t d.d_snode in
    append_block t b;
    append_to_block b d;
    0
  | Some head ->
    (* the block holding the last descriptor with nid < d.nid: the last
       block whose first nid is below d's.  A delete can empty a block
       in mid-list, so empty blocks are walked past, never chosen
       unless no block qualifies — a full block followed by an empty
       one still takes d when d falls inside its range *)
    let rec find_block best b =
      match b.next_block with
      | None -> best
      | Some nb -> (
        match nb.first with
        | None -> find_block best nb
        | Some f when Label.compare f.nid d.nid < 0 -> find_block nb nb
        | Some _ -> best)
    in
    let b = find_block head head in
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
    match leftmost_child parent_d with
    | None -> Label.first_child parent_d.nid
    | Some first -> Label.before_sibling first.nid)
  | Some a -> (
    match a.right with
    | None -> Label.after_sibling a.nid
    | Some next -> Label.between a.nid next.nid)

let link_sibling ~parent_d ~after nd =
  nd.parent <- parent_d.self;
  (match after with
  | None -> (
    (* becomes leftmost: fix old leftmost's left pointer *)
    match leftmost_child parent_d with
    | Some f as old_first ->
      nd.right <- old_first;
      f.left <- nd.self;
      dirty_desc f
    | None -> ())
  | Some a ->
    nd.left <- a.self;
    nd.right <- a.right;
    (match a.right with
    | Some r ->
      r.left <- nd.self;
      dirty_desc r
    | None -> ());
    a.right <- nd.self;
    dirty_desc a);
  fc_link parent_d (Schema.snode_id nd.d_snode) nd;
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

(* a new descriptor labelled [nid], linked under [parent_d] after
   [after] and placed in document order *)
let insert_labelled t ~parent:parent_d ~after kind name value nid =
  let sn = Schema.find_or_add t.dschema parent_d.d_snode ~name kind in
  let d = new_desc t sn nid in
  d.value <- value;
  link_sibling ~parent_d ~after d;
  let moved = place_ordered t d in
  (d, moved)

let insert_generic t ~parent ~after kind name value =
  insert_labelled t ~parent ~after kind name value (sibling_label ~parent_d:parent ~after)

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

(* The subtree root takes the gap label after [after]; its attributes
   and children take evenly spread labels under it — the labels
   [Labeler] gives an inserted subtree, so a labelled XDM store and a
   block storage that took the same updates agree on every nid.  The
   children are those [Convert.load_element] makes nodes of. *)
let insert_tree t ~parent ~after (e : Xsm_xml.Tree.element) =
  let rec build ~parent ~after (e : Xsm_xml.Tree.element) nid =
    let d, _ = insert_labelled t ~parent ~after Schema.Element (Some e.name) "" nid in
    let items =
      List.map (fun a -> `Attr a) e.attributes
      @ (Xsm_xdm.Convert.text_runs e.children :> [ `Attr of _ | `Text of _ | `Elem of _ ] list)
    in
    ignore
      (List.fold_left2
         (fun after item nid ->
           Some
             (match item with
             | `Attr (a : Xsm_xml.Tree.attribute) ->
               fst (insert_labelled t ~parent:d ~after Schema.Attribute (Some a.name) a.value nid)
             | `Text s -> fst (insert_labelled t ~parent:d ~after Schema.Text None s nid)
             | `Elem c -> build ~parent:d ~after c nid))
         None items
         (Label.assign_children nid (List.length items)));
    d
  in
  build ~parent ~after e (sibling_label ~parent_d:parent ~after)

let set_content t d v =
  match d.home with
  | None -> d.value <- v
  | Some b ->
    write_block ~pin:true t b;
    d.value <- v;
    unpin_block t b

let vacate t d =
  remove_from_block d;
  t.descriptors <- t.descriptors - 1

(* unlink a descriptor from its parent and siblings and vacate it; its
   own children stay linked below it *)
let detach t d =
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
    (match fc_cell sid p.first_children with
    | Fc c when c.first == d -> (
      (* next same-snode sibling, if any, becomes the first child *)
      let rec next_same = function
        | None -> None
        | Some r -> if Schema.snode_id r.d_snode = sid then Some r else next_same r.right
      in
      match next_same d.right with
      | Some r -> c.first <- r
      | None -> fc_remove p sid)
    | Fc _ | Fc_nil -> ());
    dirty_desc p
  | None -> ());
  vacate t d

let delete t d =
  (match d.first_children with
  | Fc _ -> invalid_arg "Block_storage.delete: not a leaf"
  | Fc_nil -> ());
  detach t d

(* every descendant leaves its block, but keeps its links: the removed
   subtree stays walkable from its root, as a removed XDM subtree
   does, for whoever drops what it derived from it *)
let delete_subtree t d =
  let rec vacate_below d =
    List.iter
      (fun c ->
        vacate_below c;
        vacate t c)
      (attributes t d @ children t d)
  in
  vacate_below d;
  detach t d

(* ------------------------------------------------------------------ *)
(* Block blobs and checkpoint metadata                                 *)

(* blob layout, per descriptor in chain order:
   id ‖ snode id ‖ nid ‖ value ‖ parent+1 ‖ left+1 ‖ right+1
   ‖ #first-children ‖ (snode id ‖ desc id)*
   prefixed by the block's snode id and count.  The full structure is
   written (the reopen path rebuilds skeletons from it) but a live
   fault restores only the values — the skeleton never leaves
   memory. *)
let rec write_fc w = function
  | Fc_nil -> ()
  | Fc c ->
    Codec.W.varint w c.sid;
    Codec.W.varint w c.first.id;
    write_fc w c.rest

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
      Codec.W.varint w (fc_length 0 d.first_children);
      write_fc w d.first_children;
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
  (* the block lists in snode-id order *)
  let lists = ref [] in
  for sid = Array.length t.heads - 1 downto 0 do
    let rec ids b acc = match b with None -> List.rev acc | Some b -> ids b.next_block (b.block_id :: acc) in
    match t.heads.(sid) with
    | None -> ()
    | head -> lists := (sid, ids head []) :: !lists
  done;
  Codec.W.varint w (List.length !lists);
  List.iter
    (fun (sid, ids) ->
      Codec.W.varint w sid;
      Codec.W.varint w (List.length ids);
      List.iter (Codec.W.varint w) ids)
    !lists;
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
        let d = make_desc ~id (Schema.by_id t.dschema dsid) nid evicted_value in
        d.home <- b.b_self;
        d.prev_in_block <- !prev;
        (match !prev with Some pd -> pd.next_in_block <- d.self | None -> b.first <- d.self);
        prev := d.self;
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
        let b = make_block t ~block_id:bid sn in
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
      if p >= 0 then d.parent <- (resolve p).self;
      if l >= 0 then d.left <- (resolve l).self;
      if rt >= 0 then d.right <- (resolve rt).self;
      d.first_children <-
        List.fold_right (fun (sid, cid) rest -> Fc { sid; first = resolve cid; rest }) firsts Fc_nil)
    !links;
  if root_id >= 0 then t.root_desc <- (resolve root_id).self;
  (* the pager seeds cold frames from the checkpoint directory: the
     first touch of any block faults its values back in *)
  t.pager <- Some (Pager.create ~capacity ~handlers:(handlers t) ?wal file);
  t

(* ------------------------------------------------------------------ *)
(* Statistics and integrity                                            *)

let rec list_length n = function None -> n | Some b -> list_length (n + 1) b.next_block

let block_count t = Array.fold_left list_length 0 t.heads

let split_count t = t.splits
let descriptor_count t = t.descriptors

let blocks_of_snode t sn = list_length 0 (list_end t.heads (Schema.snode_id sn))

let descriptors_of_snode t sn =
  let rec sum n = function None -> n | Some b -> sum (n + b.count) b.next_block in
  sum 0 (list_end t.heads (Schema.snode_id sn))

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* a link is the shared box of the node it names, and that box holds
     that node *)
  let own_desc = function None -> true | Some d as box -> box == d.self in
  let own_block = function None -> true | Some b as box -> box == b.b_self in
  (* returns how many descriptors the list holds *)
  let check_block_list sid head =
    (* nids strictly increasing across the whole block list *)
    let rec walk_blocks held prev_nid prev_block = function
      | None ->
        if list_end t.tails sid != prev_block then fail "snode %d: tail block wrong" sid;
        held
      | Some b as box ->
        if not (own_block box) then fail "block %d: link is not its shared box" b.block_id;
        if b.prev_block != prev_block then fail "block back-pointer wrong";
        let rec walk_chain prev_nid prev n = function
          | None ->
            if b.last != prev then fail "block %d: last pointer wrong" b.block_id;
            if n <> b.count then fail "block %d: count %d, chain holds %d" b.block_id b.count n;
            prev_nid
          | Some d as box ->
            if not (own_desc box) then fail "descriptor %d: link is not its shared box" d.id;
            if d.home != b.b_self then fail "descriptor home pointer wrong";
            if d.prev_in_block != prev then fail "in-block back-pointer wrong";
            (match prev_nid with
            | Some p when Label.compare p d.nid >= 0 -> fail "nid order violated"
            | _ -> ());
            walk_chain (Some d.nid) box (n + 1) d.next_in_block
        in
        walk_blocks (held + b.count) (walk_chain prev_nid None 0 b.first) box b.next_block
    in
    walk_blocks 0 None None head
  in
  (* sibling chains and first-child pointers: every child's snode has
     an entry naming its leftmost child of that snode, and nothing
     else has one; returns the size of the subtree *)
  let rec check_desc d =
    let kids = all_children_unordered d in
    let seen =
      List.fold_left
        (fun (seen, prev) c ->
          if c.parent != d.self then fail "child parent pointer wrong";
          if c.left != prev then fail "descriptor %d: left pointer disagrees with right" c.id;
          if not (own_desc c.right) then fail "descriptor %d: right link is not its shared box" c.id;
          (match prev with
          | Some p when Label.compare p.nid c.nid >= 0 -> fail "sibling order violated"
          | _ -> ());
          let sid = Schema.snode_id c.d_snode in
          let seen =
            if List.mem sid seen then seen
            else
              match fc_cell sid d.first_children with
              | Fc_nil -> fail "descriptor %d: child snode %d has no first-child entry" d.id sid
              | Fc e when e.first != c ->
                fail "descriptor %d: first-child entry for snode %d is not the leftmost" d.id sid
              | Fc _ -> sid :: seen
          in
          (seen, c.self))
        ([], None) kids
      |> fst
    in
    if fc_length 0 d.first_children <> List.length seen then
      fail "descriptor %d: first-child entry without a child" d.id;
    List.fold_left (fun n c -> n + check_desc c) 1 kids
  in
  try
    let held = ref 0 in
    Array.iteri
      (fun sid head ->
        match head with Some _ -> held := !held + check_block_list sid head | None -> ())
      t.heads;
    if !held <> t.descriptors then fail "blocks hold %d descriptors, %d counted" !held t.descriptors;
    (match t.root_desc with
    | Some r as box ->
      if not (own_desc box) then fail "root link is not its shared box";
      let reached = check_desc r in
      if reached <> !held then fail "the tree reaches %d descriptors, blocks hold %d" reached !held
    | None -> ());
    Ok ()
  with Failure m -> Error m
