module Label = Xsm_numbering.Sedna_label
module Name = Xsm_xml.Name

module type NAV = sig
  type t
  type node

  val kind : t -> node -> [ `Document | `Element | `Attribute | `Text ]
  val name : t -> node -> Xsm_xml.Name.t option
  val parent : t -> node -> node option
  val children : t -> node -> node list
  val attributes : t -> node -> node list
  val string_value : t -> node -> string
  val typed_value : t -> node -> Xsm_datatypes.Value.t list
  val id : t -> node -> int
end

exception Maintenance_error of string

module type S = sig
  type backend
  type node
  type t
  type pnode

  val build : backend -> node -> t
  val root : t -> pnode
  val kind : pnode -> [ `Document | `Element | `Attribute | `Text ]
  val name : pnode -> Xsm_xml.Name.t option
  val id : pnode -> int
  val children : t -> pnode -> pnode list
  val pnode : t -> int -> pnode
  val extent : t -> pnode -> node Extent.t
  val extent_size : t -> pnode -> int
  val pnode_count : t -> int
  val entry_count : t -> int
  val locate : t -> backend -> node -> (pnode * Label.t) option
  val insert_subtree : t -> backend -> node -> (int * Label.t * node) list
  val remove_subtree : t -> backend -> node -> node option * (int * Label.t) list
  val pp_stats : Format.formatter -> t -> unit
end

let fail fmt = Printf.ksprintf (fun s -> raise (Maintenance_error s)) fmt

module Make (N : NAV) = struct
  type backend = N.t
  type node = N.node

  type pnode = {
    pid : int;
    p_parent : int;  (* -1 at the root *)
    p_kind : [ `Document | `Element | `Attribute | `Text ];
    p_name : Name.t option;
    mutable rev_child_ids : int list;  (* newest path first *)
    mutable rev_entries : N.node Extent.entry list;  (* reverse doc order *)
    mutable frozen : N.node Extent.t;
  }

  type t = {
    mutable pnodes : pnode array;
    mutable size : int;
    (* instance id -> pnode id (-1: not indexed) and label.  The ids
       of the built tree are dense ({!N.id}), so two arrays, doubled
       as the build meets larger ids, hold them without boxing a pair
       per node; ids past them, met after the build, whose number
       stays small while their values keep growing, go to [later]. *)
    mutable pid_of : int array;
    mutable label_of : Label.t array;
    later : (int, int * Label.t) Hashtbl.t;
  }

  let get t i = t.pnodes.(i)
  let built t id = id < Array.length t.pid_of

  (* the build's bind: the arrays grow to take every id *)
  let bind_built t id pid label =
    let n = Array.length t.pid_of in
    if id >= n then begin
      let cap = max (2 * n) (id + 1) in
      let pid_of = Array.make cap (-1) and label_of = Array.make cap Label.root in
      Array.blit t.pid_of 0 pid_of 0 n;
      Array.blit t.label_of 0 label_of 0 n;
      t.pid_of <- pid_of;
      t.label_of <- label_of
    end;
    t.pid_of.(id) <- pid;
    t.label_of.(id) <- label

  let indexed t id = if built t id then t.pid_of.(id) >= 0 else Hashtbl.mem t.later id

  let bind t id pid label =
    if built t id then begin
      t.pid_of.(id) <- pid;
      t.label_of.(id) <- label
    end
    else Hashtbl.replace t.later id (pid, label)

  let unbind t id =
    if built t id then begin
      t.pid_of.(id) <- -1;
      t.label_of.(id) <- Label.root
    end
    else Hashtbl.remove t.later id

  let add t p_parent p_kind p_name =
    let pn =
      { pid = t.size; p_parent; p_kind; p_name; rev_child_ids = []; rev_entries = [];
        frozen = Extent.empty }
    in
    if t.size = Array.length t.pnodes then begin
      let bigger = Array.make (max 16 (t.size * 2)) pn in
      Array.blit t.pnodes 0 bigger 0 t.size;
      t.pnodes <- bigger
    end;
    t.pnodes.(t.size) <- pn;
    t.size <- t.size + 1;
    pn

  let same_name a b =
    match a, b with
    | None, None -> true
    | Some m, Some n -> m == n || Name.equal m n
    | _ -> false

  let rec find_or_add_in t parent kind name = function
    | [] ->
      let c = add t parent.pid kind name in
      parent.rev_child_ids <- c.pid :: parent.rev_child_ids;
      c
    | cid :: rest ->
      let c = get t cid in
      if c.p_kind = kind && same_name c.p_name name then c
      else find_or_add_in t parent kind name rest

  let find_or_add t parent kind name = find_or_add_in t parent kind name parent.rev_child_ids

  let build backend rootn =
    let t =
      {
        pnodes = [||];
        size = 0;
        pid_of = Array.make 256 (-1);
        label_of = Array.make 256 Label.root;
        later = Hashtbl.create 16;
      }
    in
    let root_pn = add t (-1) (N.kind backend rootn) (N.name backend rootn) in
    (* attributes, then children, take the node's child labels in
       that order; what [visit] leaves of [labels] is for the next
       list *)
    let rec go node pn label =
      pn.rev_entries <- { Extent.label; node } :: pn.rev_entries;
      bind_built t (N.id backend node) pn.pid label;
      let attributes = N.attributes backend node and children = N.children backend node in
      match attributes, children with
      | [], [] -> ()
      | _ ->
        let labels =
          Label.assign_children label (List.length attributes + List.length children)
        in
        ignore (visit pn (visit pn labels attributes) children)
    and visit pn labels nodes =
      match nodes, labels with
      | c :: cs, l :: ls ->
        go c (find_or_add t pn (N.kind backend c) (N.name backend c)) l;
        visit pn ls cs
      | _ -> labels
    in
    go rootn root_pn Label.root;
    for i = 0 to t.size - 1 do
      let pn = get t i in
      pn.frozen <- Extent.of_rev_list pn.rev_entries;
      pn.rev_entries <- []
    done;
    t

  let root t = get t 0
  let kind pn = pn.p_kind
  let name pn = pn.p_name
  let id pn = pn.pid
  let children t pn = List.rev_map (get t) pn.rev_child_ids
  let pnode t pid = get t pid
  let extent _ pn = pn.frozen
  let extent_size _ pn = Extent.length pn.frozen

  let pnode_count t = t.size

  let entry_count t =
    let total = ref 0 in
    for i = 0 to t.size - 1 do
      total := !total + Extent.length (get t i).frozen
    done;
    !total

  (* ---- incremental maintenance ---- *)

  let locate t backend node =
    let id = N.id backend node in
    if built t id then
      if t.pid_of.(id) >= 0 then Some (get t t.pid_of.(id), t.label_of.(id)) else None
    else
      match Hashtbl.find_opt t.later id with
      | Some (pid, label) -> Some (get t pid, label)
      | None -> None

  let insert_subtree t backend node =
    if indexed t (N.id backend node) then []  (* replayed entry *)
    else begin
      match N.parent backend node with
      | None -> []  (* detached again later in the same batch *)
      | Some parent ->
        let ppn, plabel =
          match locate t backend parent with
          | Some loc -> loc
          | None -> fail "insert: parent is not indexed"
        in
        let siblings = N.attributes backend parent @ N.children backend parent in
        let nid = N.id backend node in
        (* nearest siblings that already carry a label; anything
           between them is as yet unindexed, hence unconstrained *)
        (match
           Label.neighbours
             ~label_of:(fun s -> Option.map snd (locate t backend s))
             ~is_self:(fun s -> N.id backend s = nid)
             siblings
         with
        | None -> []  (* no longer under its parent: superseded by later entries *)
        | Some (prev, next) ->
          let label =
            try Label.gap ~parent:plabel prev next
            with Invalid_argument m -> fail "insert: %s" m
          in
          let added = ref [] in
          let rec go node pn label =
            pn.frozen <- Extent.insert pn.frozen { Extent.label; node };
            bind t (N.id backend node) pn.pid label;
            added := (pn.pid, label, node) :: !added;
            let ordered = N.attributes backend node @ N.children backend node in
            let child_labels = Label.assign_children label (List.length ordered) in
            List.iter2
              (fun c cl ->
                let cpn = find_or_add t pn (N.kind backend c) (N.name backend c) in
                go c cpn cl)
              ordered child_labels
          in
          go node (find_or_add t ppn (N.kind backend node) (N.name backend node)) label;
          List.rev !added)
    end

  let remove_subtree t backend node =
    match locate t backend node with
    | None -> (None, [])  (* never indexed, or already removed *)
    | Some (pn, label) ->
      (* the parent it was removed from: the entry above [label] in
         the parent path's extent *)
      let parent =
        if pn.p_parent < 0 then None
        else
          let among = (get t pn.p_parent).frozen in
          Option.map (fun i -> (Extent.get among i).node) (Extent.find_ancestor_pos ~among label)
      in
      (* sweep the pnode subtree: every indexed node of the deleted
         instance subtree lies in the extent of a pnode reachable from
         the deleted node's pnode, at a label descending from (or
         equal to) the deleted label.  One label-range split per
         extent — the detached instance subtree is never walked, so
         later mutations of it cannot confuse the sweep. *)
      let removed = ref [] in
      let rec walk pid_ =
        let pn = get t pid_ in
        let kept, gone = Extent.split_off_descendants ~or_self:true pn.frozen label in
        pn.frozen <- kept;
        List.iter
          (fun (e : N.node Extent.entry) ->
            unbind t (N.id backend e.node);
            removed := (pid_, e.label) :: !removed)
          gone;
        List.iter walk (List.rev pn.rev_child_ids)
      in
      walk pn.pid;
      (parent, List.rev !removed)

  let pp_stats ppf t =
    Format.fprintf ppf "%d paths over %d nodes" (pnode_count t) (entry_count t)
end
