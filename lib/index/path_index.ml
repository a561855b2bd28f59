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

let fail fmt = Printf.ksprintf (fun s -> raise (Maintenance_error s)) fmt

module Make (N : NAV) = struct
  type pnode = {
    pid : int;
    p_kind : [ `Document | `Element | `Attribute | `Text ];
    p_name : Name.t option;
    mutable child_ids : int list;  (* in first-encounter order *)
    mutable rev_entries : N.node Extent.entry list;  (* reverse doc order *)
    mutable frozen : N.node Extent.t;
  }

  type t = {
    mutable pnodes : pnode array;
    mutable size : int;
    by_id : (int, int * Label.t) Hashtbl.t;  (* instance id -> (pid, label) *)
  }

  let get t i = t.pnodes.(i)

  let add t p_kind p_name =
    let pn =
      { pid = t.size; p_kind; p_name; child_ids = []; rev_entries = []; frozen = Extent.empty }
    in
    if t.size = Array.length t.pnodes then begin
      let bigger = Array.make (max 16 (t.size * 2)) pn in
      Array.blit t.pnodes 0 bigger 0 t.size;
      t.pnodes <- bigger
    end;
    t.pnodes.(t.size) <- pn;
    t.size <- t.size + 1;
    pn

  let find_or_add t parent kind name =
    let matches cid =
      let c = get t cid in
      if c.p_kind = kind && Option.equal Name.equal c.p_name name then Some c else None
    in
    match List.find_map matches parent.child_ids with
    | Some c -> c
    | None ->
      let c = add t kind name in
      parent.child_ids <- parent.child_ids @ [ c.pid ];
      c

  let build backend rootn =
    let t = { pnodes = [||]; size = 0; by_id = Hashtbl.create 1024 } in
    let root_pn = add t (N.kind backend rootn) (N.name backend rootn) in
    let rec go node pn label =
      pn.rev_entries <- { Extent.label; node } :: pn.rev_entries;
      Hashtbl.replace t.by_id (N.id backend node) (pn.pid, label);
      let ordered = N.attributes backend node @ N.children backend node in
      let child_labels = Label.assign_children label (List.length ordered) in
      List.iter2
        (fun c cl ->
          let cpn = find_or_add t pn (N.kind backend c) (N.name backend c) in
          go c cpn cl)
        ordered child_labels
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
  let children t pn = List.map (get t) pn.child_ids
  let pnode t pid = get t pid
  let extent pn = pn.frozen

  let pnode_count t = t.size

  let entry_count t =
    let total = ref 0 in
    for i = 0 to t.size - 1 do
      total := !total + Extent.length (get t i).frozen
    done;
    !total

  (* ---- incremental maintenance ---- *)

  let locate t backend node =
    match Hashtbl.find_opt t.by_id (N.id backend node) with
    | None -> None
    | Some (pid, label) -> Some (get t pid, label)

  let insert_subtree t backend node =
    if Hashtbl.mem t.by_id (N.id backend node) then []  (* replayed entry *)
    else begin
      match N.parent backend node with
      | None -> []  (* detached again before the journal drained *)
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
            Hashtbl.replace t.by_id (N.id backend node) (pn.pid, label);
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
    match Hashtbl.find_opt t.by_id (N.id backend node) with
    | None -> []  (* never indexed, or already removed *)
    | Some (pid, label) ->
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
            Hashtbl.remove t.by_id (N.id backend e.node);
            removed := (pid_, e.label) :: !removed)
          gone;
        List.iter walk pn.child_ids
      in
      walk pid;
      List.rev !removed

  let pp_stats ppf t =
    Format.fprintf ppf "%d paths over %d nodes" (pnode_count t) (entry_count t)
end
