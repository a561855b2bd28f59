module Store = Xsm_xdm.Store
module Name = Xsm_xml.Name

type kind = Document | Element | Attribute | Text

let kind_of_store = function
  | Store.Kind.Document -> Document
  | Store.Kind.Element -> Element
  | Store.Kind.Attribute -> Attribute
  | Store.Kind.Text -> Text

let kind_to_string = function
  | Document -> "document"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"

type snode = {
  id : int;
  s_name : Name.t option;
  s_kind : kind;
  parent_id : int;  (* -1 for the root *)
  mutable child_ids : int list;  (* in creation order *)
}

type t = { mutable nodes : snode array; mutable size : int }

let get t i = t.nodes.(i)

let add t node =
  if t.size = Array.length t.nodes then begin
    let bigger = Array.make (max 16 (t.size * 2)) node in
    Array.blit t.nodes 0 bigger 0 t.size;
    t.nodes <- bigger
  end;
  t.nodes.(t.size) <- node;
  t.size <- t.size + 1;
  node

let create () =
  let t = { nodes = [||]; size = 0 } in
  ignore (add t { id = 0; s_name = None; s_kind = Document; parent_id = -1; child_ids = [] });
  t

let root t = get t 0

let matches sn ~name kind =
  sn.s_kind = kind && Option.equal Name.equal sn.s_name name

(* plain recursion over the child ids: no closure on the bulk-load
   path, which resolves one schema node per descriptor *)
let rec find_in t ~name kind = function
  | [] -> None
  | cid :: rest ->
    let c = get t cid in
    if matches c ~name kind then Some c else find_in t ~name kind rest

let find t parent ~name kind = find_in t ~name kind parent.child_ids

let find_or_add t parent ~name kind =
  match find t parent ~name kind with
  | Some c -> c
  | None ->
    let node =
      add t { id = t.size; s_name = name; s_kind = kind; parent_id = parent.id; child_ids = [] }
    in
    parent.child_ids <- parent.child_ids @ [ node.id ];
    node

let of_tree store docnode =
  let t = create () in
  let mapping = Hashtbl.create 256 in
  let rec go node sn =
    Hashtbl.replace mapping (Store.node_id node) sn.id;
    List.iter
      (fun c ->
        let csn =
          find_or_add t sn
            ~name:(Store.node_name store c)
            (kind_of_store (Store.kind store c))
        in
        go c csn)
      (Store.attributes store node @ Store.children store node)
  in
  (match Store.kind store docnode with
  | Store.Kind.Document -> go docnode (root t)
  | Store.Kind.Element ->
    (* allow labelling a bare element tree: hang it under the document
       schema node *)
    let sn =
      find_or_add t (root t) ~name:(Store.node_name store docnode) Element
    in
    go docnode sn
  | Store.Kind.Attribute | Store.Kind.Text ->
    invalid_arg "Descriptive_schema.of_tree: not a tree root");
  (t, fun id -> get t (Hashtbl.find mapping id))

let name sn = sn.s_name
let kind sn = sn.s_kind
let parent t sn = if sn.parent_id < 0 then None else Some (get t sn.parent_id)

let by_id t i =
  if i < 0 || i >= t.size then invalid_arg (Printf.sprintf "Descriptive_schema.by_id: %d" i);
  get t i
let children t sn = List.map (get t) sn.child_ids
let snode_id sn = sn.id
let equal_snode a b = a.id = b.id
let node_count t = t.size

let label sn =
  match sn.s_kind, sn.s_name with
  | Document, _ -> "/"
  | Text, _ -> "#text"
  | Attribute, Some n -> "@" ^ Name.to_string n
  | Element, Some n -> Name.to_string n
  | (Attribute | Element), None -> "?"

let paths t =
  let rec path_of sn =
    match parent t sn with
    | None -> ""
    | Some p -> path_of p ^ "/" ^ label sn
  in
  let rec collect sn acc =
    let acc = if sn.parent_id < 0 then acc else path_of sn :: acc in
    List.fold_left (fun acc c -> collect c acc) acc (children t sn)
  in
  List.rev (collect (root t) [])

let pp ppf t =
  let rec go indent sn =
    Format.fprintf ppf "%s%s@." indent (label sn);
    List.iter (go (indent ^ "  ")) (children t sn)
  in
  go "" (root t)
