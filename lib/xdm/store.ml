module Kind = struct
  type t = Document | Element | Attribute | Text

  let to_string = function
    | Document -> "document"
    | Element -> "element"
    | Attribute -> "attribute"
    | Text -> "text"

  let equal a b = a = b
  let pp ppf k = Format.pp_print_string ppf (to_string k)
end

type node = int

type data = {
  kind : Kind.t;
  mutable name : Xsm_xml.Name.t option;
  mutable parent : node option;
  mutable children : node list;  (* reversed during building? no: kept in order *)
  mutable attributes : node list;
  mutable type_name : Xsm_xml.Name.t option;
  mutable content : string;  (* own string value for text and attribute nodes *)
  mutable typed : Xsm_datatypes.Value.t list option;
  mutable nilled : bool option;
  mutable base_uri : string option;
}

type t = { mutable nodes : data array; mutable size : int }

let create () = { nodes = [||]; size = 0 }

let get store n =
  if n < 0 || n >= store.size then invalid_arg "Store: foreign node identifier";
  store.nodes.(n)

let add store data =
  if store.size = Array.length store.nodes then begin
    let cap = max 16 (store.size * 2) in
    let bigger = Array.make cap data in
    Array.blit store.nodes 0 bigger 0 store.size;
    store.nodes <- bigger
  end;
  store.nodes.(store.size) <- data;
  store.size <- store.size + 1;
  store.size - 1

let node_count store = store.size

let count_kind store k =
  let c = ref 0 in
  for i = 0 to store.size - 1 do
    if Kind.equal store.nodes.(i).kind k then incr c
  done;
  !c

let blank kind =
  {
    kind;
    name = None;
    parent = None;
    children = [];
    attributes = [];
    type_name = None;
    content = "";
    typed = None;
    nilled = None;
    base_uri = None;
  }

let untyped_atomic_name = Xsm_xml.Name.make ~prefix:"xdt" "untypedAtomic"
let any_type_name = Xsm_xml.Name.make ~prefix:"xs" "anyType"

let new_document ?base_uri store =
  let d = blank Kind.Document in
  d.base_uri <- base_uri;
  add store d

let new_element ?base_uri ?type_name store name =
  let d = blank Kind.Element in
  d.name <- Some name;
  d.base_uri <- base_uri;
  d.type_name <- Some (Option.value ~default:any_type_name type_name);
  d.nilled <- Some false;
  add store d

let new_attribute ?type_name ?typed_value store name value =
  let d = blank Kind.Attribute in
  d.name <- Some name;
  d.content <- value;
  d.type_name <- Some (Option.value ~default:untyped_atomic_name type_name);
  d.typed <- typed_value;
  add store d

let new_text store content =
  let d = blank Kind.Text in
  d.content <- content;
  d.type_name <- Some untyped_atomic_name;
  add store d

(* ------------------------------------------------------------------ *)
(* Linking                                                             *)

let check_can_have_children store parent child =
  let pd = get store parent and cd = get store child in
  (match pd.kind with
  | Kind.Document | Kind.Element -> ()
  | Kind.Attribute | Kind.Text ->
    invalid_arg "append_child: attribute and text nodes have no children");
  (match cd.kind with
  | Kind.Element | Kind.Text -> ()
  | Kind.Document -> invalid_arg "append_child: a document node cannot be a child"
  | Kind.Attribute -> invalid_arg "append_child: use attach_attribute for attributes");
  (match pd.kind, cd.kind with
  | Kind.Document, Kind.Text -> invalid_arg "append_child: a document child must be an element"
  | Kind.Document, Kind.Element when pd.children <> [] ->
    invalid_arg "append_child: a document node has exactly one element child"
  | _ -> ());
  if cd.parent <> None then invalid_arg "append_child: node already has a parent";
  (pd, cd)

let append_child store parent child =
  let pd, cd = check_can_have_children store parent child in
  cd.parent <- Some parent;
  if cd.base_uri = None then cd.base_uri <- pd.base_uri;
  pd.children <- pd.children @ [ child ]

let append_children store parent children =
  match children with
  | [] -> ()
  | _ ->
    let pd = get store parent in
    if
      pd.kind = Kind.Document
      && List.length pd.children + List.length children > 1
    then invalid_arg "append_children: a document node has exactly one element child";
    List.iter
      (fun child ->
        let pd, cd = check_can_have_children store parent child in
        ignore pd;
        cd.parent <- Some parent;
        if cd.base_uri = None then cd.base_uri <- (get store parent).base_uri)
      children;
    let pd = get store parent in
    pd.children <- pd.children @ children

let insert_child_before store parent ~before child =
  let pd, cd = check_can_have_children store parent child in
  if not (List.mem before pd.children) then
    invalid_arg "insert_child_before: anchor is not a child of the parent";
  cd.parent <- Some parent;
  if cd.base_uri = None then cd.base_uri <- pd.base_uri;
  pd.children <-
    List.concat_map (fun c -> if c = before then [ child; c ] else [ c ]) pd.children

let remove_child store parent child =
  let pd = get store parent and cd = get store child in
  if cd.parent <> Some parent then invalid_arg "remove_child: not a child of this parent";
  pd.children <- List.filter (fun c -> c <> child) pd.children;
  cd.parent <- None

let attach_attribute store element attribute =
  let ed = get store element and ad = get store attribute in
  if ed.kind <> Kind.Element then invalid_arg "attach_attribute: owner must be an element";
  if ad.kind <> Kind.Attribute then invalid_arg "attach_attribute: node is not an attribute";
  if ad.parent <> None then invalid_arg "attach_attribute: attribute already attached";
  (match ad.name with
  | Some n ->
    let clash =
      List.exists
        (fun a -> match (get store a).name with Some m -> Xsm_xml.Name.equal m n | None -> false)
        ed.attributes
    in
    if clash then invalid_arg "attach_attribute: duplicate attribute name"
  | None -> ());
  ad.parent <- Some element;
  if ad.base_uri = None then ad.base_uri <- ed.base_uri;
  ed.attributes <- ed.attributes @ [ attribute ]

let detach_attribute store element attribute =
  let ed = get store element and ad = get store attribute in
  if ad.parent <> Some element then invalid_arg "detach_attribute: not an attribute of this element";
  ed.attributes <- List.filter (fun a -> a <> attribute) ed.attributes;
  ad.parent <- None

let set_nilled store n b =
  let d = get store n in
  if d.kind <> Kind.Element then invalid_arg "set_nilled: not an element";
  d.nilled <- Some b

let set_content store n content =
  let d = get store n in
  match d.kind with
  | Kind.Text | Kind.Attribute ->
    d.content <- content;
    d.typed <- None
  | Kind.Document | Kind.Element ->
    invalid_arg "set_content: only text and attribute nodes hold content"

let set_typed_value store n vs = (get store n).typed <- Some vs

let set_type_name store n name =
  let d = get store n in
  d.type_name <- name

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let kind store n = (get store n).kind
let node_kind store n = Kind.to_string (kind store n)

let node_name store n =
  let d = get store n in
  match d.kind with Kind.Document | Kind.Text -> None | Kind.Element | Kind.Attribute -> d.name

let parent store n = (get store n).parent

let children store n =
  let d = get store n in
  match d.kind with
  | Kind.Document | Kind.Element -> d.children
  | Kind.Attribute | Kind.Text -> []

let attributes store n =
  let d = get store n in
  match d.kind with
  | Kind.Element -> d.attributes
  | Kind.Document | Kind.Attribute | Kind.Text -> []

let base_uri store n = (get store n).base_uri

let nilled store n =
  let d = get store n in
  match d.kind with
  | Kind.Element -> d.nilled
  | Kind.Document | Kind.Attribute | Kind.Text -> None

let type_name store n =
  let d = get store n in
  match d.kind with Kind.Document -> None | Kind.Element | Kind.Attribute | Kind.Text -> d.type_name

let rec add_string_value store buf n =
  let d = get store n in
  match d.kind with
  | Kind.Text | Kind.Attribute -> Buffer.add_string buf d.content
  | Kind.Document | Kind.Element -> List.iter (add_string_value store buf) d.children

let string_value store n =
  let d = get store n in
  match d.kind with
  | Kind.Text | Kind.Attribute -> d.content
  | Kind.Document | Kind.Element ->
    let buf = Buffer.create 64 in
    add_string_value store buf n;
    Buffer.contents buf

let typed_value store n =
  let d = get store n in
  match d.typed with
  | Some vs -> vs
  | None -> [ Xsm_datatypes.Value.Untyped_atomic (string_value store n) ]

(* ------------------------------------------------------------------ *)
(* Identity and traversal                                              *)

let equal_node (a : node) (b : node) = a = b
let compare_node (a : node) (b : node) = compare a b
let node_id (n : node) = n

let rec root store n =
  match parent store n with None -> n | Some p -> root store p

let descendants_or_self store n =
  let rec go acc n =
    let acc = n :: acc in
    let acc = List.fold_left (fun acc a -> a :: acc) acc (attributes store n) in
    List.fold_left go acc (children store n)
  in
  List.rev (go [] n)

let subtree_size store n = List.length (descendants_or_self store n)

let untyped store n =
  let d = get store n in
  let default_type =
    match d.kind with
    | Kind.Document -> None
    | Kind.Element -> Some any_type_name
    | Kind.Attribute | Kind.Text -> Some untyped_atomic_name
  in
  Option.equal Xsm_xml.Name.equal d.type_name default_type
  && d.typed = None && d.nilled <> Some true && d.base_uri = None

let pp_node store ppf n =
  let d = get store n in
  match d.kind with
  | Kind.Document -> Format.fprintf ppf "document#%d" n
  | Kind.Element ->
    Format.fprintf ppf "element#%d<%a>" n (Format.pp_print_option Xsm_xml.Name.pp) d.name
  | Kind.Attribute ->
    Format.fprintf ppf "attribute#%d{%a=%S}" n
      (Format.pp_print_option Xsm_xml.Name.pp)
      d.name d.content
  | Kind.Text -> Format.fprintf ppf "text#%d%S" n d.content
