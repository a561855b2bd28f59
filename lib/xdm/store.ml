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

(* The bookkeeping behind O(1) appends, kept by writers only.  While
   appends wait to be folded in, a node's [children] field holds the
   [pending] marker and its children are [settled] followed by
   [appended] reversed; [count], [last] and [before_last] describe
   them either way. *)
type kids = {
  settled : node list;
  appended : node list;  (* newest first *)
  count : int;
  last : node;  (* the last child, or -1 *)
  before_last : node;  (* the child before it, or -1 *)
}

(* not worked out yet: a writer computes it from [children] when it
   first needs it *)
let no_kids = { settled = []; appended = []; count = 0; last = -1; before_last = -1 }

(* a list no caller can build: physically unequal to every other *)
let pending : node list = -1 :: Sys.opaque_identity []

type data = {
  kind : Kind.t;
  mutable name : Xsm_xml.Name.t option;
  mutable parent : node option;
  mutable children : node list;  (* in document order, or [pending] *)
  mutable kids : kids;
  mutable attributes : node list;
  mutable type_name : Xsm_xml.Name.t option;
  mutable content : string;  (* own string value for text and attribute nodes *)
  mutable typed : Xsm_datatypes.Value.t list option;
  mutable nilled : bool option;
  mutable base_uri : string option;
}

(* Slots [0, size) of [nodes] have been handed out; the first [top]
   cells of [free] name the released ones, whose slots hold [dead]
   until [add] reuses them. *)
type t = {
  mutable nodes : data array;
  mutable size : int;
  mutable free : int array;
  mutable top : int;
}

let create () = { nodes = [||]; size = 0; free = [||]; top = 0 }

let blank kind =
  {
    kind;
    name = None;
    parent = None;
    children = [];
    kids = no_kids;
    attributes = [];
    type_name = None;
    content = "";
    typed = None;
    nilled = None;
    base_uri = None;
  }

(* the one record every released slot points at: no accessor returns
   it, so nothing ever writes it *)
let dead = blank Kind.Text

(* [size] never exceeds the array's length: past the range check the
   load needs no bounds check of its own *)
let get store n =
  if n < 0 || n >= store.size then invalid_arg "Store: foreign node identifier";
  let d = Array.unsafe_get store.nodes n in
  if d == dead then invalid_arg "Store: released node identifier";
  d

let add store data =
  if store.top > 0 then begin
    store.top <- store.top - 1;
    let n = store.free.(store.top) in
    store.nodes.(n) <- data;
    n
  end
  else begin
    if store.size = Array.length store.nodes then begin
      let cap = max 16 (store.size * 2) in
      let bigger = Array.make cap data in
      Array.blit store.nodes 0 bigger 0 store.size;
      store.nodes <- bigger
    end;
    store.nodes.(store.size) <- data;
    store.size <- store.size + 1;
    store.size - 1
  end

let node_count store = store.size - store.top
let slots store = store.size

let count_kind store k =
  let c = ref 0 in
  for i = 0 to store.size - 1 do
    let d = store.nodes.(i) in
    if d != dead && Kind.equal d.kind k then incr c
  done;
  !c

(* the defaults travel as shared boxes: a constructor allocates no
   option of its own *)
let untyped_atomic_name = Xsm_xml.Name.make ~prefix:"xdt" "untypedAtomic"
let any_type_name = Xsm_xml.Name.make ~prefix:"xs" "anyType"
let untyped_atomic = Some untyped_atomic_name
let any_type = Some any_type_name

let new_document ?base_uri store =
  let d = blank Kind.Document in
  d.base_uri <- base_uri;
  add store d

let new_element ?base_uri ?type_name store name =
  let d = blank Kind.Element in
  d.name <- Some name;
  d.base_uri <- base_uri;
  d.type_name <- (match type_name with None -> any_type | Some _ -> type_name);
  d.nilled <- Some false;
  add store d

let new_attribute ?base_uri ?type_name ?typed_value store name value =
  let d = blank Kind.Attribute in
  d.name <- Some name;
  d.base_uri <- base_uri;
  d.content <- value;
  d.type_name <- (match type_name with None -> untyped_atomic | Some _ -> type_name);
  d.typed <- typed_value;
  add store d

let new_text ?base_uri store content =
  let d = blank Kind.Text in
  d.content <- content;
  d.base_uri <- base_uri;
  d.type_name <- untyped_atomic;
  add store d

(* ------------------------------------------------------------------ *)
(* Linking                                                             *)

(* The children in document order: one load while no append is
   pending.  Else the reader folds the tail in and publishes the list
   in [children] alone; it writes no bookkeeping, so readers on several
   domains that fold at once write equal lists. *)
let fold_appended d =
  let k = d.kids in
  let children = k.settled @ List.rev k.appended in
  d.children <- children;
  children

let[@inline] listed d =
  let c = d.children in
  if c != pending then c else fold_appended d

(* the bookkeeping of a node's children, worked out on first need *)
let rec kids_of count last before_last = function
  | [] -> { settled = []; appended = []; count; last; before_last }
  | c :: rest -> kids_of (count + 1) c last rest

let kids d =
  if d.kids == no_kids && d.children != [] then d.kids <- kids_of 0 (-1) (-1) d.children;
  d.kids

let set_listed d children =
  d.children <- children;
  d.kids <- no_kids

(* The §6.1 shape rules, stated once for every linking path: the rule
   a link would break, or [None].  [empty] says the parent has no
   child yet.  They are top-level functions of their arguments, so
   checking a link allocates nothing. *)
let child_rule ~parent ~child ~empty =
  match parent, child with
  | (Kind.Attribute | Kind.Text), _ -> Some "attribute and text nodes have no children"
  | _, Kind.Document -> Some "a document node cannot be a child"
  | _, Kind.Attribute -> Some "an attribute node cannot be a child"
  | Kind.Document, Kind.Text -> Some "a document child must be an element"
  | Kind.Document, Kind.Element when not empty -> Some "a document node has exactly one element child"
  | (Kind.Document | Kind.Element), (Kind.Element | Kind.Text) -> None

let attribute_rule ~owner ~attribute =
  match owner, attribute with
  | (Kind.Document | Kind.Attribute | Kind.Text), _ -> Some "owner must be an element"
  | Kind.Element, (Kind.Document | Kind.Element | Kind.Text) -> Some "node is not an attribute"
  | Kind.Element, Kind.Attribute -> None

let same_name a b =
  match a, b with
  | Some m, Some n -> m == n || Xsm_xml.Name.equal m n
  | _ -> false

(* an attribute among [attributes] is named [name] *)
let rec has_named store name = function
  | [] -> false
  | a :: rest -> same_name (get store a).name name || has_named store name rest

let broken what = function None -> () | Some rule -> invalid_arg (what ^ ": " ^ rule)

let check_can_have_children store parent child =
  let pd = get store parent and cd = get store child in
  broken "append_child" (child_rule ~parent:pd.kind ~child:cd.kind ~empty:(pd.children = []));
  if cd.parent <> None then invalid_arg "append_child: node already has a parent";
  (pd, cd)

let append_child store parent child =
  let pd, cd = check_can_have_children store parent child in
  cd.parent <- Some parent;
  if cd.base_uri = None then cd.base_uri <- pd.base_uri;
  let k = kids pd in
  let settled, appended = if pd.children == pending then (k.settled, k.appended) else (pd.children, []) in
  pd.kids <-
    { settled; appended = child :: appended; count = k.count + 1; last = child; before_last = k.last };
  pd.children <- pending

let insert_child_before store parent ~before child =
  let pd, cd = check_can_have_children store parent child in
  let siblings = listed pd in
  if not (List.mem before siblings) then
    invalid_arg "insert_child_before: anchor is not a child of the parent";
  cd.parent <- Some parent;
  if cd.base_uri = None then cd.base_uri <- pd.base_uri;
  set_listed pd (List.concat_map (fun c -> if c = before then [ child; c ] else [ c ]) siblings)

let remove_child store parent child =
  let pd = get store parent and cd = get store child in
  if cd.parent <> Some parent then invalid_arg "remove_child: not a child of this parent";
  set_listed pd (List.filter (fun c -> c <> child) (listed pd));
  cd.parent <- None

let attach_attribute ?before store element attribute =
  let ed = get store element and ad = get store attribute in
  broken "attach_attribute" (attribute_rule ~owner:ed.kind ~attribute:ad.kind);
  if ad.parent <> None then invalid_arg "attach_attribute: attribute already attached";
  if has_named store ad.name ed.attributes then
    invalid_arg "attach_attribute: duplicate attribute name";
  ad.parent <- Some element;
  if ad.base_uri = None then ad.base_uri <- ed.base_uri;
  ed.attributes <-
    (match before with
    | None -> ed.attributes @ [ attribute ]
    | Some anchor ->
      if not (List.mem anchor ed.attributes) then
        invalid_arg "attach_attribute: anchor is not an attribute of the element";
      List.concat_map (fun a -> if a = anchor then [ attribute; a ] else [ a ]) ed.attributes)

let detach_attribute store element attribute =
  let ed = get store element and ad = get store attribute in
  if ad.parent <> Some element then invalid_arg "detach_attribute: not an attribute of this element";
  ed.attributes <- List.filter (fun a -> a <> attribute) ed.attributes;
  ad.parent <- None

(* The bulk builders' one linking step: each node is checked once
   against its new owner by the rules above, and the given lists
   become the owner's own — no per-child copy of the sibling list.
   Base URIs are the builder's: each node was created with its own.
   An attribute's name is checked against those after it, and the
   owner's nodes share one parent box. *)
let take owner what cd =
  if cd.parent <> None then invalid_arg ("adopt: the " ^ what ^ " already has a parent");
  cd.parent <- owner

let rec adopt_attributes store owner od = function
  | [] -> ()
  | a :: rest ->
    let ad = get store a in
    broken "adopt" (attribute_rule ~owner:od.kind ~attribute:ad.kind);
    if has_named store ad.name rest then invalid_arg "adopt: duplicate attribute name";
    take owner "attribute" ad;
    adopt_attributes store owner od rest

let rec adopt_children store owner od empty = function
  | [] -> ()
  | c :: rest ->
    let cd = get store c in
    broken "adopt" (child_rule ~parent:od.kind ~child:cd.kind ~empty);
    take owner "child" cd;
    adopt_children store owner od false rest

let adopt store node ~attributes ~children =
  let d = get store node in
  if d.attributes <> [] || d.children <> [] then invalid_arg "adopt: the node is not fresh";
  let node = Some node in
  (match attributes with
  | [] -> ()
  | _ ->
    adopt_attributes store node d attributes;
    d.attributes <- attributes);
  match children with
  | [] -> ()
  | _ ->
    adopt_children store node d true children;
    d.children <- children

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

(* A detached subtree's slots go back on the free stack, and each
   points at [dead], so its records become garbage.  The stack grows
   by doubling: a release allocates nothing per slot. *)
let push_free store n =
  if store.top = Array.length store.free then begin
    let bigger = Array.make (max 16 (2 * store.top)) 0 in
    Array.blit store.free 0 bigger 0 store.top;
    store.free <- bigger
  end;
  store.free.(store.top) <- n;
  store.top <- store.top + 1

let release store n =
  let d = get store n in
  if d.parent <> None then invalid_arg "release: the node still has a parent";
  let rec go n d =
    List.iter (fun a -> go a (get store a)) d.attributes;
    List.iter (fun c -> go c (get store c)) (listed d);
    store.nodes.(n) <- dead;
    push_free store n
  in
  go n d

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
  | Kind.Document | Kind.Element -> listed d
  | Kind.Attribute | Kind.Text -> []

let child_count store n = (kids (get store n)).count

(* the kids whose last two a child's O(1) cases read: its parent's,
   or none for an attribute or a parentless node *)
let parent_kids store d =
  match d.parent with
  | Some p when d.kind <> Kind.Attribute -> kids (get store p)
  | Some _ | None -> no_kids

(* the list the node sits in: its owner's attributes or children *)
let sibling_list store d =
  match d.parent with
  | None -> []
  | Some p ->
    let pd = get store p in
    if d.kind = Kind.Attribute then pd.attributes else listed pd

let previous_sibling store n =
  let d = get store n in
  let k = parent_kids store d in
  if k.last = n then if k.before_last < 0 then None else Some k.before_last
  else
    let rec find prev = function
      | [] -> None
      | c :: rest -> if c = n then prev else find (Some c) rest
    in
    find None (sibling_list store d)

let next_sibling store n =
  let d = get store n in
  if (parent_kids store d).last = n then None
  else
    let rec find = function
      | a :: (b :: _ as rest) -> if a = n then Some b else find rest
      | [ _ ] | [] -> None
    in
    find (sibling_list store d)

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
  | Kind.Document | Kind.Element -> List.iter (add_string_value store buf) (listed d)

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
    | Kind.Element -> any_type
    | Kind.Attribute | Kind.Text -> untyped_atomic
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
