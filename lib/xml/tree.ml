type attribute = { name : Name.t; value : string }

type node =
  | Element of element
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of { target : string; data : string }

and element = {
  name : Name.t;
  attributes : attribute list;
  children : node list;
}

type t = {
  version : string;
  encoding : string option;
  standalone : bool option;
  base_uri : string option;
  root : element;
}

let attr ?prefix name value = { name = Name.make ?prefix name; value }
let elem_n ?(attrs = []) ?(children = []) name = { name; attributes = attrs; children }
let elem ?attrs ?children name = elem_n ?attrs ?children (Name.local name)
let text s = Text s
let element e = Element e

let document ?base_uri root =
  { version = "1.0"; encoding = None; standalone = None; base_uri; root }

let attribute_value e name =
  List.find_map
    (fun (a : attribute) -> if Name.equal a.name name then Some a.value else None)
    e.attributes

let child_elements e =
  List.filter_map (function Element c -> Some c | Text _ | Cdata _ | Comment _ | Pi _ -> None) e.children

let child_elements_named e name =
  List.filter (fun c -> Name.equal c.name name) (child_elements e)

let first_child_named e name =
  List.find_opt (fun c -> Name.equal c.name name) (child_elements e)

let text_content e =
  let buf = Buffer.create 64 in
  let rec go e =
    List.iter
      (function
        | Text s | Cdata s -> Buffer.add_string buf s
        | Element c -> go c
        | Comment _ | Pi _ -> ())
      e.children
  in
  go e;
  Buffer.contents buf

let node_count e =
  let rec go acc e =
    let acc = acc + 1 + List.length e.attributes in
    List.fold_left
      (fun acc -> function
        | Element c -> go acc c
        | Text _ | Cdata _ -> acc + 1
        | Comment _ | Pi _ -> acc)
      acc e.children
  in
  go 0 e

let depth e =
  let rec go e =
    match child_elements e with
    | [] -> 1
    | cs -> 1 + List.fold_left (fun m c -> max m (go c)) 0 cs
  in
  go e

let fold_elements f init e =
  let rec go acc e =
    let acc = f acc e in
    List.fold_left
      (fun acc -> function
        | Element c -> go acc c
        | Text _ | Cdata _ | Comment _ | Pi _ -> acc)
      acc e.children
  in
  go init e

(* ------------------------------------------------------------------ *)
(* Content equality                                                    *)

let is_whitespace s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* Normalized children: drop comments/PIs, merge adjacent text/CDATA,
   optionally drop whitespace-only runs.  The result alternates
   elements and non-empty text. *)
type norm = N_elem of element | N_text of string

let normalize_children ~ignore_whitespace children =
  let flush buf acc =
    if Buffer.length buf = 0 then acc
    else begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if ignore_whitespace && is_whitespace s then acc else N_text s :: acc
    end
  in
  let buf = Buffer.create 16 in
  let acc =
    List.fold_left
      (fun acc n ->
        match n with
        | Text s | Cdata s ->
          Buffer.add_string buf s;
          acc
        | Element e -> N_elem e :: flush buf acc
        | Comment _ | Pi _ -> acc)
      [] children
  in
  List.rev (flush buf acc)

let sort_attributes (attrs : attribute list) =
  List.sort (fun (a : attribute) (b : attribute) -> Name.compare a.name b.name) attrs

let equal_attribute (a : attribute) (b : attribute) =
  Name.equal a.name b.name && String.equal a.value b.value

let rec equal_element_content ?(ignore_whitespace = true) (a : element) (b : element) =
  Name.equal a.name b.name
  && List.equal equal_attribute (sort_attributes a.attributes) (sort_attributes b.attributes)
  && List.equal
       (fun x y ->
         match x, y with
         | N_text s, N_text t -> String.equal s t
         | N_elem e, N_elem f -> equal_element_content ~ignore_whitespace e f
         | N_text _, N_elem _ | N_elem _, N_text _ -> false)
       (normalize_children ~ignore_whitespace a.children)
       (normalize_children ~ignore_whitespace b.children)

let equal_content ?ignore_whitespace a b =
  equal_element_content ?ignore_whitespace a.root b.root

(* ------------------------------------------------------------------ *)
(* Structural equality and printing                                    *)

let rec equal_node a b =
  match a, b with
  | Element x, Element y -> equal_element x y
  | Text x, Text y | Cdata x, Cdata y | Comment x, Comment y -> String.equal x y
  | Pi x, Pi y -> String.equal x.target y.target && String.equal x.data y.data
  | (Element _ | Text _ | Cdata _ | Comment _ | Pi _), _ -> false

and equal_element a b =
  Name.equal a.name b.name
  && List.equal equal_attribute a.attributes b.attributes
  && List.equal equal_node a.children b.children

let pp ppf d = Format.fprintf ppf "<%a/> (%d nodes)" Name.pp d.root.name (node_count d.root)
