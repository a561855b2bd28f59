module Ast = Xsm_schema.Ast
module C = Xsm_schema.Compiled
module Name = Xsm_xml.Name
module Simple_type = Xsm_datatypes.Simple_type

type kind =
  | Doc
  | Elem of Name.t
  | Attr of Name.t
  | Text

type node = {
  id : int;
  kind : kind;
  mutable simple : Simple_type.t option;
  mutable synthetic : bool;
  mutable elem_children : (int * Cardinality.interval) list;
  mutable attr_children : int list;
  mutable text_child : int option;
  mutable parents : int list;
}

type t = { nodes : node array }

let root _ = 0
let node t id = t.nodes.(id)

let xsi_nil = Xsm_schema.Validator.xsi_nil

type builder = { mutable acc : node list; mutable count : int }

let fresh b kind =
  let n =
    {
      id = b.count;
      kind;
      simple = None;
      synthetic = false;
      elem_children = [];
      attr_children = [];
      text_child = None;
      parents = [];
    }
  in
  b.count <- b.count + 1;
  b.acc <- n :: b.acc;
  n

let link_parent child parent =
  if not (List.mem parent.id child.parents) then
    child.parents <- parent.id :: child.parents

let build (c : C.t) =
  let b = { acc = []; count = 0 } in
  (* one graph node per element-name × named-type pair keeps recursive
     types finite; anonymous types cannot recurse, so they get a fresh
     node per occurrence *)
  let memo : (string * string, node) Hashtbl.t = Hashtbl.create 16 in
  let add_attr parent ({ attr = d; attr_simple } : C.attribute) =
    if d.attr_use <> Ast.Prohibited then begin
      let a = fresh b (Attr d.attr_name) in
      a.simple <- Result.to_option attr_simple;
      link_parent a parent;
      parent.attr_children <- parent.attr_children @ [ a.id ]
    end
  in
  let add_nil_attr parent =
    (* no [simple]: the validator ignores (rather than validates) the
       value of xsi:nil when it is not "true"/"1", so any string can
       appear there on a valid document *)
    let a = fresh b (Attr xsi_nil) in
    a.synthetic <- true;
    link_parent a parent;
    parent.attr_children <- parent.attr_children @ [ a.id ]
  in
  let add_text parent ?simple ~synthetic () =
    let tx = fresh b Text in
    tx.simple <- simple;
    tx.synthetic <- synthetic;
    link_parent tx parent;
    parent.text_child <- Some tx.id
  in
  let rec elem_node (e : C.element) =
    let d = e.decl in
    match d.elem_type with
    | Ast.Type_name tn -> (
      let key = (Name.to_string d.elem_name, Name.to_string tn) in
      match Hashtbl.find_opt memo key with
      | Some n -> n
      | None ->
        let n = fresh b (Elem d.elem_name) in
        Hashtbl.add memo key n;
        fill n e.ty;
        n)
    | Ast.Anonymous _ | Ast.Anonymous_simple _ ->
      let n = fresh b (Elem d.elem_name) in
      fill n e.ty;
      n
  and fill n (ty : C.ty) =
    add_nil_attr n;
    List.iter (add_attr n) ty.attributes;
    match ty.content with
    | C.Unresolved _ -> () (* Schema_check reports it; leave the node childless *)
    | C.Simple st ->
      n.simple <- Some st;
      add_text n ~simple:st ~synthetic:false ()
    | C.Bad_base _ -> add_text n ~synthetic:false ()
    (* mixed content has real text; element-only content still
       tolerates (and stores) whitespace-only text nodes *)
    | C.Empty _ -> add_text n ~synthetic:(not ty.mixed) ()
    | C.Model { group; _ } ->
      add_text n ~synthetic:(not ty.mixed) ();
      let intervals = Cardinality.of_group group.def in
      List.iter
        (fun (child : C.element) ->
          let iv =
            match
              List.find_opt (fun (nm, _) -> Name.equal nm child.decl.elem_name) intervals
            with
            | Some (_, iv) -> iv
            | None -> Cardinality.zero
          in
          let cn = elem_node child in
          link_parent cn n;
          n.elem_children <- n.elem_children @ [ (cn.id, iv) ])
        (C.elements group)
  in
  let doc = fresh b Doc in
  let rootn = elem_node (C.root c) in
  link_parent rootn doc;
  doc.elem_children <- [ (rootn.id, Cardinality.exactly 1) ];
  let nodes = Array.make b.count doc in
  List.iter (fun n -> nodes.(n.id) <- n) b.acc;
  { nodes }

let element_paths t =
  let out = ref [] in
  let rec walk on_path path id iv =
    let n = node t id in
    match n.kind with
    | Elem nm ->
      let path = path ^ "/" ^ Name.to_string nm in
      let recursive = List.mem id on_path in
      out := (path, iv, recursive) :: !out;
      if not recursive then
        List.iter (fun (c, civ) -> walk (id :: on_path) path c civ) n.elem_children
    | Doc | Attr _ | Text -> ()
  in
  List.iter
    (fun (c, civ) -> walk [] "" c civ)
    (node t (root t)).elem_children;
  List.rev !out
