module Tree = Xsm_xml.Tree

(* Merge adjacent text/CDATA children into single non-empty strings,
   dropping comments and PIs — the §8 normalization baked into f. *)
let text_runs children =
  let flush buf acc =
    if Buffer.length buf = 0 then acc
    else begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      `Text s :: acc
    end
  in
  let buf = Buffer.create 16 in
  let acc =
    List.fold_left
      (fun acc child ->
        match child with
        | Tree.Text s | Tree.Cdata s ->
          Buffer.add_string buf s;
          acc
        | Tree.Element e -> `Elem e :: flush buf acc
        | Tree.Comment _ | Tree.Pi _ -> acc)
      [] children
  in
  List.rev (flush buf acc)

(* every node of a loaded document carries the document's base URI *)
let rec load_element_under store ?base_uri (e : Tree.element) =
  let node = Store.new_element ?base_uri store e.name in
  let attributes =
    List.map
      (fun (a : Tree.attribute) -> Store.new_attribute ?base_uri store a.name a.value)
      e.attributes
  in
  let children =
    List.map
      (function
        | `Text s -> Store.new_text ?base_uri store s
        | `Elem child -> load_element_under store ?base_uri child)
      (text_runs e.children)
  in
  Store.adopt store node ~attributes ~children;
  node

let load_element store e = load_element_under store e

let load store (doc : Tree.t) =
  let dnode = Store.new_document ?base_uri:doc.base_uri store in
  let root = load_element_under store ?base_uri:doc.base_uri doc.root in
  Store.append_child store dnode root;
  root |> ignore;
  dnode

let rec to_element store node =
  match Store.kind store node with
  | Store.Kind.Element ->
    let name =
      match Store.node_name store node with
      | Some n -> n
      | None -> invalid_arg "to_element: element without a name"
    in
    let attributes =
      List.map
        (fun a ->
          match Store.node_name store a with
          | Some n -> { Tree.name = n; value = Store.string_value store a }
          | None -> invalid_arg "to_element: attribute without a name")
        (Store.attributes store node)
    in
    let children =
      List.map
        (fun c ->
          match Store.kind store c with
          | Store.Kind.Text -> Tree.Text (Store.string_value store c)
          | Store.Kind.Element -> Tree.Element (to_element store c)
          | Store.Kind.Document | Store.Kind.Attribute ->
            invalid_arg "to_element: impossible child kind")
        (Store.children store node)
    in
    { Tree.name; attributes; children }
  | Store.Kind.Document | Store.Kind.Attribute | Store.Kind.Text ->
    invalid_arg "to_element: not an element node"

let to_document store node =
  match Store.kind store node with
  | Store.Kind.Document -> (
    match Store.children store node with
    | [ root ] ->
      Tree.document ?base_uri:(Store.base_uri store node) (to_element store root)
    | [] -> invalid_arg "to_document: document node has no element child"
    | _ -> invalid_arg "to_document: document node has several children")
  | Store.Kind.Element -> Tree.document ?base_uri:(Store.base_uri store node) (to_element store node)
  | Store.Kind.Attribute | Store.Kind.Text ->
    invalid_arg "to_document: not a document or element node"
