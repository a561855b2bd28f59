module Store = Xsm_xdm.Store
module Name = Xsm_xml.Name

type 'n op =
  | Insert_element of { parent : 'n; before : 'n option; tree : Xsm_xml.Tree.element }
  | Insert_text of { parent : 'n; before : 'n option; text : string }
  | Delete of 'n
  | Replace_content of { node : 'n; value : string }
  | Set_attribute of { element : 'n; name : Name.t; value : string }

type 'n change = Added of 'n | Removed of 'n | Content of 'n

type applied =
  | Inserted of { parent : Store.node; node : Store.node }
  | Deleted of {
      parent : Store.node;
      node : Store.node;
      next_sibling : Store.node option;
          (* where to re-insert: the next child, or for an attribute
             the next attribute *)
    }
  | Content_replaced of { node : Store.node; old_value : string }
  | Attribute_set of {
      element : Store.node;
      attribute : Store.node;
      old_value : string option;  (* None = attribute was created *)
    }

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let guarded f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let insert_node store ~parent ~before node =
  match before with
  | None -> Store.append_child store parent node
  | Some anchor -> Store.insert_child_before store parent ~before:anchor node

(* a node created for an insert whose link was refused: no one has
   seen it, so its slots go back at once *)
let linked store node link =
  match link () with
  | () -> node
  | exception (Invalid_argument _ as e) ->
    Store.release store node;
    raise e

let change = function
  | Inserted { node; _ } -> Added node
  | Deleted { node; _ } -> Removed node
  | Content_replaced { node; _ } -> Content node
  | Attribute_set { attribute; old_value = None; _ } -> Added attribute
  | Attribute_set { attribute; old_value = Some _; _ } -> Content attribute

let apply store = function
  | Insert_element { parent; before; tree } ->
    guarded (fun () ->
        let node = Xsm_xdm.Convert.load_element store tree in
        let node = linked store node (fun () -> insert_node store ~parent ~before node) in
        Inserted { parent; node })
  | Insert_text { parent; before; text } ->
    guarded (fun () ->
        let node = Store.new_text store text in
        let node = linked store node (fun () -> insert_node store ~parent ~before node) in
        Inserted { parent; node })
  | Delete node -> (
    match Store.parent store node with
    | None -> err "delete: node has no parent"
    | Some parent when Store.kind store node = Store.Kind.Attribute ->
      guarded (fun () ->
          let next_sibling = Store.next_sibling store node in
          Store.detach_attribute store parent node;
          Deleted { parent; node; next_sibling })
    | Some parent
      when Store.kind store parent = Store.Kind.Document
           && Store.kind store node = Store.Kind.Element ->
      (* the mirror of [append_child]'s rule: a document node has
         exactly one element child, so it cannot be removed *)
      err "delete: cannot remove the document element"
    | Some parent ->
      guarded (fun () ->
          let next_sibling = Store.next_sibling store node in
          Store.remove_child store parent node;
          Deleted { parent; node; next_sibling }))
  | Replace_content { node; value } ->
    guarded (fun () ->
        let old_value = Store.string_value store node in
        Store.set_content store node value;
        Content_replaced { node; old_value })
  | Set_attribute { element; name; value } -> (
    match Store.kind store element with
    | Store.Kind.Element -> (
      let existing =
        List.find_opt
          (fun a ->
            match Store.node_name store a with
            | Some n -> Name.equal n name
            | None -> false)
          (Store.attributes store element)
      in
      match existing with
      | Some attribute ->
        guarded (fun () ->
            let old_value = Some (Store.string_value store attribute) in
            Store.set_content store attribute value;
            Attribute_set { element; attribute; old_value })
      | None ->
        guarded (fun () ->
            let attribute = Store.new_attribute store name value in
            Store.attach_attribute store element attribute;
            Attribute_set { element; attribute; old_value = None }))
    | Store.Kind.Document | Store.Kind.Attribute | Store.Kind.Text ->
      err "set_attribute: target is not an element")

let undo store applied =
  match applied with
  | Inserted { parent; node } ->
    Store.remove_child store parent node;
    Removed node
  | Deleted { parent; node; next_sibling } ->
    (match Store.kind store node, next_sibling with
    | Store.Kind.Attribute, before -> Store.attach_attribute ?before store parent node
    | _, Some anchor -> Store.insert_child_before store parent ~before:anchor node
    | _, None -> Store.append_child store parent node);
    Added node
  | Content_replaced { node; old_value } ->
    Store.set_content store node old_value;
    Content node
  | Attribute_set { attribute; old_value = Some v; _ } ->
    Store.set_content store attribute v;
    Content attribute
  | Attribute_set { element; attribute; old_value = None } ->
    Store.detach_attribute store element attribute;
    Removed attribute

let release store = function
  | Removed n -> Store.release store n
  | Added _ | Content _ -> ()

let apply_validated store dnode schema op =
  match apply store op with
  | Error e -> Error [ e ]
  | Ok evidence -> (
    match Validator.validate store dnode schema with
    | Ok () -> Ok ()
    | Error es ->
      (* the rejected state had no consumer: an undone insert goes
         straight back *)
      release store (undo store evidence);
      Error (List.map Validator.error_to_string es))

(* ------------------------------------------------------------------ *)
(* The update-script grammar: one command per line, shared by
   `xsm update` scripts and the daemon's update requests. *)

let split1 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let parse_command ~resolve line =
  let ( let* ) = Result.bind in
  let require what s = if s = "" then err "missing %s" what else Ok s in
  let target path =
    let* path = require "target path" path in
    match resolve path with
    | Ok (n :: _) -> Ok n
    | Ok [] -> err "%s: no matching node" path
    | Error e -> err "%s: %s" path e
  in
  let cmd, rest = split1 (String.trim line) in
  match cmd with
  | "insert" ->
    let path, xml = split1 rest in
    let* _ = require "target path" path in
    let* xml = require "XML fragment" xml in
    let* parent = target path in
    let* tree =
      Result.map_error
        (fun e -> "fragment: " ^ Xsm_xml.Parser.error_to_string e)
        (Xsm_xml.Parser.parse_element xml)
    in
    Ok (Insert_element { parent; before = None; tree })
  | "insert-text" ->
    let path, text = split1 rest in
    let* parent = target path in
    Ok (Insert_text { parent; before = None; text })
  | "delete" ->
    let* node = target rest in
    Ok (Delete node)
  | "content" ->
    let path, value = split1 rest in
    let* node = target path in
    Ok (Replace_content { node; value })
  | "attr" ->
    let path, rest = split1 rest in
    let name, value = split1 rest in
    let* _ = require "target path" path in
    let* name = require "attribute name" name in
    let* element = target path in
    let* name =
      Result.map_error (Printf.sprintf "attribute name %S: %s" name) (Name.of_string name)
    in
    Ok (Set_attribute { element; name; value })
  | other -> err "unknown command %S" other
