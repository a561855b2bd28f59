module Store = Xsm_xdm.Store
module Labeler = Xsm_numbering.Labeler
module Label = Xsm_numbering.Sedna_label

type meta = {
  version : int;
  schema_ref : string option;
  node_count : int;
  labelled : bool;
}

let format_version = 1
let magic = "XSMSNAP\x01"

let kind_byte = function
  | Store.Kind.Document -> 0
  | Store.Kind.Element -> 1
  | Store.Kind.Attribute -> 2
  | Store.Kind.Text -> 3

exception Encode_error of string

let rec encode_node w store labels node =
  let kind = Store.kind store node in
  Wire.W.byte w (kind_byte kind);
  Wire.W.opt_name w (Store.node_name store node);
  Wire.W.opt_string w (Store.base_uri store node);
  Wire.W.opt_name w (Store.type_name store node);
  Wire.W.byte w
    (match Store.nilled store node with None -> 0 | Some false -> 1 | Some true -> 2);
  Wire.W.string w
    (match kind with
    | Store.Kind.Text | Store.Kind.Attribute -> Store.string_value store node
    | Store.Kind.Document | Store.Kind.Element -> "");
  (match labels with
  | None -> ()
  | Some t -> (
    match Labeler.label_opt t node with
    | Some l -> Wire.W.string w (Label.to_raw l)
    | None ->
      raise
        (Encode_error
           (Format.asprintf "snapshot: unlabelled node %a" (Store.pp_node store) node))));
  let attrs = Store.attributes store node in
  Wire.W.varint w (List.length attrs);
  List.iter (encode_node w store labels) attrs;
  let children = Store.children store node in
  Wire.W.varint w (List.length children);
  List.iter (encode_node w store labels) children

let encode ?schema_ref ?labels store root =
  match Store.kind store root with
  | Store.Kind.Attribute | Store.Kind.Text ->
    Error "snapshot: root must be a document or element node"
  | Store.Kind.Document | Store.Kind.Element -> (
    try
      let body = Wire.W.create ~initial:4096 () in
      Wire.W.varint body format_version;
      Wire.W.opt_string body schema_ref;
      Wire.W.bool body (labels <> None);
      Wire.W.varint body (Store.subtree_size store root);
      encode_node body store labels root;
      let body = Wire.W.contents body in
      let b = Buffer.create (String.length body + 16) in
      Buffer.add_string b magic;
      Buffer.add_string b body;
      let crc = Wire.crc32 body in
      let tail = Wire.W.create () in
      Wire.W.fixed32 tail crc;
      Buffer.add_string b (Wire.W.contents tail);
      Ok (Buffer.contents b)
    with Encode_error e -> Error e)

(* One decode's state: the reader, the store it fills, the QNames met
   so far (each distinct name is validated and boxed once) and, for a
   labelled snapshot, the label table, sized from the header. *)
type decoder = {
  r : Wire.R.t;
  store : Store.t;
  names : Wire.R.names;
  labels : Labeler.t option;
}

let read_label r =
  match Label.of_raw (Wire.R.string r) with
  | Ok l -> l
  | Error e -> raise (Wire.R.Corrupt ("bad numbering label: " ^ e))

(* A node record, then its attributes and children; the node is
   created before them (pre-order identifiers) and linked to them by
   one {!Store.adopt}, whose shape errors are corrupt input here. *)
let rec decode_node d =
  let r = d.r and store = d.store in
  let kind = Wire.R.byte r in
  let name = Wire.R.opt_name d.names r in
  let base_uri = Wire.R.opt_string r in
  let type_name = Wire.R.opt_name d.names r in
  let nilled = Wire.R.byte r in
  let content = Wire.R.string r in
  let label = match d.labels with Some _ -> read_label r | None -> Label.root in
  let node =
    match kind with
    | 0 -> Store.new_document ?base_uri store
    | 1 -> (
      match name with
      | Some n ->
        let node = Store.new_element ?base_uri store n in
        Store.set_type_name store node type_name;
        (match nilled with
        | 0 | 1 -> ()
        | 2 -> Store.set_nilled store node true
        | _ -> raise (Wire.R.Corrupt "bad nilled flag"));
        node
      | None -> raise (Wire.R.Corrupt "element without a name"))
    | 2 -> (
      match name with
      | Some n ->
        let node = Store.new_attribute ?base_uri store n content in
        Store.set_type_name store node type_name;
        node
      | None -> raise (Wire.R.Corrupt "attribute without a name"))
    | 3 ->
      let node = Store.new_text ?base_uri store content in
      Store.set_type_name store node type_name;
      node
    | k -> raise (Wire.R.Corrupt (Printf.sprintf "bad node kind %d" k))
  in
  (match d.labels with Some t -> Labeler.set t node label | None -> ());
  let attributes = decode_nodes d (Wire.R.varint r) in
  let children = decode_nodes d (Wire.R.varint r) in
  (match Store.adopt store node ~attributes ~children with
  | () -> ()
  | exception Invalid_argument e -> raise (Wire.R.Corrupt e));
  node

and[@tail_mod_cons] decode_nodes d k =
  if k <= 0 then []
  else
    let node = decode_node d in
    node :: decode_nodes d (k - 1)

let decode bytes =
  let len = String.length bytes in
  let mlen = String.length magic in
  if len < mlen + 4 then Error "snapshot: truncated"
  else if String.sub bytes 0 mlen <> magic then Error "snapshot: bad magic"
  else begin
    let body_len = len - mlen - 4 in
    let stored_crc = Wire.R.fixed32 (Wire.R.of_string ~pos:(len - 4) bytes) in
    let crc = Wire.crc32 ~pos:mlen ~len:body_len bytes in
    if crc <> stored_crc then
      Error "snapshot: CRC mismatch (torn or corrupted file)"
    else
      try
        let r = Wire.R.of_string ~pos:mlen bytes in
        let version = Wire.R.varint r in
        if version <> format_version then
          Error (Printf.sprintf "snapshot: unsupported version %d" version)
        else begin
          let schema_ref = Wire.R.opt_string r in
          let labelled = Wire.R.bool r in
          let node_count = Wire.R.varint r in
          (* a node record takes at least 8 bytes: the header's count
             is trusted no further than the body can back it *)
          let labels =
            if labelled then Some (Labeler.create (min node_count (body_len / 8))) else None
          in
          let d = { r; store = Store.create (); names = Wire.R.names (); labels } in
          let root = decode_node d in
          if Wire.R.pos r <> len - 4 then Error "snapshot: trailing garbage in body"
          else Ok (d.store, root, labels, { version; schema_ref; node_count; labelled })
        end
      with Wire.R.Corrupt e -> Error ("snapshot: " ^ e)
  end

let save ?schema_ref ?labels ~path store root =
  match encode ?schema_ref ?labels store root with
  | Error _ as e -> e
  | Ok bytes -> (
    let tmp = path ^ ".tmp" in
    try
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc bytes;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp path;
      (* the rename itself is durable only once the directory entry
         is — without this a crash can roll the snapshot back *)
      Fsutil.fsync_parent path;
      Ok
        {
          version = format_version;
          schema_ref;
          node_count = Store.subtree_size store root;
          labelled = labels <> None;
        }
    with Sys_error e | Unix.Unix_error (_, _, e) -> Error ("snapshot: " ^ e))

let load ~path =
  try
    let ic = open_in_bin path in
    let bytes =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    decode bytes
  with Sys_error e -> Error ("snapshot: " ^ e)
