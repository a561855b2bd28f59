module B = Xsm_storage.Block_storage
module Schema = Xsm_storage.Descriptive_schema
module Extent = Xsm_index.Extent

type backend = B.t
type node = B.desc
type pnode = Schema.snode
type t = { bs : B.t; top : Schema.snode }

let build bs root = { bs; top = B.snode root }
let root t = t.top

let kind sn =
  match Schema.kind sn with
  | Schema.Document -> `Document
  | Schema.Element -> `Element
  | Schema.Attribute -> `Attribute
  | Schema.Text -> `Text

let name = Schema.name
let id = Schema.snode_id
let children t sn = Schema.children (B.schema t.bs) sn
let pnode t i = Schema.by_id (B.schema t.bs) i
let extent t sn = Extent.of_nodes B.nid (B.descendants_by_snode t.bs sn)
let extent_size t sn = B.descriptors_of_snode t.bs sn
let pnode_count t = Schema.node_count (B.schema t.bs)
let entry_count t = B.descriptor_count t.bs

(* a descriptor is indexed exactly while it sits in a block *)
let locate _ _ d = if Option.is_some (B.home_block_id d) then Some (B.snode d, B.nid d) else None

(* the subtree's entries, root first, in document order *)
let entries bs d =
  let rec go acc d =
    List.fold_left go ((Schema.snode_id (B.snode d), B.nid d, d) :: acc)
      (B.attributes bs d @ B.children bs d)
  in
  List.rev (go [] d)

let insert_subtree t _ d = if Option.is_some (locate t t.bs d) then entries t.bs d else []

let remove_subtree t _ d =
  (B.parent d, List.map (fun (pid, label, _) -> (pid, label)) (entries t.bs d))

let pp_stats ppf t = Format.fprintf ppf "%d paths over %d nodes" (pnode_count t) (entry_count t)
