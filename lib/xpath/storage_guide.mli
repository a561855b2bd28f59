(** The planner's path index over block storage, read off §9's own
    structures: an index node is a descriptive-schema node, its extent
    is the snode's block list in document order
    ({!Xsm_storage.Block_storage.descendants_by_snode}, scan-hinted
    through the pool), and an entry's label is the descriptor's nid.
    An extent's size is the sum of its blocks' resident counts, so
    sizing one walks no descriptor and touches no page.  The storage
    keeps all three current on every update, so this index keeps
    nothing of its own: {!insert_subtree} and {!remove_subtree} only
    list a change's entries for the planner's value indexes.  The root
    given to {!build} must be the storage's root. *)

include
  Xsm_index.Path_index.S
    with type backend = Xsm_storage.Block_storage.t
     and type node = Xsm_storage.Block_storage.desc
     and type pnode = Xsm_storage.Descriptive_schema.snode
