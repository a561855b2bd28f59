(** Versioned binary snapshots of a database state.

    A snapshot serializes the tree rooted at a document (or element)
    node of an {!Xsm_xdm.Store.t} — kinds, names, type annotations,
    nil flags, own content, base URIs — together with an optional
    schema reference and the §9.3 numbering labels, and reloads it
    into a fresh store.  The disk round-trip obeys the §8 theorem's
    discipline: [decode (encode X)] is content-equal ([=_c]) to [X],
    which the property-test suite checks over generated corpora.

    Typed values are {e not} persisted: they are re-derivable — the
    XDM fallback wraps the string value as [xdt:untypedAtomic], and a
    caller holding the schema named by [schema_ref] re-validates to
    recover the full annotations (the well-definedness discipline of
    Van den Bussche et al.: the schema, not the wire format, is the
    source of value-level typing).

    Layout: an 8-byte magic ["XSMSNAP\x01"], a body (version, schema
    reference, label flag, then the pre-order node records), and a
    trailing CRC-32 of the body — a torn or bit-rotted snapshot is
    rejected as a whole, never half-loaded. *)

type meta = {
  version : int;
  schema_ref : string option;
      (** an uninterpreted reference — typically the schema file path *)
  node_count : int;
  labelled : bool;  (** numbering labels travel with the tree *)
}

val encode :
  ?schema_ref:string ->
  ?labels:Xsm_numbering.Labeler.t ->
  Xsm_xdm.Store.t ->
  Xsm_xdm.Store.node ->
  (string, string) result
(** Serialize the tree rooted at a document or element node.  With
    [labels], every node of the tree must be labelled. *)

val decode :
  string ->
  (Xsm_xdm.Store.t * Xsm_xdm.Store.node * Xsm_numbering.Labeler.t option * meta, string)
  result
(** Rebuild a fresh store from snapshot bytes, the inverse of
    {!encode} on its output: re-encoding gives the same bytes.
    Rejects bad magic, unknown versions and CRC mismatches; malformed
    content under a valid CRC (a bad QName or label, a node in a
    position its kind cannot take) is an [Error] too, never an
    exception. *)

val save :
  ?schema_ref:string ->
  ?labels:Xsm_numbering.Labeler.t ->
  path:string ->
  Xsm_xdm.Store.t ->
  Xsm_xdm.Store.node ->
  (meta, string) result
(** [encode] to [path] atomically: the bytes are written to a
    temporary sibling, fsynced, then renamed over the target — a crash
    mid-save leaves the previous snapshot intact. *)

val load :
  path:string ->
  (Xsm_xdm.Store.t * Xsm_xdm.Store.node * Xsm_numbering.Labeler.t option * meta, string)
  result
