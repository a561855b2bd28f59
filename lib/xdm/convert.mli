(** Loading syntactic XML into the data model and serializing back.

    [load] produces an untyped tree: every element is annotated
    [xs:anyType], every attribute and text node [xdt:untypedAtomic].
    Typed loading — the function [f] of the §8 theorem — is performed
    by the validator in [Xsm_schema], which re-annotates the nodes it
    checks.

    Comments and processing instructions are dropped: the paper's
    model covers only the document, element, attribute and text
    information items (§1: "we consider only the most important
    document components"). *)

val load : Store.t -> Xsm_xml.Tree.t -> Store.node
(** Build the node tree for a document; returns the document node.
    Adjacent text/CDATA runs become a single text node; empty text
    runs produce no node. *)

val load_element : Store.t -> Xsm_xml.Tree.element -> Store.node
(** Load a bare element (no document node on top). *)

val text_runs :
  Xsm_xml.Tree.node list -> [ `Text of string | `Elem of Xsm_xml.Tree.element ] list
(** The children [load] makes nodes of, in order: adjacent text/CDATA
    runs merged into one non-empty string, comments and PIs
    dropped. *)

val to_document : Store.t -> Store.node -> Xsm_xml.Tree.t
(** Serialize the tree rooted at a document or element node back to a
    syntactic document — the function [g] of the theorem. *)

val to_element : Store.t -> Store.node -> Xsm_xml.Tree.element
(** Serialize an element node. [Invalid_argument] on other kinds. *)
