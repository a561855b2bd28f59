(** A small data-manipulation layer — the direction §11 announces
    ("the presented semantics may help in defining a simple semantics
    of a data manipulation language").

    Operations address nodes directly (obtain them with the query
    engine or the accessors) and mutate the state algebra — each
    successful application is a database state transition in the §6.1
    sense.  [apply_validated] makes the transition schema-safe: the
    operation is applied, the document is re-validated against the
    schema, and on failure the inverse operation restores the previous
    state, so an invalid transition is never observable. *)

type 'n op =
  | Insert_element of {
      parent : 'n;
      before : 'n option;  (** [None] = append last *)
      tree : Xsm_xml.Tree.element;  (** the subtree to insert *)
    }
  | Insert_text of { parent : 'n; before : 'n option; text : string }
  | Delete of 'n
      (** an element or text child, or an attribute (detached from its
          owner); never the document element, which a document node
          must keep *)
  | Replace_content of { node : 'n; value : string }
      (** new content for a text or attribute node *)
  | Set_attribute of {
      element : 'n;
      name : Xsm_xml.Name.t;
      value : string;  (** replaces, or attaches when absent *)
    }
(** One state transition, over any node type: {!parse_command} builds
    it for whichever store resolves its paths, {!apply} runs it on the
    XDM store. *)

type 'n change =
  | Added of 'n  (** a freshly linked subtree root *)
  | Removed of 'n  (** a just-unlinked subtree root *)
  | Content of 'n  (** a text or attribute node whose own value was replaced *)
(** What one transition did, for whoever keeps a structure derived from
    the store (the index planner, the §9.3 labels) current
    differentially instead of rebuilding it.  The caller hands it on
    right after the op applies; read against the state at that moment,
    an addition names a subtree whose content is in the store, a
    removal the root just unlinked.  Labels never move (Proposition 1),
    so a consumer splices the change in and leaves the rest alone. *)

type applied
(** Evidence of an applied operation, holding what is needed to undo
    it. *)

val apply : Xsm_xdm.Store.t -> Xsm_xdm.Store.node op -> (applied, string) result
(** Apply one operation (no validation).  Structural errors (wrong
    node kinds, foreign anchors) are reported, not raised. *)

val change : applied -> Xsm_xdm.Store.node change
(** The change an applied operation made. *)

val parse_command :
  resolve:(string -> ('n list, string) result) -> string -> ('n op, string) result
(** The update-script grammar, one command per line:
    [insert PATH XML] appends a parsed fragment under the first node
    [PATH] selects; [insert-text PATH TEXT] appends a text node;
    [delete PATH] unlinks the first match; [content PATH VALUE]
    replaces a text or attribute value; [attr PATH NAME VALUE] sets an
    attribute.  [resolve] evaluates a path against the current state
    (the query engine lives above this library).  A malformed line,
    an unknown command or a path that selects nothing is an [Error]
    naming the problem; callers add their own script-only commands in
    front of this grammar. *)

val undo : Xsm_xdm.Store.t -> applied -> Xsm_xdm.Store.node change
(** Revert an applied operation and return the change the revert made:
    the mirror of {!change}, so a consumer fed both ends where it
    began.  Must be called on the most recent application first (stack
    discipline).  Undoing a deletion whose change was {!release}d is
    invalid: the removed subtree is gone. *)

val release : Xsm_xdm.Store.t -> Xsm_xdm.Store.node change -> unit
(** [release store change] gives a [Removed] subtree's slots back to
    the store ({!Xsm_xdm.Store.release}); [Added] and [Content] do
    nothing.  The release rule: a writer calls it only after every
    consumer has had the change — labels ([Recovery.maintain_labels]),
    then the planner ([apply_changes]) — because they walk the detached
    subtree to drop what they keep of it.  A check that rejects an
    applied op sits between the apply and that hand-off: the op is
    undone, and an undone insert released, before any consumer sees
    either change. *)

val apply_validated :
  Xsm_xdm.Store.t ->
  Xsm_xdm.Store.node ->
  Ast.schema ->
  Xsm_xdm.Store.node op ->
  (unit, string list) result
(** Apply, re-validate the document rooted at the given document node,
    and roll back if the new state is not an S-tree; a rolled-back
    insert is {!release}d.  No change is handed on either way, so a
    caller keeping labels or a planner uses {!apply} instead. *)
