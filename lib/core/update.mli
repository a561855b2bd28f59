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

(** A structured record of applied state transitions, for consumers
    that maintain derived structures (the index planner) differentially
    instead of rebuilding them.  Entries are appended in application
    order; replaying a drained batch in order against the final store
    state reconstructs exactly what changed — an insertion names the
    subtree root (its content is read from the store at replay time),
    a deletion names the unlinked root, a content change names the
    text or attribute node whose own value was replaced.  Undo records
    its mirror entry, so a validated-and-rolled-back operation leaves
    a journal that still replays to the truth. *)
module Journal : sig
  type entry =
    | Inserted of Xsm_xdm.Store.node  (** a freshly linked subtree root *)
    | Deleted of Xsm_xdm.Store.node  (** a just-unlinked subtree root *)
    | Content of Xsm_xdm.Store.node  (** own content replaced *)

  type t

  type cursor
  (** One consumer's read position.  Several consumers — the index
      planner, the WAL writer, recovery's label maintainer — can
      subscribe to the same journal and each sees every entry, in
      order, at its own pace; nobody steals anybody's entries.
      Entries that every active cursor has passed are compacted
      away. *)

  val create : unit -> t

  val total : t -> int
  (** Entries recorded over the journal's lifetime. *)

  val subscribe : t -> cursor
  (** A new cursor positioned at the oldest retained entry (for a
      fresh journal: the beginning). *)

  val unsubscribe : t -> cursor -> unit
  (** Deactivate a cursor so it no longer pins entries; reading from
      it afterwards yields nothing. *)

  val pending : t -> cursor -> int
  val peek : t -> cursor -> entry list
  (** The entries after the cursor, in application order, without
      advancing it. *)

  val read : t -> cursor -> entry list
  (** Like {!peek}, but advances the cursor past what it returned. *)

  val iter : t -> cursor -> (entry -> unit) -> unit
  (** [read] delivered entry-by-entry. *)

end

type applied
(** Evidence of an applied operation, holding what is needed to undo
    it. *)

val apply :
  ?journal:Journal.t -> Xsm_xdm.Store.t -> Xsm_xdm.Store.node op -> (applied, string) result
(** Apply one operation (no validation).  Structural errors (wrong
    node kinds, foreign anchors) are reported, not raised.  A
    successful application is recorded in the journal when one is
    given. *)

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

val undo : ?journal:Journal.t -> Xsm_xdm.Store.t -> applied -> unit
(** Revert an applied operation.  Must be called on the most recent
    application first (stack discipline). *)

val apply_validated :
  ?journal:Journal.t ->
  Xsm_xdm.Store.t ->
  Xsm_xdm.Store.node ->
  Ast.schema ->
  Xsm_xdm.Store.node op ->
  (unit, string list) result
(** Apply, re-validate the document rooted at the given document node,
    and roll back if the new state is not an S-tree. *)
