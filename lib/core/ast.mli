(** Abstract syntax of element declarations, type definitions and
    document schemas — §2 and §3 of the paper, with the same
    constructors the paper's grammar uses.

    The paper's [Seq], [FM], [Union], [Pair] and [Tuple] syntactic
    type constructors map to OCaml lists, association lists, variants
    and records. *)

module Name = Xsm_xml.Name

(** [RepetitionFactor = Pair(Minimum, Maximum)]; [Maximum =
    Union(NatNumber, {"unbounded"})]. *)
type repetition = {
  min_occurs : int;
  max_occurs : int option;  (** [None] is ["unbounded"] *)
}

val once : repetition
(** The default [(1, 1)]. *)

val optional : repetition
(** [(0, 1)]. *)

val many : repetition
(** [(0, unbounded)]. *)

val repeat : int -> int option -> repetition
val repetition_valid : repetition -> bool
(** min non-negative and min <= max when max is bounded. *)

(** [CombinationFactor = Enumeration("sequence", "choice")], extended
    with the footnote-2 "all option definition" (the paper's
    [Interleave] type constructor): the elements of the group in any
    order, each at most once. *)
type combination = Sequence | Choice | All

(** A reference to a type: a (simple or complex) type name, or an
    inline anonymous definition — [Type = Union(TypeName,
    AnonymousTypeDefinition)]. *)
type type_ref =
  | Type_name of Name.t
  | Anonymous of complex_type
  | Anonymous_simple of Xsm_datatypes.Simple_type.t
      (** extension beyond the paper's core: inline simple types *)

(** [ElementDeclaration = Tuple(ElemName, Type, RepetitionFactor,
    NillIndicator)]. *)
and element_decl = {
  elem_name : Name.t;
  elem_type : type_ref;
  repetition : repetition;
  nillable : bool;
}

(** [GroupDefinition = Tuple(Seq(LocalGroupDefinition),
    CombinationFactor, RepetitionFactor)].  The paper's footnote 1
    allows nested group definitions; we implement the full form. *)
and particle =
  | Element_particle of element_decl
  | Group_particle of group_def

and group_def = {
  particles : particle list;
  combination : combination;
  group_repetition : repetition;
}

(** Attribute occurrence properties — the REQUIRED / PROHIBITED /
    OPTIONAL the paper's §2 mentions and elides "for simplicity". *)
and attribute_use = Required | Optional | Prohibited

(** [AttributeDeclarations = FM(AttrName, SimpleTypeName)] — a finite
    mapping, kept in declaration order, extended with the use property
    and an optional default value (inserted by validation when the
    attribute is absent). *)
and attribute_decl = {
  attr_name : Name.t;
  attr_type : Name.t;
  attr_use : attribute_use;
  attr_default : string option;
}

(** [ComplexTypeDefinition]: simple content (a simple type extended
    with attributes) or complex content (mixed indicator, optional
    local element declarations, attributes). *)
and complex_type =
  | Simple_content of { base : Name.t; attributes : attribute_decl list }
  | Complex_content of {
      mixed : bool;
      content : group_def option;  (** [None] or empty particles = empty content *)
      attributes : attribute_decl list;
    }

(** [DocumentSchema]: one global element declaration plus named
    complex (and, as an extension, simple) type definitions. *)
type schema = {
  root : element_decl;
  complex_types : (Name.t * complex_type) list;
  simple_types : (Name.t * Xsm_datatypes.Simple_type.t) list;
}

(** {1 Smart constructors} *)

val element :
  ?repetition:repetition -> ?nillable:bool -> string -> type_ref -> element_decl

val named_type : string -> type_ref
val sequence : ?repetition:repetition -> particle list -> group_def
val choice : ?repetition:repetition -> particle list -> group_def

val all_of : ?repetition:repetition -> particle list -> group_def
(** An interleave ([xsd:all]) group.  Well-formedness (checked by
    [Schema_check]): element particles only, each with
    [maxOccurs <= 1], and the group itself occurring at most once. *)

val elem_p : element_decl -> particle
val group_p : group_def -> particle
val attribute :
  ?use:attribute_use -> ?default:string -> string -> string -> attribute_decl
(** Defaults to [Required], matching §5.3.1 where every declared
    attribute is present in the instance (the XSD reader maps the
    concrete syntax's W3C default, [Optional], explicitly). *)

val complex :
  ?mixed:bool -> ?attributes:attribute_decl list -> group_def option -> complex_type

val simple_content : base:string -> attribute_decl list -> complex_type

val schema :
  ?complex_types:(string * complex_type) list ->
  ?simple_types:(string * Xsm_datatypes.Simple_type.t) list ->
  element_decl ->
  schema

(** {1 Observation} *)

val group_is_empty : group_def -> bool
(** Empty content: no particles (§2: "A group definition has the empty
    content if the sequence of local group definitions is empty"). *)

val declared_element_names : group_def -> Name.t list
(** Names of the element particles, in order, recursing into nested
    groups. *)
