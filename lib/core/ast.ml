module Name = Xsm_xml.Name

type repetition = { min_occurs : int; max_occurs : int option }

let once = { min_occurs = 1; max_occurs = Some 1 }
let optional = { min_occurs = 0; max_occurs = Some 1 }
let many = { min_occurs = 0; max_occurs = None }
let repeat min_occurs max_occurs = { min_occurs; max_occurs }

let repetition_valid r =
  r.min_occurs >= 0 && match r.max_occurs with None -> true | Some m -> m >= r.min_occurs

type combination = Sequence | Choice | All

type type_ref =
  | Type_name of Name.t
  | Anonymous of complex_type
  | Anonymous_simple of Xsm_datatypes.Simple_type.t

and element_decl = {
  elem_name : Name.t;
  elem_type : type_ref;
  repetition : repetition;
  nillable : bool;
}

and particle = Element_particle of element_decl | Group_particle of group_def

and group_def = {
  particles : particle list;
  combination : combination;
  group_repetition : repetition;
}

and attribute_use = Required | Optional | Prohibited

and attribute_decl = {
  attr_name : Name.t;
  attr_type : Name.t;
  attr_use : attribute_use;
  attr_default : string option;
}

and complex_type =
  | Simple_content of { base : Name.t; attributes : attribute_decl list }
  | Complex_content of {
      mixed : bool;
      content : group_def option;
      attributes : attribute_decl list;
    }

type schema = {
  root : element_decl;
  complex_types : (Name.t * complex_type) list;
  simple_types : (Name.t * Xsm_datatypes.Simple_type.t) list;
}

let element ?(repetition = once) ?(nillable = false) name ty =
  { elem_name = Name.of_string_exn name; elem_type = ty; repetition; nillable }

let named_type s = Type_name (Name.of_string_exn s)

let sequence ?(repetition = once) particles =
  { particles; combination = Sequence; group_repetition = repetition }

let choice ?(repetition = once) particles =
  { particles; combination = Choice; group_repetition = repetition }

let all_of ?(repetition = once) particles =
  { particles; combination = All; group_repetition = repetition }

let elem_p e = Element_particle e
let group_p g = Group_particle g

let attribute ?(use = Required) ?default name ty =
  {
    attr_name = Name.of_string_exn name;
    attr_type = Name.of_string_exn ty;
    attr_use = use;
    attr_default = default;
  }

let complex ?(mixed = false) ?(attributes = []) content =
  Complex_content { mixed; content; attributes }

let simple_content ~base attributes =
  Simple_content { base = Name.of_string_exn base; attributes }

let schema ?(complex_types = []) ?(simple_types = []) root =
  {
    root;
    complex_types = List.map (fun (n, t) -> (Name.of_string_exn n, t)) complex_types;
    simple_types = List.map (fun (n, t) -> (Name.of_string_exn n, t)) simple_types;
  }

let group_is_empty g = g.particles = []

let rec declared_element_names g =
  List.concat_map
    (function
      | Element_particle e -> [ e.elem_name ]
      | Group_particle inner -> declared_element_names inner)
    g.particles
