module Name = Xsm_xml.Name
module Simple_type = Xsm_datatypes.Simple_type
module Builtin = Xsm_datatypes.Builtin
module CA = Content_automaton
module Counter = Xsm_obs.Metrics.Counter

let m_compiles =
  Counter.make ~help:"content models determinized by the schema compile"
    "validate.automaton_compiles"

type segment =
  | In_type of Name.t
  | In_element of Name.t
  | In_attribute of Name.t
  | In_group

type location = segment list

type error = { loc : location; message : string }

(* ------------------------------------------------------------------ *)
(* Type resolution                                                     *)

let find_named assoc name =
  List.find_map (fun (n, v) -> if Name.equal n name then Some v else None) assoc

(* a declared or built-in simple type; built-ins are accepted both
   prefixed (xs:string) and plain (string) *)
let simple_named (s : Ast.schema) name =
  match find_named s.simple_types name with
  | Some st -> Some st
  | None -> (
    match Builtin.of_name (Name.to_string name) with
    | Some b when Builtin.is_simple b -> Some (Simple_type.builtin b)
    | Some _ | None -> None)

let resolve_simple (s : Ast.schema) name =
  match simple_named s name with
  | Some st -> Ok st
  | None -> (
    match find_named s.complex_types name with
    | Some _ ->
      Error (Printf.sprintf "type %s is complex, a simple type is required" (Name.to_string name))
    | None -> Error (Printf.sprintf "unknown simple type %s" (Name.to_string name)))

let not_a_type name =
  Printf.sprintf
    "type %s is neither in dom(ctd) nor a simple type name (requirement on type usage)"
    (Name.to_string name)

(* ------------------------------------------------------------------ *)
(* The compiled schema                                                 *)

type attribute = { attr : Ast.attribute_decl; attr_simple : (Simple_type.t, string) result }

type element = { decl : Ast.element_decl; annotation : Name.t; ty : ty }

and ty = {
  mutable content : content;
  mutable attributes : attribute list;
  mutable mixed : bool;
}

and content =
  | Unresolved of string
  | Simple of Simple_type.t
  | Bad_base of string
  | Empty of { none : bool }
  | Model of model

and model = { group : group; run : run }
and group = { def : Ast.group_def; particles : particle list }
and particle = Element of element | Group of group

and run =
  | Table of CA.table * element array
  | Nfa of CA.t * element array
  | Bad of string

type t = {
  schema : Ast.schema;
  root : element;
  errors : error list;
  content_models : (location * model) list;
}

let schema t = t.schema
let root t = t.root
let errors t = t.errors
let content_models t = t.content_models

let determinized t =
  List.length
    (List.filter
       (fun (_, m) -> match m.run with Table _ -> true | Nfa _ | Bad _ -> false)
       t.content_models)

let rec elements g =
  List.concat_map (function Element e -> [ e ] | Group inner -> elements inner) g.particles

let any_type_name = Name.make ~prefix:"xs" "anyType"
let simple_ty st = { content = Simple st; attributes = []; mixed = false }

(* One walk in Schema_check's order: each named complex type, then the
   root declaration, recursing through anonymous types only — a named
   type is reached through its shared [ty], so recursion terminates.
   A diagnostic is reported where the walk meets its construct; a
   group's own verdict comes after those of its particles. *)
let make (s : Ast.schema) =
  let errors = ref [] and models = ref [] in
  let report loc fmt =
    Printf.ksprintf (fun message -> errors := { loc; message } :: !errors) fmt
  in
  let blank () = { content = Empty { none = true }; attributes = []; mixed = false } in
  let named = Hashtbl.create 16 in
  let types =
    List.map
      (fun (n, ct) ->
        let ty = blank () in
        if not (Hashtbl.mem named n) then Hashtbl.add named n ty;
        (n, ct, ty))
      s.complex_types
  in
  let named_type loc n =
    match Hashtbl.find_opt named n with
    | Some ty -> ty
    | None -> (
      match simple_named s n with
      | Some st -> simple_ty st
      | None ->
        let msg = not_a_type n in
        report loc "%s" msg;
        { content = Unresolved msg; attributes = []; mixed = true })
  in
  let check_repetition loc (r : Ast.repetition) =
    if not (Ast.repetition_valid r) then
      report loc "invalid repetition factor (min > max or negative)"
  in
  let attributes loc attrs =
    let seen = Hashtbl.create 8 in
    List.map
      (fun (a : Ast.attribute_decl) ->
        let aloc = loc @ [ In_attribute a.attr_name ] in
        if Hashtbl.mem seen a.attr_name then report aloc "duplicate attribute name"
        else Hashtbl.add seen a.attr_name ();
        let attr_simple = resolve_simple s a.attr_type in
        Result.iter_error (report aloc "%s") attr_simple;
        { attr = a; attr_simple })
      attrs
  in
  let rec element loc (e : Ast.element_decl) =
    check_repetition loc e.repetition;
    match e.elem_type with
    | Ast.Type_name n -> { decl = e; annotation = n; ty = named_type loc n }
    | Ast.Anonymous ct ->
      let ty = blank () in
      complex loc ty ct;
      { decl = e; annotation = any_type_name; ty }
    | Ast.Anonymous_simple st -> { decl = e; annotation = any_type_name; ty = simple_ty st }
  and complex loc ty = function
    | Ast.Simple_content { base; attributes = attrs } ->
      ty.content <-
        (match resolve_simple s base with
        | Ok st -> Simple st
        | Error e ->
          report loc "simple content base: %s" e;
          Bad_base e);
      ty.attributes <- attributes loc attrs
    | Ast.Complex_content { mixed; content; attributes = attrs } ->
      ty.attributes <- attributes loc attrs;
      ty.mixed <- mixed;
      ty.content <-
        (match content with
        | None -> Empty { none = true }
        | Some g when Ast.group_is_empty g ->
          ignore (group loc g);
          Empty { none = false }
        | Some g ->
          models := (loc, ty) :: !models;
          Model (model loc g))
  and group loc (g : Ast.group_def) =
    check_repetition loc g.group_repetition;
    (* §2: element names among the local declarations must differ *)
    let names = Hashtbl.create 8 in
    let particles =
      List.map
        (function
          | Ast.Element_particle e ->
            if Hashtbl.mem names e.elem_name then
              report loc "element name %s repeated within one group" (Name.to_string e.elem_name)
            else Hashtbl.add names e.elem_name ();
            Element (element (loc @ [ In_element e.elem_name ]) e)
          | Ast.Group_particle inner -> Group (group (loc @ [ In_group ]) inner))
        g.particles
    in
    { def = g; particles }
  and model loc g =
    let group = group loc g in
    (* UPA is determinism of the Glushkov automaton; each position
       attributes its child to the element compiled for its particle *)
    let positions a =
      let flat = elements group in
      Array.map (fun d -> List.find (fun e -> e.decl == d) flat) (CA.decls a)
    in
    let run =
      match CA.make g with
      | Error e ->
        report loc "content model: %s" e;
        Bad e
      | Ok a -> (
        Counter.incr m_compiles;
        match CA.compile a with
        | Some table -> Table (table, positions a)
        | None ->
          report loc "content model violates Unique Particle Attribution";
          Nfa (a, positions a))
    in
    { group; run }
  in
  List.iter (fun (n, ct, ty) -> complex [ In_type n ] ty ct) types;
  let root = element [ In_element s.root.elem_name ] s.root in
  {
    schema = s;
    root;
    errors = List.rev !errors;
    content_models =
      List.rev
        (List.filter_map
           (fun (loc, ty) -> match ty.content with Model m -> Some (loc, m) | _ -> None)
           !models);
  }
