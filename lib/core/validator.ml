module Name = Xsm_xml.Name
module Store = Xsm_xdm.Store
module Simple_type = Xsm_datatypes.Simple_type
module CA = Content_automaton
module Counter = Xsm_obs.Metrics.Counter
module Trace = Xsm_obs.Trace

let m_elements = Counter.make ~help:"element nodes validated" "validate.elements"
let m_errors = Counter.make ~help:"validation errors reported" "validate.errors"

let m_automaton_hits =
  Counter.make ~help:"content models served from the automata cache" "validate.automaton_cache_hits"

let m_automaton_compiles =
  Counter.make ~help:"content models determinized during validation" "validate.automaton_compiles"

let m_table_runs =
  Counter.make ~help:"content models matched via the determinized table" "validate.table_runs"

let m_fallback =
  Counter.make ~help:"child steps through the non-UPA position-set fallback"
    "validate.fallback_steps"

type error = { path : string; message : string }

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.path e.message
let error_to_string e = Format.asprintf "%a" pp_error e

let xsi_nil = Name.make ~prefix:"xsi" "nil"
let untyped_atomic_name = Name.make ~prefix:"xdt" "untypedAtomic"
let any_type_name = Name.make ~prefix:"xs" "anyType"

let is_whitespace s =
  String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* The type QName recorded by item 4. *)
let annotation_name (ty : Ast.type_ref) =
  match ty with
  | Ast.Type_name n -> n
  | Ast.Anonymous _ | Ast.Anonymous_simple _ -> any_type_name

(* ------------------------------------------------------------------ *)
(* The §6.1 transition core: one frame per open element, each holding  *)
(* one content-model state, fed start/attr/text/end in document order *)

(* A compiled content model, or the reason none exists. *)
type compiled =
  | C_table of CA.table
  | C_nfa of CA.t  (* UPA violated: exact position-set fallback *)
  | C_error of string  (* the group itself is malformed *)

type matcher =
  | M_table of CA.table * CA.state ref
  | M_nfa of CA.t * CA.nfa_state ref
  | M_dead  (* content-model error already reported at this frame *)

(* What the element's resolved type says about its content. *)
type ccase =
  | Unchecked  (* type unresolvable, or a structurally skipped subtree *)
  | Simple of Simple_type.t
  | Simple_unchecked  (* simple-content base failed to resolve: attrs only *)
  | Empty of { none : bool }  (* no element children; [none] = content absent *)
  | Model of matcher

type frame = {
  (* where the frame sits — [f_name] is the [f_index]-th element child
     of [f_parent], or the root declaration's name when [f_parent] is
     [None]; {!path} spells it out only when an error is reported *)
  f_parent : frame option;
  f_name : Name.t;
  f_index : int;
  (* the element, when a store walk drives the frame: the checks write
     its §6.2 annotations *)
  f_node : Store.node option;
  (* [None] for frames pushed only to keep the stack balanced under a
     subtree whose parent already failed: no checks at all happen there *)
  f_decl : Ast.element_decl option;
  f_attr_decls : Ast.attribute_decl list;
  f_mixed : bool;
  mutable f_case : ccase;
  mutable f_attrs_seen : Name.t list;
  mutable f_nilled : bool;
  mutable f_child_reported : bool;  (* nilled/simple/empty child error emitted *)
  mutable f_elem_children : int;
  mutable f_text_nodes : int;  (* logical text nodes (runs across Comment/Pi) *)
  mutable f_in_text : bool;
  mutable f_text : Buffer.t;  (* simple-content value, or the current run
                                 in element-only content (checked at run
                                 end); [no_text] until text is buffered *)
}

(* the [f_text] of a frame that has buffered nothing: always empty *)
let no_text = Buffer.create 1

let text_buffer f =
  if f.f_text == no_text then f.f_text <- Buffer.create 16;
  f.f_text

let rec path f = path_of f.f_parent f.f_name f.f_index

and path_of parent name index =
  match parent with
  | None -> "/" ^ Name.to_string name
  | Some p -> Printf.sprintf "%s/%s[%d]" (path p) (Name.to_string name) index

type stats = { elements : int; max_depth : int; fallback_steps : int }

type t = {
  schema : Ast.schema;
  store : Store.t option;  (* set by the store walk; streaming annotates nothing *)
  strict : bool;  (* reject non-UPA content models instead of stepping the fallback *)
  (* content models are compiled once per group (physical identity); a
     static analyzer can seed the cache so validation never recompiles *)
  mutable cache : (Ast.group_def * compiled) list;
  mutable errors : error list;  (* newest first, not yet taken *)
  mutable stack : frame list;
  mutable depth : int;  (* length of [stack] *)
  mutable seen_root : bool;
  mutable elements : int;
  mutable max_depth : int;
  mutable fallback_steps : int;
}

let create ?(automata = []) schema =
  {
    schema;
    store = None;
    strict = false;
    cache = List.rev_map (fun (g, tbl) -> (g, C_table tbl)) automata;
    errors = [];
    stack = [];
    depth = 0;
    seen_root = false;
    elements = 0;
    max_depth = 0;
    fallback_steps = 0;
  }

let report t path fmt =
  Printf.ksprintf
    (fun message ->
      Counter.incr m_errors;
      t.errors <- { path; message } :: t.errors)
    fmt

let compiled_for t ~parent name index (g : Ast.group_def) =
  let rec find = function
    | [] -> None
    | (g', c) :: rest -> if g' == g then Some c else find rest
  in
  match find t.cache with
  | Some c ->
    Counter.incr m_automaton_hits;
    c
  | None ->
    Counter.incr m_automaton_compiles;
    let c =
      match CA.make g with
      | Error e -> C_error e
      | Ok a -> ( match CA.compile a with Some tbl -> C_table tbl | None -> C_nfa a)
    in
    t.cache <- (g, c) :: t.cache;
    (match c with
    | C_error e -> report t (path_of parent name index) "content model: %s" e
    | C_table _ | C_nfa _ -> ());
    c

(* An attribute's value typed by its declaration. *)
let attribute_value t (d : Ast.attribute_decl) value =
  Result.bind (Schema_check.resolve_simple t.schema d.attr_type) (fun st ->
      Simple_type.validate st value)

let new_frame ~parent name index node decl case attr_decls mixed =
  {
    f_parent = parent;
    f_name = name;
    f_index = index;
    f_node = node;
    f_decl = decl;
    f_attr_decls = attr_decls;
    f_mixed = mixed;
    f_case = case;
    f_attrs_seen = [];
    f_nilled = false;
    f_child_reported = false;
    f_elem_children = 0;
    f_text_nodes = 0;
    f_in_text = false;
    f_text = no_text;
  }

let skip_frame ~parent name index = new_frame ~parent name index None None Unchecked [] true

(* Open a frame for an element attributed to [decl], up to the point
   where attributes and children are consumed.  The frame is built
   once, after its type is resolved; an error found on the way names
   the path the frame will have. *)
let make_frame t node ~parent name index (decl : Ast.element_decl) =
  t.elements <- t.elements + 1;
  Counter.incr m_elements;
  (match t.store, node with
  | Some s, Some n -> Store.set_type_name s n (Some (annotation_name decl.elem_type))
  | _ -> ());
  let d = Some decl in
  match Schema_check.resolve t.schema decl.elem_type with
  | Error e ->
    (* report, then check nothing below — except xsi:nil, which is
       policed before the type matters *)
    report t (path_of parent name index) "%s" e;
    new_frame ~parent name index node d Unchecked [] true
  | Ok (Schema_check.Resolved_simple st) ->
    new_frame ~parent name index node d (Simple st) [] false
  | Ok (Schema_check.Resolved_complex (Ast.Simple_content { base = b; attributes })) ->
    let case =
      match Schema_check.resolve_simple t.schema b with
      | Ok st -> Simple st
      | Error e ->
        report t (path_of parent name index) "simple content base: %s" e;
        Simple_unchecked
    in
    new_frame ~parent name index node d case attributes false
  | Ok (Schema_check.Resolved_complex (Ast.Complex_content { mixed; content; attributes })) ->
    let case =
      match content with
      | None -> Empty { none = true }
      | Some g when Ast.group_is_empty g -> Empty { none = false }
      | Some g -> (
        match compiled_for t ~parent name index g with
        | C_table tbl ->
          Counter.incr m_table_runs;
          Model (M_table (tbl, ref (CA.start_run tbl)))
        | C_nfa _ when t.strict ->
          report t (path_of parent name index)
            "content model violates Unique Particle Attribution";
          Model M_dead
        | C_nfa a -> Model (M_nfa (a, ref (CA.nfa_start a)))
        | C_error _ -> Model M_dead (* reported by compiled_for *))
    in
    new_frame ~parent name index node d case attributes mixed

(* A child where none may be: reported once per frame, and skipped. *)
let refuse_child t (f : frame) message =
  if not f.f_child_reported then begin
    f.f_child_reported <- true;
    report t (path f) "%s" message
  end;
  None

let off_model t (f : frame) name =
  report t (path f) "child %s does not match the content model" (Name.to_string name);
  f.f_case <- Model M_dead;
  None

(* One child step: the declaration a new child of [f] is attributed
   to, or [None] when the child's subtree is skipped structurally. *)
let step t (f : frame) name =
  match f.f_case with
  | _ when f.f_nilled -> refuse_child t f "nilled element must be empty"
  | Unchecked | Simple_unchecked | Model M_dead -> None
  | Simple _ -> refuse_child t f "element with simple type has element children"
  | Empty _ -> refuse_child t f "element children in empty content"
  | Model (M_table (tbl, st)) -> (
    match CA.step_run tbl !st name with
    | Some (st', decl) ->
      st := st';
      Some decl
    | None -> off_model t f name)
  | Model (M_nfa (a, st)) -> (
    t.fallback_steps <- t.fallback_steps + 1;
    Counter.incr m_fallback;
    match CA.nfa_step a !st name with
    | Some (st', decl) ->
      st := st';
      Some decl
    | None -> off_model t f name)

(* End of a logical text run: in element-only content the buffered run
   is one text node and must be whitespace. *)
let flush_text t (f : frame) =
  if f.f_in_text then begin
    f.f_in_text <- false;
    match f.f_case with
    | (Empty _ | Model _) when not f.f_mixed ->
      let s = Buffer.contents f.f_text in
      Buffer.clear f.f_text;
      if not (is_whitespace s) then report t (path f) "text %S in element-only content" s
    | Unchecked | Simple _ | Simple_unchecked | Empty _ | Model _ -> ()
  end

let push t f =
  t.stack <- f :: t.stack;
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

let on_start t node name =
  match t.stack with
  | [] ->
    if t.seen_root then report t "/" "document node must have exactly one element child"
    else begin
      t.seen_root <- true;
      let decl = t.schema.Ast.root in
      if not (Name.equal name decl.Ast.elem_name) then
        report t ("/" ^ Name.to_string decl.Ast.elem_name) "element %s where %s was declared"
          (Name.to_string name) (Name.to_string decl.Ast.elem_name);
      push t (make_frame t node ~parent:None decl.Ast.elem_name 0 decl)
    end
  | parent :: _ ->
    flush_text t parent;
    parent.f_elem_children <- parent.f_elem_children + 1;
    let index = parent.f_elem_children in
    push t
      (match step t parent name with
      | Some decl -> make_frame t node ~parent:(Some parent) name index decl
      | None -> skip_frame ~parent:(Some parent) name index)

let on_attr t anode name value =
  match t.stack with
  | ({ f_decl = Some decl; _ } as f) :: _ ->
    if Name.equal name xsi_nil then begin
      if value = "true" || value = "1" then
        if decl.Ast.nillable then f.f_nilled <- true
        else
          report t (path f) "xsi:nil on an element whose declaration has NillIndicator = false"
    end
    else begin
      f.f_attrs_seen <- name :: f.f_attrs_seen;
      match f.f_case with
      | Unchecked -> ()  (* type unresolved: no attribute declarations to check *)
      | Simple _ | Simple_unchecked | Empty _ | Model _ -> (
        match
          List.find_opt
            (fun (d : Ast.attribute_decl) -> Name.equal d.attr_name name)
            f.f_attr_decls
        with
        | None -> report t (path f) "undeclared attribute %s" (Name.to_string name)
        | Some { Ast.attr_use = Ast.Prohibited; _ } ->
          report t (path f) "prohibited attribute %s" (Name.to_string name)
        | Some d -> (
          match attribute_value t d value, t.store, anode with
          | Error e, _, _ -> report t (path f) "attribute %s: %s" (Name.to_string name) e
          | Ok typed, Some s, Some a ->
            Store.set_type_name s a (Some d.attr_type);
            Store.set_typed_value s a typed
          | Ok _, _, _ -> ()))
    end
  | _ -> ()

(* item 5.1.1: text in simple and mixed content is typed xdt:untypedAtomic *)
let type_text t tnode =
  match t.store, tnode with
  | Some s, Some n -> Store.set_type_name s n (Some untyped_atomic_name)
  | _ -> ()

let on_text t tnode s =
  match t.stack with
  | [] -> ()  (* text only ever arrives inside the root *)
  | f :: _ ->
    if not f.f_in_text then begin
      f.f_in_text <- true;
      f.f_text_nodes <- f.f_text_nodes + 1
    end;
    if f.f_nilled then ignore (refuse_child t f "nilled element must be empty")
    else begin
      match f.f_case with
      | Simple _ ->
        Buffer.add_string (text_buffer f) s;
        type_text t tnode
      | Empty _ | Model _ ->
        if f.f_mixed then type_text t tnode else Buffer.add_string (text_buffer f) s
      | Unchecked | Simple_unchecked -> ()
    end

(* The end-of-element checks: required/default attributes, simple-content
   typing, content-model acceptance, the mixed-empty text budget. *)
let on_end t =
  match t.stack with
  | [] -> ()
  | f :: rest ->
    t.stack <- rest;
    t.depth <- t.depth - 1;
    flush_text t f;
    List.iter
      (fun (d : Ast.attribute_decl) ->
        let present = List.exists (Name.equal d.attr_name) f.f_attrs_seen in
        match d.attr_use, d.attr_default, present with
        | Ast.Required, _, false ->
          report t (path f) "missing declared attribute %s" (Name.to_string d.attr_name)
        | Ast.Optional, Some dv, false -> (
          (* materialize the default, typed *)
          match attribute_value t d dv, t.store, f.f_node with
          | Error e, _, _ ->
            report t (path f) "default for attribute %s: %s" (Name.to_string d.attr_name) e
          | Ok typed, Some s, Some n ->
            Store.attach_attribute s n
              (Store.new_attribute s ~type_name:d.attr_type ~typed_value:typed d.attr_name dv)
          | Ok _, _, _ -> ())
        | (Ast.Required | Ast.Optional | Ast.Prohibited), _, _ -> ())
      f.f_attr_decls;
    (match t.store, f.f_node with Some s, Some n -> Store.set_nilled s n f.f_nilled | _ -> ());
    if not f.f_nilled then begin
      match f.f_case with
      | Unchecked | Simple_unchecked -> ()
      | Simple st -> (
        match Simple_type.validate st (Buffer.contents f.f_text), t.store, f.f_node with
        | Error e, _, _ -> report t (path f) "%s" e
        | Ok typed, Some s, Some n -> Store.set_typed_value s n typed
        | Ok _, _, _ -> ())
      | Empty { none } ->
        if none && f.f_mixed && f.f_elem_children + f.f_text_nodes > 1 then
          report t (path f) "mixed empty content allows at most one text node"
      | Model (M_table (tbl, st)) when not (CA.run_accepting tbl !st) ->
        report t (path f) "children do not match the content model (incomplete)"
      | Model (M_nfa (a, st)) when not (CA.nfa_accepting a !st) ->
        report t (path f) "children do not match the content model (incomplete)"
      | Model _ -> ()
    end

let start_element t name = on_start t None name
let attribute t name value = on_attr t None name value
let text t s = on_text t None s
let end_element t = on_end t

let take_errors t =
  match t.errors with
  | [] -> []
  | es ->
    t.errors <- [];
    List.rev es

let stats t = { elements = t.elements; max_depth = t.max_depth; fallback_steps = t.fallback_steps }

let finish t =
  (match t.stack with
  | [] -> ()
  | f :: _ -> report t (path f) "unterminated element");
  if not t.seen_root then report t "/" "document node has no element child";
  match t.errors with [] -> Ok (stats t) | es -> Error (List.rev es)

(* ------------------------------------------------------------------ *)
(* The store walk: document order over an XDM tree, plus the checks    *)
(* only a store can fail                                               *)

let rec adjacent_text store = function
  | a :: (b :: _ as rest) ->
    (Store.kind store a = Store.Kind.Text && Store.kind store b = Store.Kind.Text)
    || adjacent_text store rest
  | [ _ ] | [] -> false

let rec walk_element t store node =
  on_start t (Some node) (Option.value ~default:(Name.local "?") (Store.node_name store node));
  let f = List.hd t.stack in
  let content () =
    List.iter
      (fun a ->
        match Store.node_name store a with
        | Some n -> on_attr t (Some a) n (Store.string_value store a)
        | None -> ())
      (Store.attributes store node);
    let children = Store.children store node in
    (* no adjacent text nodes in mixed content (item 5.4.2.2) *)
    (match f.f_case with
    | (Empty _ | Model _) when f.f_mixed && adjacent_text store children ->
      report t (path f) "adjacent text nodes"
    | Unchecked | Simple _ | Simple_unchecked | Empty _ | Model _ -> ());
    List.iter
      (fun c ->
        match Store.kind store c with
        | Store.Kind.Element -> walk_element t store c
        | Store.Kind.Text -> on_text t (Some c) (Store.string_value store c)
        | Store.Kind.Document | Store.Kind.Attribute ->
          report t (path f) "impossible child node kind")
      children;
    on_end t
  in
  match f.f_decl with
  | Some decl when !Trace.enabled && !Trace.detail ->
    Trace.with_span ~attrs:[ ("decl", Name.to_string decl.elem_name) ] "validate.element" content
  | Some _ | None -> content ()

(* The tree entry points reject non-UPA content models outright. *)
let walk ?automata store schema drive =
  let t = { (create ?automata schema) with store = Some store; strict = true } in
  drive t;
  match t.errors with [] -> Ok () | es -> Error (List.rev es)

let validate ?automata store node schema =
  Trace.with_span "validate.document" (fun () ->
      walk ?automata store schema (fun t ->
          match Store.kind store node with
          | Store.Kind.Document -> (
            (* requirement 1–3: one element child carrying the root declaration *)
            match Store.children store node with
            | [ root ] when Store.kind store root = Store.Kind.Element ->
              walk_element t store root
            | [] -> report t "/" "document node has no element child"
            | _ -> report t "/" "document node must have exactly one element child")
          | Store.Kind.Element | Store.Kind.Attribute | Store.Kind.Text ->
            report t "/" "validation must start at a document node"))

let validate_element_node ?automata store node schema =
  walk ?automata store schema (fun t ->
      match Store.kind store node with
      | Store.Kind.Element -> walk_element t store node
      | Store.Kind.Document | Store.Kind.Attribute | Store.Kind.Text ->
        report t "/" "not an element node")

let validate_document ?store ?automata doc schema =
  let store = match store with Some s -> s | None -> Store.create () in
  let dnode = Xsm_xdm.Convert.load store doc in
  match validate ?automata store dnode schema with
  | Ok () -> Ok (store, dnode)
  | Error es -> Error es

let is_valid doc schema = Result.is_ok (validate_document doc schema)
