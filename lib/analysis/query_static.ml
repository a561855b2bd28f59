module Path_ast = Xsm_xpath.Path_ast
module Name = Xsm_xml.Name
module Simple_type = Xsm_datatypes.Simple_type
module Builtin = Xsm_datatypes.Builtin
module VI = Xsm_index.Value_index
module G = Schema_graph

type verdict =
  | Empty of string
  | Maybe

type result = { verdict : verdict; warnings : string list }

exception Unsupported

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Value-space families                                                *)

(* Which Value_index.Key family can a value of this simple type probe
   as?  Sound for raw lexical forms as well as canonical ones: a type
   is classified Number/Text only when every string in its lexical
   space (and every canonical form) lands in that family.  Decimal
   lexical forms are exactly what [Decimal.of_string] accepts, hence
   Number; the date/time/duration lexical spaces always contain a
   non-leading '-', ':' or 'P', hence Text.  Booleans ("1"), gYear
   ("1980"), floats ("12" is a float lexical form), the binary types
   and URIs can spell plain digit strings, so they stay Unknown. *)
type family = F_number | F_text | F_unknown

let family_join a b = if a = b then a else F_unknown

let primitive_family : Builtin.primitive -> family = function
  | Builtin.P_decimal -> F_number
  | Builtin.P_date_time | Builtin.P_time | Builtin.P_date | Builtin.P_duration
  | Builtin.P_g_year_month | Builtin.P_g_month_day | Builtin.P_g_day
  | Builtin.P_g_month ->
    F_text
  | Builtin.P_string | Builtin.P_boolean | Builtin.P_float | Builtin.P_double
  | Builtin.P_g_year | Builtin.P_hex_binary | Builtin.P_base64_binary
  | Builtin.P_any_uri | Builtin.P_qname | Builtin.P_notation ->
    F_unknown

let rec st_family (st : Simple_type.t) =
  match st with
  | Simple_type.Builtin b -> (
    match Builtin.primitive_base b with
    | Some p -> primitive_family p
    | None -> F_unknown)
  | Simple_type.Restriction { base; _ } -> st_family base
  | Simple_type.List _ ->
    (* the raw string value of a list is space-joined items — its key
       family need not match the items' *)
    F_unknown
  | Simple_type.Union { members; _ } -> (
    match List.map st_family members with
    | [] -> F_unknown
    | f :: fs -> List.fold_left family_join f fs)

let key_family lit =
  match VI.Key.of_string lit with VI.Key.Number _ -> F_number | VI.Key.Text _ -> F_text

(* ------------------------------------------------------------------ *)
(* Numeric value intervals                                             *)

module Decimal = Xsm_datatypes.Decimal
module Facet = Xsm_datatypes.Facet
module Value = Xsm_datatypes.Value

(* A bound on a numeric value space: the decimal and whether it is
   attained (inclusive). *)
type nbound = Decimal.t * bool

type nrange = { nlo : nbound option; nhi : nbound option }

let tighten_lo cur cand =
  match cur, cand with
  | None, c -> c
  | c, None -> c
  | Some (a, ai), Some (b, bi) ->
    let c = Decimal.compare a b in
    if c > 0 then Some (a, ai)
    else if c < 0 then Some (b, bi)
    else Some (a, ai && bi)

let tighten_hi cur cand =
  match cur, cand with
  | None, c -> c
  | c, None -> c
  | Some (a, ai), Some (b, bi) ->
    let c = Decimal.compare a b in
    if c < 0 then Some (a, ai)
    else if c > 0 then Some (b, bi)
    else Some (a, ai && bi)

(* convex hull for unions: the weaker bound on each side *)
let hull a b =
  let weaker_lo x y =
    match x, y with
    | None, _ | _, None -> None
    | Some (a, ai), Some (b, bi) ->
      let c = Decimal.compare a b in
      if c < 0 then Some (a, ai) else if c > 0 then Some (b, bi) else Some (a, ai || bi)
  and weaker_hi x y =
    match x, y with
    | None, _ | _, None -> None
    | Some (a, ai), Some (b, bi) ->
      let c = Decimal.compare a b in
      if c > 0 then Some (a, ai) else if c < 0 then Some (b, bi) else Some (a, ai || bi)
  in
  { nlo = weaker_lo a.nlo b.nlo; nhi = weaker_hi a.nhi b.nhi }

let builtin_range (b : Builtin.t) : nrange option =
  let d s = Some (Decimal.of_string_exn s, true) in
  let r nlo nhi = Some { nlo; nhi } in
  match b with
  | Builtin.Primitive Builtin.P_decimal | Builtin.Integer -> r None None
  | Builtin.Non_positive_integer -> r None (d "0")
  | Builtin.Negative_integer -> r None (d "-1")
  | Builtin.Long -> r (d "-9223372036854775808") (d "9223372036854775807")
  | Builtin.Int -> r (d "-2147483648") (d "2147483647")
  | Builtin.Short -> r (d "-32768") (d "32767")
  | Builtin.Byte -> r (d "-128") (d "127")
  | Builtin.Non_negative_integer -> r (d "0") None
  | Builtin.Unsigned_long -> r (d "0") (d "18446744073709551615")
  | Builtin.Unsigned_int -> r (d "0") (d "4294967295")
  | Builtin.Unsigned_short -> r (d "0") (d "65535")
  | Builtin.Unsigned_byte -> r (d "0") (d "255")
  | Builtin.Positive_integer -> r (d "1") None
  | _ -> None

(* The interval every value of [st] lies in, when the type is provably
   numeric (primitive base xs:decimal — so every typed value keys as
   [Key.Number] and every raw lexical form trims to a decimal). *)
let rec numeric_range (st : Simple_type.t) : nrange option =
  match st with
  | Simple_type.Builtin b ->
    if Builtin.primitive_base b = Some Builtin.P_decimal then builtin_range b else None
  | Simple_type.Restriction { base; facets; _ } ->
    Option.map
      (fun r ->
        List.fold_left
          (fun r (f : Facet.t) ->
            match f with
            | Facet.Min_inclusive (Value.Decimal d) ->
              { r with nlo = tighten_lo r.nlo (Some (d, true)) }
            | Facet.Min_exclusive (Value.Decimal d) ->
              { r with nlo = tighten_lo r.nlo (Some (d, false)) }
            | Facet.Max_inclusive (Value.Decimal d) ->
              { r with nhi = tighten_hi r.nhi (Some (d, true)) }
            | Facet.Max_exclusive (Value.Decimal d) ->
              { r with nhi = tighten_hi r.nhi (Some (d, false)) }
            | _ -> r)
          r facets)
      (numeric_range base)
  | Simple_type.List _ -> None
  | Simple_type.Union { members; _ } -> (
    match List.map numeric_range members with
    | [] -> None
    | r :: rs ->
      List.fold_left
        (fun a b -> match a, b with Some a, Some b -> Some (hull a b) | _ -> None)
        r rs)

(* Enumeration facets along the derivation chain.  A valid value
   satisfies every one of them, so if any single facet's value list
   all satisfies a comparison, every valid value does. *)
let rec enumerations (st : Simple_type.t) : Value.t list list =
  match st with
  | Simple_type.Builtin _ | Simple_type.List _ | Simple_type.Union _ -> []
  | Simple_type.Restriction { base; facets; _ } ->
    List.filter_map (function Facet.Enumeration vs -> Some vs | _ -> None) facets
    @ enumerations base

(* Does every value of [st] satisfy [v op lit]?  Sound for the §5
   typed-value comparison: a numeric type's values key as [Number]
   inside {!numeric_range}, so the interval test decides the
   comparison for all of them at once. *)
let type_forces_cmp st (op : Path_ast.cmp) lit_d =
  let sat d =
    let c = Decimal.compare d lit_d in
    match op with
    | Path_ast.Lt -> c < 0
    | Path_ast.Le -> c <= 0
    | Path_ast.Gt -> c > 0
    | Path_ast.Ge -> c >= 0
  in
  List.exists
    (fun vs ->
      vs <> [] && List.for_all (function Value.Decimal d -> sat d | _ -> false) vs)
    (enumerations st)
  ||
  match numeric_range st with
  | None -> false
  | Some { nlo; nhi } -> (
    match op with
    | Path_ast.Lt -> (
      match nhi with
      | None -> false
      | Some (h, incl) ->
        let c = Decimal.compare h lit_d in
        if incl then c < 0 else c <= 0)
    | Path_ast.Le -> (
      match nhi with None -> false | Some (h, _) -> Decimal.compare h lit_d <= 0)
    | Path_ast.Gt -> (
      match nlo with
      | None -> false
      | Some (l, incl) ->
        let c = Decimal.compare l lit_d in
        if incl then c > 0 else c >= 0)
    | Path_ast.Ge -> (
      match nlo with None -> false | Some (l, _) -> Decimal.compare l lit_d >= 0))

(* The simple type constraining a node's raw string value, when the
   analysis knows one: attributes and simple-typed elements.  Text
   nodes are opaque — a simple value can be split across several text
   nodes, and fragments of a valid lexical form prove nothing. *)
let value_type g id =
  let n = G.node g id in
  match n.G.kind with
  | G.Attr _ -> n.G.simple
  | G.Elem _ -> n.G.simple
  | G.Doc | G.Text -> None

(* ------------------------------------------------------------------ *)
(* Symbolic sets of graph nodes                                        *)

let children_of g id =
  let n = G.node g id in
  List.map fst n.G.elem_children
  @ (match n.G.text_child with Some t -> [ t ] | None -> [])

let descendants_or_self g set =
  let rec grow frontier acc =
    match frontier with
    | [] -> acc
    | id :: rest ->
      let fresh = List.filter (fun c -> not (IntSet.mem c acc)) (children_of g id) in
      grow (fresh @ rest) (List.fold_left (fun a c -> IntSet.add c a) acc fresh)
  in
  grow (IntSet.elements set) set

let ancestors g set ~or_self =
  let rec grow frontier acc =
    match frontier with
    | [] -> acc
    | id :: rest ->
      let parents = (G.node g id).G.parents in
      let fresh = List.filter (fun p -> not (IntSet.mem p acc)) parents in
      grow (fresh @ rest) (List.fold_left (fun a p -> IntSet.add p a) acc fresh)
  in
  let anc = grow (IntSet.elements set) IntSet.empty in
  if or_self then IntSet.union anc set else anc

let parents_of g set =
  IntSet.fold
    (fun id acc ->
      List.fold_left (fun a p -> IntSet.add p a) acc (G.node g id).G.parents)
    set IntSet.empty

(* over-approximate siblings: every child of every parent *)
let siblings_of g set =
  IntSet.fold
    (fun id acc ->
      List.fold_left
        (fun a p ->
          List.fold_left (fun a c -> IntSet.add c a) a (children_of g p))
        acc (G.node g id).G.parents)
    set IntSet.empty

let child_set g set =
  IntSet.fold
    (fun id acc -> List.fold_left (fun a c -> IntSet.add c a) acc (children_of g id))
    set IntSet.empty

let axis_nodes g (axis : Xsm_xdm.Axis.t) set =
  match axis with
  | Xsm_xdm.Axis.Self -> set
  | Xsm_xdm.Axis.Child -> child_set g set
  | Xsm_xdm.Axis.Attribute ->
    IntSet.fold
      (fun id acc ->
        List.fold_left (fun a c -> IntSet.add c a) acc (G.node g id).G.attr_children)
      set IntSet.empty
  | Xsm_xdm.Axis.Descendant -> descendants_or_self g (child_set g set)
  | Xsm_xdm.Axis.Descendant_or_self -> descendants_or_self g set
  | Xsm_xdm.Axis.Parent -> parents_of g set
  | Xsm_xdm.Axis.Ancestor -> ancestors g set ~or_self:false
  | Xsm_xdm.Axis.Ancestor_or_self -> ancestors g set ~or_self:true
  | Xsm_xdm.Axis.Following_sibling | Xsm_xdm.Axis.Preceding_sibling ->
    siblings_of g set
  | Xsm_xdm.Axis.Following | Xsm_xdm.Axis.Preceding -> raise Unsupported

let test_matches g (test : Path_ast.node_test) id =
  match test, (G.node g id).G.kind with
  | Path_ast.Name_test nm, (G.Elem n | G.Attr n) -> Name.equal nm n
  | Path_ast.Name_test _, (G.Doc | G.Text) -> false
  | Path_ast.Wildcard, (G.Elem _ | G.Attr _) -> true
  | Path_ast.Wildcard, (G.Doc | G.Text) -> false
  | Path_ast.Text_test, G.Text -> true
  | Path_ast.Text_test, (G.Doc | G.Elem _ | G.Attr _) -> false
  | Path_ast.Node_test, _ -> true

(* ------------------------------------------------------------------ *)
(* Path evaluation                                                     *)

let analyze g (p : Path_ast.path) =
  let warnings = ref [] in
  let warn fmt =
    Printf.ksprintf
      (fun m -> if not (List.mem m !warnings) then warnings := m :: !warnings)
      fmt
  in
  let rec eval_path start (p : Path_ast.path) =
    let s0 = if p.Path_ast.absolute then IntSet.singleton (G.root g) else start in
    List.fold_left eval_step s0 p.Path_ast.steps
  and eval_step set ((step : Path_ast.step), desc_flag) =
    let bases = if desc_flag then descendants_or_self g set else set in
    let on_axis = axis_nodes g step.Path_ast.axis bases in
    let matching = IntSet.filter (test_matches g step.Path_ast.test) on_axis in
    IntSet.filter (fun id -> keeps_predicates id step.Path_ast.predicates) matching
  and keeps_predicates id preds =
    List.for_all (fun p -> may_hold id p) preds
  and may_hold id (pred : Path_ast.expr) =
    match pred with
    | Path_ast.Position k -> k >= 1
    | Path_ast.Position_cmp (op, k) -> (
      (* may some 1-based position satisfy the comparison? *)
      match op with
      | Path_ast.Lt -> k > 1
      | Path_ast.Le -> k >= 1
      | Path_ast.Gt | Path_ast.Ge -> true)
    | Path_ast.Last _ -> true
    | Path_ast.Exists rel -> (
      match targets_of id rel with
      | None -> true
      | Some ts -> not (IntSet.is_empty ts))
    | Path_ast.Equals (rel, lit) -> (
      match targets_of id rel with
      | None -> true
      | Some ts when IntSet.is_empty ts -> false
      | Some ts ->
        let never =
          IntSet.for_all
            (fun t ->
              match value_type g t with
              | Some st -> not (Simple_type.is_valid st lit)
              | None -> false)
            ts
        in
        if never then
          warn
            "comparison with %S can never hold: the literal is outside the lexical \
             space of every type the operand can have"
            lit;
        not never)
    | Path_ast.Cmp (op, rel, lit) -> (
      match targets_of id rel with
      | None -> true
      | Some ts when IntSet.is_empty ts -> false
      | Some ts ->
        let lf = key_family lit in
        let never =
          IntSet.for_all
            (fun t ->
              match Option.map st_family (value_type g t) with
              | Some (F_number | F_text as f) -> f <> lf && lf <> F_unknown
              | Some F_unknown | None -> false)
            ts
        in
        if never then
          warn
            "comparison '%s %s %S' can never hold: the operand's value space and \
             the literal are in different order families (number vs. text)"
            (Path_ast.to_string rel)
            (Path_ast.cmp_to_string op) lit;
        not never)
  and targets_of id rel =
    (* None = the sub-path left the analysable fragment *)
    match eval_path (IntSet.singleton id) rel with
    | s -> Some s
    | exception Unsupported -> None
  in
  match eval_path IntSet.empty p with
  | exception Unsupported -> { verdict = Maybe; warnings = List.rev !warnings }
  | _ when not p.Path_ast.absolute ->
    (* a relative top-level path depends on an unknown context node *)
    { verdict = Maybe; warnings = List.rev !warnings }
  | result ->
    let verdict =
      if IntSet.is_empty result then
        Empty "no schema-valid document has nodes on this path"
      else Maybe
    in
    { verdict; warnings = List.rev !warnings }

let pruner g p = match (analyze g p).verdict with Empty reason -> Some reason | Maybe -> None

(* ------------------------------------------------------------------ *)
(* Always-true predicates and constant folding                         *)

(* Is a predicate provably true at every instance node mapping to any
   id in [set]?  (Vacuously true on the empty set — the step selects
   nothing then, so dropping its predicates changes nothing.) *)
let rec always_holds g set (pred : Path_ast.expr) =
  match pred with
  | Path_ast.Position_cmp (Path_ast.Ge, k) -> k <= 1
  | Path_ast.Position_cmp (Path_ast.Gt, k) -> k <= 0
  | Path_ast.Position _ | Path_ast.Position_cmp _ | Path_ast.Last _ -> false
  | Path_ast.Exists rel ->
    IntSet.for_all (fun id -> not (IntSet.is_empty (guaranteed_targets g id rel))) set
  | Path_ast.Equals _ ->
    (* equality is on raw string values: even a singleton value space
       admits many lexical forms, so nothing forces it *)
    false
  | Path_ast.Cmp (op, rel, lit) -> (
    match Decimal.of_string (String.trim lit) with
    | Error _ -> false
    | Ok l ->
      IntSet.for_all
        (fun id ->
          IntSet.exists
            (fun t ->
              match value_type g t with
              | Some st -> type_forces_cmp st op l
              | None -> false)
            (guaranteed_targets g id rel))
        set)

(* Schema nodes a chain of mandatory steps of [rel] ends at: every
   valid instance of [id] has at least one instance node on each
   returned id.  Child steps qualify when the occurrence interval's
   lower bound is positive; attribute steps never do (the graph does
   not record requiredness), nor does [//] (the mandatory child could
   sit at any depth). *)
and guaranteed_targets g id (rel : Path_ast.path) =
  if rel.Path_ast.absolute then IntSet.empty
  else
    List.fold_left
      (fun set ((step : Path_ast.step), desc_flag) ->
        if desc_flag then IntSet.empty
        else
          match step.Path_ast.axis with
          | Xsm_xdm.Axis.Self ->
            IntSet.filter
              (fun c ->
                test_matches g step.Path_ast.test c
                && List.for_all (keeps_some g c) step.Path_ast.predicates)
              set
          | Xsm_xdm.Axis.Child ->
            IntSet.fold
              (fun i acc ->
                List.fold_left
                  (fun acc (c, (iv : Cardinality.interval)) ->
                    if
                      iv.Cardinality.lo >= 1
                      && test_matches g step.Path_ast.test c
                      && List.for_all (keeps_some g c) step.Path_ast.predicates
                    then IntSet.add c acc
                    else acc)
                  acc
                  (G.node g i).G.elem_children)
              set IntSet.empty
          | _ -> IntSet.empty)
      (IntSet.singleton id) rel.Path_ast.steps

(* Does the predicate keep at least one node of any non-empty
   candidate list?  Positional picks of a guaranteed-present first
   node qualify alongside always-true predicates. *)
and keeps_some g c (pred : Path_ast.expr) =
  match pred with
  | Path_ast.Position 1 | Path_ast.Last 0 -> true
  | Path_ast.Position_cmp (Path_ast.Le, k) -> k >= 1
  | Path_ast.Position_cmp (Path_ast.Lt, k) -> k >= 2
  | _ -> always_holds g (IntSet.singleton c) pred

let fold g (p : Path_ast.path) =
  if not p.Path_ast.absolute then p
  else
    match
      let _, rev_steps =
        List.fold_left
          (fun (set, acc) ((step : Path_ast.step), desc_flag) ->
            let bases = if desc_flag then descendants_or_self g set else set in
            let on_axis = axis_nodes g step.Path_ast.axis bases in
            let matching = IntSet.filter (test_matches g step.Path_ast.test) on_axis in
            let keep =
              List.filter
                (fun pr -> not (always_holds g matching pr))
                step.Path_ast.predicates
            in
            (* [matching] over-approximates the nodes reaching the next
               step (predicates only shrink it), which keeps the
               for-all checks there sound *)
            (matching, ({ step with Path_ast.predicates = keep }, desc_flag) :: acc))
          (IntSet.singleton (G.root g), [])
          p.Path_ast.steps
      in
      { p with Path_ast.steps = List.rev rev_steps }
    with
    | folded -> folded
    | exception Unsupported -> p
