type t =
  | Builtin of Builtin.t
  | Restriction of restriction
  | List of list_type
  | Union of union_type

and restriction = { name : string option; base : t; facets : Facet.t list }
and list_type = { list_name : string option; item : t }
and union_type = { union_name : string option; members : t list }

let builtin b = Builtin b
let string_type = Builtin (Builtin.Primitive Builtin.P_string)
let boolean = Builtin (Builtin.Primitive Builtin.P_boolean)
let decimal = Builtin (Builtin.Primitive Builtin.P_decimal)
let integer = Builtin Builtin.Integer
let untyped_atomic = Builtin Builtin.Untyped_atomic

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec primitive_of = function
  | Builtin b -> Builtin.primitive_base b
  | Restriction r -> primitive_of r.base
  | List _ | Union _ -> None

let rec is_list_type = function
  | Builtin b -> Builtin.is_list b
  | Restriction r -> is_list_type r.base
  | List _ -> true
  | Union _ -> false

let rec is_atomic = function
  | Builtin b -> (not (Builtin.is_list b)) && Builtin.is_simple b
  | Restriction r -> is_atomic r.base
  | List _ -> false
  | Union _ -> false

let digit_facet = function
  | Facet.Total_digits _ | Facet.Fraction_digits _ -> true
  | _ -> false

let bound_facet = function
  | Facet.Max_inclusive _ | Facet.Max_exclusive _ | Facet.Min_inclusive _
  | Facet.Min_exclusive _ ->
    true
  | _ -> false

let restrict ?name base facets =
  match base with
  | Builtin Builtin.Any_type -> err "cannot restrict xs:anyType into a simple type"
  | _ ->
    let decimal_based =
      match primitive_of base with Some Builtin.P_decimal -> true | None -> false | Some _ -> false
    in
    let bad =
      List.find_opt
        (fun f ->
          (digit_facet f && not decimal_based)
          || (bound_facet f && is_list_type base))
        facets
    in
    (match bad with
    | Some f -> err "facet %s is not applicable to this base type" (Facet.facet_name f)
    | None -> Ok (Restriction { name; base; facets }))

let list_of ?name item =
  if is_atomic item || match item with Union _ -> true | _ -> false then
    Ok (List { list_name = name; item })
  else err "list item type must be atomic or a union"

let union_of ?name members =
  if members = [] then err "union requires at least one member type"
  else Ok (Union { union_name = name; members })

let type_name = function
  | Builtin b -> Some (Builtin.name b)
  | Restriction { name; _ } -> name
  | List { list_name; _ } -> list_name
  | Union { union_name; _ } -> union_name

let rec derives_from t ancestor =
  let structural_eq a b =
    match a, b with
    | Builtin x, Builtin y -> x = y
    | _ -> a == b
  in
  structural_eq t ancestor
  ||
  match t with
  | Builtin b -> (
    match ancestor with
    | Builtin a -> Builtin.derives_from b a
    | _ -> false)
  | Restriction r -> derives_from r.base ancestor
  | List _ | Union _ -> (
    match ancestor with
    | Builtin (Builtin.Any_simple_type | Builtin.Any_type) -> true
    | _ -> false)

let rec whitespace = function
  | Builtin b -> Builtin.whitespace b
  | Restriction r -> (
    let declared =
      List.find_map
        (function Facet.White_space w -> Some w | _ -> None)
        r.facets
    in
    match declared with Some w -> w | None -> whitespace r.base)
  | List _ | Union _ -> Builtin.Collapse

(* Validation runs the derivation chain: find the primitive parse at
   the root, then apply facets from the innermost restriction outward
   (order does not matter for conjunction of constraints). *)
let rec validate ty lexical =
  let normalized = Builtin.normalize_whitespace (whitespace ty) lexical in
  validate_normalized ty normalized

and validate_normalized ty normalized =
  match ty with
  | Builtin b -> Builtin.validate b normalized
  | Restriction r -> (
    match validate_normalized r.base normalized with
    | Error e -> Error e
    | Ok values ->
      let rec apply = function
        | [] -> Ok values
        | f :: rest -> (
          match Facet.check f ~lexical:normalized ~values with
          | Ok () -> apply rest
          | Error e -> Error e)
      in
      apply r.facets)
  | List l ->
    let items = List.filter (fun s -> s <> "") (String.split_on_char ' ' normalized) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match validate_normalized l.item item with
        | Ok [ v ] -> go (v :: acc) rest
        | Ok _ -> err "list item %S produced multiple values" item
        | Error e -> Error e)
    in
    go [] items
  | Union u ->
    let rec try_members = function
      | [] -> err "value %S matches no member of the union" normalized
      | m :: rest -> (
        (* each member applies its own whitespace handling *)
        match validate m normalized with
        | Ok v -> Ok v
        | Error _ -> try_members rest)
    in
    try_members u.members

let validate_atomic ty lexical =
  match validate ty lexical with
  | Ok [ v ] -> Ok v
  | Ok vs -> err "expected one atomic value, got %d" (List.length vs)
  | Error e -> Error e

let is_valid ty lexical = Result.is_ok (validate ty lexical)
