module Tree = Xsm_xml.Tree
module Simple_type = Xsm_datatypes.Simple_type
module Builtin = Xsm_datatypes.Builtin
module Facet = Xsm_datatypes.Facet
module Value = Xsm_datatypes.Value

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (seed lxor 0x2545F491) }

let next r =
  (* 64-bit LCG (Knuth MMIX constants) *)
  r.state <- Int64.add (Int64.mul r.state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical r.state 17) land max_int

let int r bound = if bound <= 0 then 0 else next r mod bound

let pick r xs = List.nth xs (int r (List.length xs))

(* ------------------------------------------------------------------ *)
(* Sample values per type                                              *)

let sample_primitive r (p : Builtin.primitive) =
  match p with
  | Builtin.P_string -> pick r [ "alpha"; "bravo"; "charlie delta"; "echo"; "" ]
  | Builtin.P_boolean -> pick r [ "true"; "false"; "1"; "0" ]
  | Builtin.P_decimal -> pick r [ "0"; "-12.5"; "3.14159"; "42"; "100000.001" ]
  | Builtin.P_float | Builtin.P_double ->
    pick r [ "0.0"; "-1.5E2"; "3.25"; "INF"; "12e3" ]
  | Builtin.P_duration -> pick r [ "P1Y"; "P3M"; "PT36H"; "-P2DT1M"; "P1Y2M3DT4H5M6S" ]
  | Builtin.P_date_time ->
    pick r
      [ "2004-10-28T09:00:00Z"; "1999-12-31T23:59:59"; "2005-01-01T00:00:00.5+02:00" ]
  | Builtin.P_time -> pick r [ "09:30:00"; "23:59:59.9Z"; "12:00:00-05:00" ]
  | Builtin.P_date -> pick r [ "2004-10-28"; "1969-07-20Z"; "2005-01-01+01:00" ]
  | Builtin.P_g_year_month -> pick r [ "2004-10"; "1999-01Z" ]
  | Builtin.P_g_year -> pick r [ "2004"; "1776"; "1999Z" ]
  | Builtin.P_g_month_day -> pick r [ "--10-28"; "--02-29" ]
  | Builtin.P_g_day -> pick r [ "---01"; "---28" ]
  | Builtin.P_g_month -> pick r [ "--10"; "--01" ]
  | Builtin.P_hex_binary -> pick r [ "DEADBEEF"; "00"; "CAFE" ]
  | Builtin.P_base64_binary -> pick r [ "aGVsbG8="; "AA=="; "c2VkbmE=" ]
  | Builtin.P_any_uri -> pick r [ "http://www.books.org"; "urn:isbn:0-13-0"; "a/b#c" ]
  | Builtin.P_qname -> pick r [ "xs:string"; "Book"; "lib:item" ]
  | Builtin.P_notation -> "note"

let sample_builtin r (b : Builtin.t) =
  match b with
  | Builtin.Primitive p -> sample_primitive r p
  | Builtin.Any_type | Builtin.Any_simple_type | Builtin.Any_atomic_type
  | Builtin.Untyped_atomic ->
    pick r [ "anything"; "at all" ]
  | Builtin.Normalized_string -> "no tabs here"
  | Builtin.Token -> "single spaced token"
  | Builtin.Language -> pick r [ "en"; "en-US"; "ru"; "de-CH-1996" ]
  | Builtin.Nmtoken -> pick r [ "tok-1"; "a.b.c"; "x" ]
  | Builtin.Name -> pick r [ "elem"; "ns:elem"; "_x" ]
  | Builtin.Ncname | Builtin.Id | Builtin.Idref | Builtin.Entity ->
    pick r [ "n1"; "local-name"; "_under" ]
  | Builtin.Integer -> pick r [ "0"; "-7"; "123456789" ]
  | Builtin.Non_positive_integer -> pick r [ "0"; "-42" ]
  | Builtin.Negative_integer -> pick r [ "-1"; "-999" ]
  | Builtin.Long -> pick r [ "0"; "-9223372036854775808"; "42" ]
  | Builtin.Int -> pick r [ "2147483647"; "-1"; "7" ]
  | Builtin.Short -> pick r [ "32767"; "-32768"; "5" ]
  | Builtin.Byte -> pick r [ "127"; "-128"; "3" ]
  | Builtin.Non_negative_integer -> pick r [ "0"; "77" ]
  | Builtin.Unsigned_long -> pick r [ "18446744073709551615"; "12" ]
  | Builtin.Unsigned_int -> pick r [ "4294967295"; "8" ]
  | Builtin.Unsigned_short -> pick r [ "65535"; "9" ]
  | Builtin.Unsigned_byte -> pick r [ "255"; "0" ]
  | Builtin.Positive_integer -> pick r [ "1"; "1000" ]
  | Builtin.Nmtokens -> "one two three"
  | Builtin.Idrefs -> "r1 r2"
  | Builtin.Entities -> "e1"

let rec sample_value r (st : Simple_type.t) =
  match st with
  | Simple_type.Builtin b -> sample_builtin r b
  | Simple_type.Restriction { base; facets; _ } -> (
    let enum =
      List.find_map (function Facet.Enumeration vs -> Some vs | _ -> None) facets
    in
    match enum with
    | Some (_ :: _ as vs) -> Value.canonical_string (pick r vs)
    | Some [] | None ->
      (* respect integer bounds if present, otherwise sample the base
         until a facet-valid value appears (bounded attempts) *)
      let candidate () = sample_value r base in
      let rec attempt k =
        let v = candidate () in
        if k = 0 || Simple_type.is_valid st v then v else attempt (k - 1)
      in
      attempt 16)
  | Simple_type.List { item; _ } ->
    String.concat " " (List.init (1 + int r 3) (fun _ -> sample_value r item))
  | Simple_type.Union { members; _ } -> sample_value r (pick r members)

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)

let draw_count r (rep : Ast.repetition) ~max_repeat ~minimal =
  if minimal then rep.Ast.min_occurs
  else
    let lo = rep.Ast.min_occurs in
    let hi =
      match rep.Ast.max_occurs with
      | Some m -> min m (lo + max_repeat)
      | None -> lo + max_repeat
    in
    lo + int r (hi - lo + 1)

let instance ?(max_repeat = 3) ?(depth_budget = 12) r (schema : Ast.schema) =
  let rec element_tree depth (e : Compiled.element) =
    let minimal = depth <= 0 in
    let ty = e.ty in
    let with_text elements = if ty.mixed && not minimal then interleave_text elements else elements in
    let children =
      match ty.content with
      | Compiled.Unresolved _ | Compiled.Bad_base _ -> []
      | Compiled.Simple st -> [ Tree.Text (sample_value r st) ]
      | Compiled.Empty _ -> with_text []
      | Compiled.Model { group; _ } -> with_text (group_children (depth - 1) ~minimal group)
    in
    let attributes = attribute_values ty.attributes in
    Tree.Element { Tree.name = e.decl.Ast.elem_name; attributes; children }
  and attribute_values decls =
    List.map
      (fun (d : Compiled.attribute) ->
        let value = match d.attr_simple with Ok st -> sample_value r st | Error _ -> "" in
        { Tree.name = d.attr.Ast.attr_name; value })
      decls
  and group_children depth ~minimal (g : Compiled.group) =
    let copies = draw_count r g.def.Ast.group_repetition ~max_repeat ~minimal in
    List.concat
      (List.init copies (fun _ ->
           match g.def.Ast.combination with
           | Ast.Sequence ->
             List.concat_map (particle_children depth ~minimal) g.particles
           | Ast.Choice -> (
             match g.particles with
             | [] -> []
             | ps -> particle_children depth ~minimal (pick r ps))
           | Ast.All ->
             (* each particle 0/1 times, in a shuffled order *)
             let parts = List.concat_map (particle_children depth ~minimal) g.particles in
             let tagged = List.map (fun p -> (int r 1000, p)) parts in
             List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged)))
  and particle_children depth ~minimal = function
    | Compiled.Element e ->
      let copies = draw_count r e.decl.Ast.repetition ~max_repeat ~minimal in
      List.init copies (fun _ -> element_tree depth e)
    | Compiled.Group g -> group_children depth ~minimal g
  and interleave_text elements =
    List.concat_map
      (fun e -> [ Tree.Text (pick r [ " see also "; " note "; " -- " ]); e ])
      elements
    @ [ Tree.Text " end." ]
  in
  match element_tree depth_budget (Compiled.root (Compiled.make schema)) with
  | Tree.Element e -> Tree.document e
  | Tree.Text _ | Tree.Cdata _ | Tree.Comment _ | Tree.Pi _ -> assert false

(* ------------------------------------------------------------------ *)
(* Random schemas                                                      *)

let leaf_types =
  [ "xs:string"; "xs:integer"; "xs:boolean"; "xs:decimal"; "xs:date"; "xs:NMTOKEN" ]

(* Nested repetition can produce content models that genuinely violate
   UPA (e.g. (e{0,2}){1,3}), so generation retries until the schema
   passes the checker. *)
let rec random_schema ?(max_depth = 4) ?(fanout = 4) r =
  let candidate = random_schema_once ~max_depth ~fanout r in
  match Schema_check.check candidate with
  | Ok () -> candidate
  | Error _ -> random_schema ~max_depth ~fanout r

and random_schema_once ~max_depth ~fanout r =
  let counter = ref 0 in
  let fresh_name prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let random_rep () =
    match int r 5 with
    | 0 -> Ast.once
    | 1 -> Ast.optional
    | 2 -> Ast.many
    | 3 -> Ast.repeat 1 None
    | _ -> Ast.repeat (int r 2) (Some (1 + int r 3))
  in
  let rec random_group depth =
    let n = 1 + int r fanout in
    let particles =
      List.init n (fun _ ->
          if depth > 0 && int r 4 = 0 then Ast.group_p (random_group (depth - 1))
          else Ast.elem_p (random_element (depth - 1)))
    in
    if int r 2 = 0 then Ast.sequence ~repetition:(random_rep ()) particles
    else Ast.choice ~repetition:(random_rep ()) particles
  and random_element depth =
    let name = fresh_name "e" in
    if depth <= 0 || int r 3 = 0 then
      Ast.element ~repetition:(random_rep ()) name (Ast.named_type (pick r leaf_types))
    else
      Ast.element ~repetition:(random_rep ()) name
        (Ast.Anonymous
           (Ast.complex
              ~attributes:
                (if int r 2 = 0 then [ Ast.attribute (fresh_name "a") "xs:string" ] else [])
              (Some (random_group (depth - 1)))))
  in
  Ast.schema
    (Ast.element "root"
       (Ast.Anonymous (Ast.complex (Some (random_group (max_depth - 1))))))
