type primitive =
  | P_string
  | P_boolean
  | P_decimal
  | P_float
  | P_double
  | P_duration
  | P_date_time
  | P_time
  | P_date
  | P_g_year_month
  | P_g_year
  | P_g_month_day
  | P_g_day
  | P_g_month
  | P_hex_binary
  | P_base64_binary
  | P_any_uri
  | P_qname
  | P_notation

type t =
  | Any_type
  | Any_simple_type
  | Any_atomic_type
  | Untyped_atomic
  | Primitive of primitive
  | Normalized_string
  | Token
  | Language
  | Nmtoken
  | Name
  | Ncname
  | Id
  | Idref
  | Entity
  | Integer
  | Non_positive_integer
  | Negative_integer
  | Long
  | Int
  | Short
  | Byte
  | Non_negative_integer
  | Unsigned_long
  | Unsigned_int
  | Unsigned_short
  | Unsigned_byte
  | Positive_integer
  | Nmtokens
  | Idrefs
  | Entities

type whitespace = Preserve | Replace | Collapse

let primitives =
  [ P_string; P_boolean; P_decimal; P_float; P_double; P_duration; P_date_time; P_time;
    P_date; P_g_year_month; P_g_year; P_g_month_day; P_g_day; P_g_month; P_hex_binary;
    P_base64_binary; P_any_uri; P_qname; P_notation ]

let all =
  [ Any_type; Any_simple_type; Any_atomic_type; Untyped_atomic ]
  @ List.map (fun p -> Primitive p) primitives
  @ [ Normalized_string; Token; Language; Nmtoken; Name; Ncname; Id; Idref; Entity;
      Integer; Non_positive_integer; Negative_integer; Long; Int; Short; Byte;
      Non_negative_integer; Unsigned_long; Unsigned_int; Unsigned_short; Unsigned_byte;
      Positive_integer; Nmtokens; Idrefs; Entities ]

let primitive_name = function
  | P_string -> "string"
  | P_boolean -> "boolean"
  | P_decimal -> "decimal"
  | P_float -> "float"
  | P_double -> "double"
  | P_duration -> "duration"
  | P_date_time -> "dateTime"
  | P_time -> "time"
  | P_date -> "date"
  | P_g_year_month -> "gYearMonth"
  | P_g_year -> "gYear"
  | P_g_month_day -> "gMonthDay"
  | P_g_day -> "gDay"
  | P_g_month -> "gMonth"
  | P_hex_binary -> "hexBinary"
  | P_base64_binary -> "base64Binary"
  | P_any_uri -> "anyURI"
  | P_qname -> "QName"
  | P_notation -> "NOTATION"

let name = function
  | Any_type -> "anyType"
  | Any_simple_type -> "anySimpleType"
  | Any_atomic_type -> "anyAtomicType"
  | Untyped_atomic -> "untypedAtomic"
  | Primitive p -> primitive_name p
  | Normalized_string -> "normalizedString"
  | Token -> "token"
  | Language -> "language"
  | Nmtoken -> "NMTOKEN"
  | Name -> "Name"
  | Ncname -> "NCName"
  | Id -> "ID"
  | Idref -> "IDREF"
  | Entity -> "ENTITY"
  | Integer -> "integer"
  | Non_positive_integer -> "nonPositiveInteger"
  | Negative_integer -> "negativeInteger"
  | Long -> "long"
  | Int -> "int"
  | Short -> "short"
  | Byte -> "byte"
  | Non_negative_integer -> "nonNegativeInteger"
  | Unsigned_long -> "unsignedLong"
  | Unsigned_int -> "unsignedInt"
  | Unsigned_short -> "unsignedShort"
  | Unsigned_byte -> "unsignedByte"
  | Positive_integer -> "positiveInteger"
  | Nmtokens -> "NMTOKENS"
  | Idrefs -> "IDREFS"
  | Entities -> "ENTITIES"

let by_name = List.map (fun t -> (name t, t)) all

let of_name s =
  let local =
    match String.index_opt s ':' with
    | Some i -> (
      match String.sub s 0 i with
      | "xs" | "xsd" | "xdt" -> Some (String.sub s (i + 1) (String.length s - i - 1))
      | _ -> None)
    | None -> Some s
  in
  Option.bind local (fun l -> List.assoc_opt l by_name)

let base = function
  | Any_type -> None
  | Any_simple_type -> Some Any_type
  | Any_atomic_type -> Some Any_simple_type
  | Untyped_atomic -> Some Any_atomic_type
  | Primitive _ -> Some Any_atomic_type
  | Normalized_string -> Some (Primitive P_string)
  | Token -> Some Normalized_string
  | Language -> Some Token
  | Nmtoken -> Some Token
  | Name -> Some Token
  | Ncname -> Some Name
  | Id -> Some Ncname
  | Idref -> Some Ncname
  | Entity -> Some Ncname
  | Integer -> Some (Primitive P_decimal)
  | Non_positive_integer -> Some Integer
  | Negative_integer -> Some Non_positive_integer
  | Long -> Some Integer
  | Int -> Some Long
  | Short -> Some Int
  | Byte -> Some Short
  | Non_negative_integer -> Some Integer
  | Unsigned_long -> Some Non_negative_integer
  | Unsigned_int -> Some Unsigned_long
  | Unsigned_short -> Some Unsigned_int
  | Unsigned_byte -> Some Unsigned_short
  | Positive_integer -> Some Non_negative_integer
  | Nmtokens -> Some Any_simple_type
  | Idrefs -> Some Any_simple_type
  | Entities -> Some Any_simple_type

let rec derives_from t ancestor =
  t = ancestor || match base t with None -> false | Some b -> derives_from b ancestor

let whitespace = function
  | Primitive P_string | Any_type | Any_simple_type | Any_atomic_type | Untyped_atomic ->
    Preserve
  | Normalized_string -> Replace
  | Primitive _ | Token | Language | Nmtoken | Name | Ncname | Id | Idref | Entity
  | Integer | Non_positive_integer | Negative_integer | Long | Int | Short | Byte
  | Non_negative_integer | Unsigned_long | Unsigned_int | Unsigned_short | Unsigned_byte
  | Positive_integer | Nmtokens | Idrefs | Entities ->
    Collapse

let replace_ws s = String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let collapse_ws s =
  let s = replace_ws s in
  let buf = Buffer.create (String.length s) in
  let pending = ref false and started = ref false in
  String.iter
    (fun c ->
      if c = ' ' then begin
        if !started then pending := true
      end
      else begin
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        started := true;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

let normalize_whitespace ws s =
  match ws with Preserve -> s | Replace -> replace_ws s | Collapse -> collapse_ws s

let is_simple = function Any_type -> false | _ -> true
let is_list = function Nmtokens | Idrefs | Entities -> true | _ -> false

let primitive_base t =
  let rec go t = match t with Primitive p -> Some p | _ -> Option.bind (base t) go in
  match t with
  | Any_type | Any_simple_type | Any_atomic_type | Untyped_atomic | Nmtokens | Idrefs
  | Entities ->
    None
  | _ -> go t

(* ------------------------------------------------------------------ *)
(* Primitive lexical mappings                                          *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_boolean s =
  match s with
  | "true" | "1" -> Ok (Value.Boolean true)
  | "false" | "0" -> Ok (Value.Boolean false)
  | _ -> err "invalid boolean %S" s

let float_pattern_ok s =
  (* optional sign, digits with optional fraction, optional exponent *)
  let n = String.length s in
  if n = 0 then false
  else begin
    let i = ref 0 in
    if s.[0] = '+' || s.[0] = '-' then incr i;
    let digits_from j =
      let k = ref j in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do
        incr k
      done;
      !k
    in
    let after_int = digits_from !i in
    let had_int = after_int > !i in
    let j = ref after_int in
    let had_frac =
      if !j < n && s.[!j] = '.' then begin
        let k = digits_from (!j + 1) in
        let ok = k > !j + 1 in
        j := k;
        ok
      end
      else false
    in
    if (not had_int) && not had_frac then false
    else if !j = n then true
    else if s.[!j] = 'e' || s.[!j] = 'E' then begin
      incr j;
      if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
      let k = digits_from !j in
      k > !j && k = n
    end
    else false
  end

let parse_floating ~single s =
  match s with
  | "INF" -> Ok (if single then Value.Float Float.infinity else Value.Double Float.infinity)
  | "-INF" ->
    Ok (if single then Value.Float Float.neg_infinity else Value.Double Float.neg_infinity)
  | "NaN" -> Ok (if single then Value.Float Float.nan else Value.Double Float.nan)
  | _ ->
    if float_pattern_ok s then begin
      let f = float_of_string s in
      if single then Ok (Value.Float (Int32.float_of_bits (Int32.bits_of_float f)))
      else Ok (Value.Double f)
    end
    else err "invalid floating-point literal %S" s

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse_hex_binary s =
  let n = String.length s in
  if n mod 2 <> 0 then err "hexBinary %S has odd length" s
  else begin
    let buf = Buffer.create (n / 2) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      match hex_value s.[!i], hex_value s.[!i + 1] with
      | Some hi, Some lo ->
        Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
        i := !i + 2
      | _ -> ok := false
    done;
    if !ok then Ok (Value.Hex_binary (Buffer.contents buf)) else err "invalid hexBinary %S" s
  end

let base64_value c =
  match c with
  | 'A' .. 'Z' -> Some (Char.code c - Char.code 'A')
  | 'a' .. 'z' -> Some (Char.code c - Char.code 'a' + 26)
  | '0' .. '9' -> Some (Char.code c - Char.code '0' + 52)
  | '+' -> Some 62
  | '/' -> Some 63
  | _ -> None

let parse_base64_binary s =
  (* the lexical space allows single spaces between groups; collapse removed
     the outer ones, remove the rest *)
  let compact = String.concat "" (String.split_on_char ' ' s) in
  let n = String.length compact in
  if n mod 4 <> 0 then err "base64Binary %S has length not divisible by 4" s
  else if n = 0 then Ok (Value.Base64_binary "")
  else begin
    let padding =
      if compact.[n - 2] = '=' && compact.[n - 1] = '=' then 2
      else if compact.[n - 1] = '=' then 1
      else 0
    in
    let buf = Buffer.create (n / 4 * 3) in
    let ok = ref true in
    let quantum = ref 0 and bits = ref 0 in
    String.iteri
      (fun i c ->
        if !ok then
          match c with
          | '=' -> if i < n - padding then ok := false
          | c -> (
            match base64_value c with
            | None -> ok := false
            | Some v ->
              quantum := (!quantum lsl 6) lor v;
              bits := !bits + 6;
              if !bits >= 8 then begin
                bits := !bits - 8;
                Buffer.add_char buf (Char.chr ((!quantum lsr !bits) land 0xFF))
              end))
      compact;
    if !ok then Ok (Value.Base64_binary (Buffer.contents buf))
    else err "invalid base64Binary %S" s
  end

let lift f inj s = match f s with Ok v -> Ok (inj v) | Error e -> Error e

let parse_primitive p s =
  match p with
  | P_string -> Ok (Value.String s)
  | P_boolean -> parse_boolean s
  | P_decimal -> lift Decimal.of_string (fun d -> Value.Decimal d) s
  | P_float -> parse_floating ~single:true s
  | P_double -> parse_floating ~single:false s
  | P_duration -> lift Calendar.parse_duration (fun d -> Value.Duration d) s
  | P_date_time -> lift Calendar.parse_date_time (fun d -> Value.Date_time d) s
  | P_time -> lift Calendar.parse_time (fun d -> Value.Time d) s
  | P_date -> lift Calendar.parse_date (fun d -> Value.Date d) s
  | P_g_year_month -> lift Calendar.parse_g_year_month (fun d -> Value.G_year_month d) s
  | P_g_year -> lift Calendar.parse_g_year (fun d -> Value.G_year d) s
  | P_g_month_day -> lift Calendar.parse_g_month_day (fun d -> Value.G_month_day d) s
  | P_g_day -> lift Calendar.parse_g_day (fun d -> Value.G_day d) s
  | P_g_month -> lift Calendar.parse_g_month (fun d -> Value.G_month d) s
  | P_hex_binary -> parse_hex_binary s
  | P_base64_binary -> parse_base64_binary s
  | P_any_uri ->
    (* XSD's anyURI lexical space is extremely loose; reject only
       characters that can never appear (space already collapsed away
       inside is allowed by RFC 2396 after escaping, so accept). *)
    Ok (Value.Any_uri s)
  | P_qname -> lift Xsm_xml.Name.of_string (fun n -> Value.Qname n) s
  | P_notation -> lift Xsm_xml.Name.of_string (fun n -> Value.Notation n) s

(* ------------------------------------------------------------------ *)
(* Derived-type checks                                                 *)

let is_nmtoken_char c =
  Xsm_xml.Name.is_ncname (String.make 1 c) || c = ':' || c = '-' || c = '.' || (c >= '0' && c <= '9')

let check_language s =
  (* [a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})* *)
  let parts = String.split_on_char '-' s in
  let alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let alnum c = alpha c || (c >= '0' && c <= '9') in
  match parts with
  | [] -> false
  | first :: rest ->
    String.length first >= 1
    && String.length first <= 8
    && String.for_all alpha first
    && List.for_all
         (fun p -> String.length p >= 1 && String.length p <= 8 && String.for_all alnum p)
         rest

let check_name s =
  String.length s > 0
  &&
  let valid_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' || Char.code c >= 0x80
  in
  valid_start s.[0] && String.for_all is_nmtoken_char s

let decimal_in_range d ~lo ~hi =
  (match lo with
  | Some l -> Decimal.compare d (Decimal.of_string_exn l) >= 0
  | None -> true)
  && match hi with
     | Some h -> Decimal.compare d (Decimal.of_string_exn h) <= 0
     | None -> true

let integer_range = function
  | Integer -> (None, None)
  | Non_positive_integer -> (None, Some "0")
  | Negative_integer -> (None, Some "-1")
  | Long -> (Some "-9223372036854775808", Some "9223372036854775807")
  | Int -> (Some "-2147483648", Some "2147483647")
  | Short -> (Some "-32768", Some "32767")
  | Byte -> (Some "-128", Some "127")
  | Non_negative_integer -> (Some "0", None)
  | Unsigned_long -> (Some "0", Some "18446744073709551615")
  | Unsigned_int -> (Some "0", Some "4294967295")
  | Unsigned_short -> (Some "0", Some "65535")
  | Unsigned_byte -> (Some "0", Some "255")
  | Positive_integer -> (Some "1", None)
  | _ -> invalid_arg "integer_range"

let validate_integer_family t s =
  (* integers do not allow a '.' in the lexical form *)
  if String.contains s '.' then err "%S is not a valid %s (decimal point)" s (name t)
  else
    match Decimal.of_string s with
    | Error e -> Error e
    | Ok d ->
      let lo, hi = integer_range t in
      if decimal_in_range d ~lo ~hi then Ok (Value.Decimal d)
      else err "%S out of range for %s" s (name t)

let validate_string_family t s =
  let ok_value () = Ok (Value.String s) in
  match t with
  | Normalized_string | Token -> ok_value ()
  | Language ->
    if check_language s then ok_value () else err "%S is not a language tag" s
  | Nmtoken ->
    if String.length s > 0 && String.for_all is_nmtoken_char s then ok_value ()
    else err "%S is not an NMTOKEN" s
  | Name -> if check_name s then ok_value () else err "%S is not a Name" s
  | Ncname | Id | Idref | Entity ->
    if Xsm_xml.Name.is_ncname s then ok_value () else err "%S is not an NCName" s
  | _ -> invalid_arg "validate_string_family"

let atomic_of_normalized t s =
  match t with
  | Any_type | Any_simple_type | Any_atomic_type | Untyped_atomic ->
    Ok (Value.Untyped_atomic s)
  | Primitive p -> parse_primitive p s
  | Normalized_string | Token | Language | Nmtoken | Name | Ncname | Id | Idref | Entity ->
    validate_string_family t s
  | Integer | Non_positive_integer | Negative_integer | Long | Int | Short | Byte
  | Non_negative_integer | Unsigned_long | Unsigned_int | Unsigned_short | Unsigned_byte
  | Positive_integer ->
    validate_integer_family t s
  | Nmtokens | Idrefs | Entities -> invalid_arg "atomic_of_normalized: list type"

let list_item_type = function
  | Nmtokens -> Nmtoken
  | Idrefs -> Idref
  | Entities -> Entity
  | _ -> invalid_arg "list_item_type"

let validate t s =
  let normalized = normalize_whitespace (whitespace t) s in
  if is_list t then begin
    let items =
      List.filter (fun x -> x <> "") (String.split_on_char ' ' normalized)
    in
    if items = [] then err "%s requires at least one item" (name t)
    else begin
      let item_t = list_item_type t in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
          match atomic_of_normalized item_t x with
          | Ok v -> go (v :: acc) rest
          | Error e -> Error e)
      in
      go [] items
    end
  end
  else
    match atomic_of_normalized t normalized with Ok v -> Ok [ v ] | Error e -> Error e

let validate_atomic t s =
  match validate t s with
  | Ok [ v ] -> Ok v
  | Ok _ -> err "expected a single atomic value for %s" (name t)
  | Error e -> Error e
