type error = { line : int; column : int; offset : int; message : string }

exception Syntax of error

type position = { offset : int; line : int; column : int }

let pp_position ppf p = Format.fprintf ppf "line %d, column %d" p.line p.column

type event =
  | Start_element of Name.t
  | Attr of Name.t * string
  | Text of string
  | Cdata of string
  | End_element of Name.t
  | Pi of string * string
  | Comment of string

type declaration = { version : string; encoding : string option; standalone : bool option }

let no_declaration = { version = "1.0"; encoding = None; standalone = None }

type phase = Prolog | Content | Epilog | Done

(* An interned name: its written bytes, the parsed name, and the two
   element events it can head, built once and shared by every tag. *)
type entry = {
  raw : string;
  name : Name.t;
  start_ev : event option;
  end_ev : event option;
}

type t = {
  refill : bytes -> int -> int -> int;
  buf : Bytes.t;
  mutable len : int;  (* valid bytes in buf *)
  mutable pos : int;  (* cursor within buf *)
  mutable base : int;  (* global offset of buf.[0] *)
  mutable at_eof : bool;  (* refill returned 0 *)
  mutable line : int;
  mutable col : int;
  scratch : Buffer.t;  (* tokens that straddle a refill, and decoded runs *)
  ebuf : Buffer.t;  (* reused entity-body accumulator *)
  mutable names : entry array;  (* intern table, open addressing on the bytes *)
  mutable n_names : int;
  mutable stack : entry list;  (* open elements, innermost first *)
  mutable tag_attrs : entry list;  (* attr names of the current start tag *)
  mutable in_tag : bool;
  mutable phase : phase;
  mutable decl : declaration;
  mutable doctype : bool;  (* a DOCTYPE was skipped *)
  mutable skipped : position option;  (* first markup skipped outside the root *)
  mutable ev_offset : int;
  mutable ev_line : int;
  mutable ev_col : int;
}

(* enough lookahead for the longest fixed token ("<![CDATA[", "<!DOCTYPE") *)
let min_chunk = 16

(* the empty slot of the intern table; no name is written "" *)
let no_entry = { raw = ""; name = Name.local ""; start_ev = None; end_ev = None }

let of_function ?(chunk_size = 65536) refill =
  (* XML 1.0 §2.11 end-of-line normalization, applied to the raw byte
     stream before the lexer sees a single character, so character
     data, attribute values and line counting all work on the one
     canonical form ("\r\n" and lone "\r" become "\n").  The
     [pending_cr] carry handles a "\r\n" pair split across two refill
     chunks.  Rewriting is in place: normalization never lengthens the
     chunk, and a chunk without a '\r' is left as it came.  Positions
     then refer to the normalized stream, where every line break is
     exactly one byte. *)
  let pending_cr = ref false in
  let rec norm_refill b off len =
    let raw = refill b off len in
    if raw = 0 then 0
    else begin
      let stop = off + raw in
      let w = ref off in
      let i = ref off in
      if !pending_cr then begin
        (* the carried '\r' already went out as '\n'; swallow its '\n' *)
        pending_cr := false;
        if Bytes.get b off = '\n' then incr i
      end;
      (* bytes before the first '\r' stay where they are *)
      if !i = off then begin
        while !i < stop && Bytes.unsafe_get b !i <> '\r' do
          incr i
        done;
        w := !i
      end;
      while !i < stop do
        (match Bytes.get b !i with
        | '\r' ->
          Bytes.set b !w '\n';
          incr w;
          if !i + 1 < stop then begin
            if Bytes.get b (!i + 1) = '\n' then incr i
          end
          else pending_cr := true
        | c ->
          Bytes.set b !w c;
          incr w);
        incr i
      done;
      (* a chunk can normalize away entirely (a lone '\n' after a
         carried '\r'); 0 would mean end of input, so read again *)
      if !w = off then norm_refill b off len else !w - off
    end
  in
  {
    refill = norm_refill;
    buf = Bytes.create (max min_chunk chunk_size);
    len = 0;
    pos = 0;
    base = 0;
    at_eof = false;
    line = 1;
    col = 1;
    scratch = Buffer.create 256;
    ebuf = Buffer.create 16;
    names = Array.make 64 no_entry;
    n_names = 0;
    stack = [];
    tag_attrs = [];
    in_tag = false;
    phase = Prolog;
    decl = no_declaration;
    doctype = false;
    skipped = None;
    ev_offset = 0;
    ev_line = 1;
    ev_col = 1;
  }

let of_channel ?chunk_size ic = of_function ?chunk_size (input ic)

let of_string s =
  let sent = ref 0 in
  of_function ~chunk_size:(String.length s) (fun b off len ->
      let n = min len (String.length s - !sent) in
      Bytes.blit_string s !sent b off n;
      sent := !sent + n;
      n)

let cur_offset t = t.base + t.pos
let position t = { offset = cur_offset t; line = t.line; column = t.col }
let event_position t = { offset = t.ev_offset; line = t.ev_line; column = t.ev_col }
let depth t = List.length t.stack
let declaration t = t.decl
let skipped_markup t = t.skipped

let fail t fmt =
  Printf.ksprintf
    (fun message -> raise (Syntax { line = t.line; column = t.col; offset = cur_offset t; message }))
    fmt

(* Make at least [n] bytes available past the cursor (or hit end of
   input), compacting the unread tail to the buffer start first.
   [n] must not exceed the buffer: a full buffer refills with room 0,
   which reads as end of input. *)
let ensure t n =
  if t.pos + n > t.len && not t.at_eof then begin
    let rem = t.len - t.pos in
    Bytes.blit t.buf t.pos t.buf 0 rem;
    t.base <- t.base + t.pos;
    t.pos <- 0;
    t.len <- rem;
    while t.len < n && not t.at_eof do
      let r = t.refill t.buf t.len (Bytes.length t.buf - t.len) in
      if r = 0 then t.at_eof <- true else t.len <- t.len + r
    done
  end

let at_end t =
  ensure t 1;
  t.pos >= t.len

let peek t = if at_end t then '\255' else Bytes.get t.buf t.pos

let advance t =
  let c = Bytes.get t.buf t.pos in
  t.pos <- t.pos + 1;
  if c = '\n' then begin
    t.line <- t.line + 1;
    t.col <- 1
  end
  else t.col <- t.col + 1

(* Move the cursor to [i] (within the buffer), accounting the lines
   and columns of the span once. *)
let advance_to t i =
  let nl = ref 0 and last = ref 0 in
  for j = t.pos to i - 1 do
    if Bytes.unsafe_get t.buf j = '\n' then begin
      incr nl;
      last := j
    end
  done;
  if !nl = 0 then t.col <- t.col + (i - t.pos)
  else begin
    t.line <- t.line + !nl;
    t.col <- i - !last
  end;
  t.pos <- i

(* [s] at [p] in [b], all of it before [stop] *)
let bytes_match b p stop s =
  let n = String.length s in
  p + n <= stop
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (p + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

let looking_at t s =
  ensure t (String.length s);
  bytes_match t.buf t.pos t.len s

(* skip [n] buffered bytes that hold no line break: a fixed token just
   matched by [looking_at], or a name *)
let skip_known t n =
  t.pos <- t.pos + n;
  t.col <- t.col + n

let expect t c =
  if peek t = c then advance t else fail t "expected %C, found %C" c (peek t)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space t =
  while
    (not (at_end t))
    &&
    let i = ref t.pos in
    while !i < t.len && is_space (Bytes.unsafe_get t.buf !i) do
      incr i
    done;
    advance_to t !i;
    !i = t.len
  do
    ()
  done

let mark_event t =
  t.ev_offset <- cur_offset t;
  t.ev_line <- t.line;
  t.ev_col <- t.col

(* The bytes that end a name.  0xFF is among them, as the byte [peek]
   returns at end of input: a name stops there whether the input ends
   or not, so errors name the same bytes on every route. *)
let name_stops =
  String.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '\t' | '\n' | '\r' | '>' | '/' | '=' | '?' | '\255' -> '\001'
      | _ -> '\000')

(* the first name-ending byte of [b] in [i, stop), or [stop] *)
let scan_name b i stop =
  let i = ref i in
  while !i < stop && String.unsafe_get name_stops (Char.code (Bytes.unsafe_get b !i)) = '\000' do
    incr i
  done;
  !i

let hash_bytes b off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b i)
  done;
  !h land max_int

let grow_names t =
  let old = t.names in
  let names = Array.make (2 * Array.length old) no_entry in
  let mask = Array.length names - 1 in
  Array.iter
    (fun e ->
      if e != no_entry then begin
        let b = Bytes.unsafe_of_string e.raw in
        let i = ref (hash_bytes b 0 (Bytes.length b) land mask) in
        while names.(!i) != no_entry do
          i := (!i + 1) land mask
        done;
        names.(!i) <- e
      end)
    old;
  t.names <- names

(* The entry for the name written in [b] at [off, off+len): a probe
   keyed on the bytes, which allocates only the first time a name is
   seen.  A malformed name fails at the cursor, just past it. *)
let intern t b off len =
  let names = t.names in
  let mask = Array.length names - 1 in
  let i = ref (hash_bytes b off len land mask) in
  while
    let e = Array.unsafe_get names !i in
    e != no_entry && not (String.length e.raw = len && bytes_match b off (off + len) e.raw)
  do
    i := (!i + 1) land mask
  done;
  let e = Array.unsafe_get names !i in
  if e != no_entry then e
  else
    let raw = Bytes.sub_string b off len in
    match Name.of_string raw with
    | Error e -> fail t "%s" e
    | Ok name ->
      let e = { raw; name; start_ev = Some (Start_element name); end_ev = Some (End_element name) } in
      names.(!i) <- e;
      t.n_names <- t.n_names + 1;
      if 2 * t.n_names > Array.length names then grow_names t;
      e

let lex_name t =
  let p0 = t.pos in
  let i = scan_name t.buf p0 t.len in
  skip_known t (i - p0);
  if i < t.len || t.at_eof then intern t t.buf p0 (i - p0)
  else begin
    (* the name runs into the end of the chunk: gather it across refills *)
    Buffer.clear t.scratch;
    Buffer.add_subbytes t.scratch t.buf p0 (i - p0);
    while
      (not (at_end t))
      &&
      let p0 = t.pos in
      let i = scan_name t.buf p0 t.len in
      Buffer.add_subbytes t.scratch t.buf p0 (i - p0);
      skip_known t (i - p0);
      i = t.len
    do
      ()
    done;
    let b = Buffer.to_bytes t.scratch in
    intern t b 0 (Bytes.length b)
  end

(* the body of an entity or character reference, between '&' and ';' *)
let decode_entity body =
  match body with
  | "lt" -> Ok "<"
  | "gt" -> Ok ">"
  | "amp" -> Ok "&"
  | "apos" -> Ok "'"
  | "quot" -> Ok "\""
  | _ ->
    if String.length body > 1 && body.[0] = '#' then begin
      match
        if String.length body > 2 && (body.[1] = 'x' || body.[1] = 'X') then
          int_of_string_opt ("0x" ^ String.sub body 2 (String.length body - 2))
        else int_of_string_opt (String.sub body 1 (String.length body - 1))
      with
      | None -> Error (Printf.sprintf "bad character reference &%s;" body)
      | Some code ->
        if code < 0 || code > 0x10FFFF || not (Uchar.is_valid code) then
          Error "character reference out of range"
        else begin
          let b = Buffer.create 4 in
          Buffer.add_utf_8_uchar b (Uchar.of_int code);
          Ok (Buffer.contents b)
        end
    end
    else Error (Printf.sprintf "unknown entity &%s;" body)

(* decode one &...; reference into [into] (cursor on '&') *)
let lex_reference t into =
  advance t;
  Buffer.clear t.ebuf;
  let fin = ref false in
  while not !fin do
    match peek t with
    | ';' ->
      advance t;
      fin := true
    | '<' | '&' | '\255' -> fail t "unterminated entity reference"
    | c ->
      if Buffer.length t.ebuf > 64 then fail t "unterminated entity reference";
      Buffer.add_char t.ebuf c;
      advance t
  done;
  match decode_entity (Buffer.contents t.ebuf) with
  | Ok s -> Buffer.add_string into s
  | Error e -> fail t "%s" e

let unterminated_element t =
  fail t "unterminated element %s"
    (match t.stack with e :: _ -> Name.to_string e.name | [] -> "?")

(* the first byte of [b] in [i, stop) that is [q], '<' or '&', or [stop] *)
let scan_run b q i stop =
  let i = ref i in
  while
    !i < stop
    &&
    let c = Bytes.unsafe_get b !i in
    c <> q && c <> '<' && c <> '&'
  do
    incr i
  done;
  !i

(* Character data up to the byte [q] (a closing quote, or '<' for a
   text run), with references decoded.  A run that ends inside the
   buffer with no reference is copied once, straight from it; any
   other gathers in scratch.  [q] is left under the cursor; end of
   input, and '<' inside an attribute value, fail. *)
let lex_run t q =
  let p0 = t.pos in
  let i = scan_run t.buf q p0 t.len in
  if i < t.len && Bytes.unsafe_get t.buf i = q then begin
    advance_to t i;
    Bytes.sub_string t.buf p0 (i - p0)
  end
  else begin
    Buffer.clear t.scratch;
    Buffer.add_subbytes t.scratch t.buf p0 (i - p0);
    advance_to t i;
    while
      if at_end t then
        if q = '<' then unterminated_element t else fail t "unterminated attribute value"
      else
        match Bytes.unsafe_get t.buf t.pos with
        | c when c = q -> false
        | '<' -> fail t "'<' not allowed in attribute value"
        | '&' ->
          lex_reference t t.scratch;
          true
        | _ ->
          let p0 = t.pos in
          let i = scan_run t.buf q p0 t.len in
          Buffer.add_subbytes t.scratch t.buf p0 (i - p0);
          advance_to t i;
          true
    do
      ()
    done;
    Buffer.contents t.scratch
  end

let lex_attr_value t =
  let quote = peek t in
  if quote <> '"' && quote <> '\'' then fail t "expected quoted attribute value";
  advance t;
  let v = lex_run t quote in
  advance t;
  v

(* accumulate into scratch until the terminator string [stop] *)
let lex_until t stop what =
  Buffer.clear t.scratch;
  let c0 = stop.[0] in
  let fin = ref false in
  while not !fin do
    (* bytes that cannot start [stop] go over as one span *)
    let p0 = t.pos in
    let i = ref p0 in
    while !i < t.len && Bytes.unsafe_get t.buf !i <> c0 do
      incr i
    done;
    Buffer.add_subbytes t.scratch t.buf p0 (!i - p0);
    advance_to t !i;
    if looking_at t stop then begin
      skip_known t (String.length stop);
      fin := true
    end
    else if at_end t then fail t "unterminated %s" what
    else begin
      Buffer.add_char t.scratch (peek t);
      advance t
    end
  done;
  Buffer.contents t.scratch

(* cursor on "<?": a target that is a name other than "xml" in any
   case (the declaration at offset 0 goes to [lex_xml_decl] instead) *)
let lex_pi t =
  skip_known t 2;
  if name_stops.[Char.code (peek t)] <> '\000' then fail t "empty processing-instruction target";
  let target = Name.to_string (lex_name t).name in
  if String.lowercase_ascii target = "xml" then
    fail t "reserved processing-instruction target %S" target;
  skip_space t;
  let data = lex_until t "?>" "processing instruction" in
  Pi (target, data)

let mark_skipped t = if t.skipped = None then t.skipped <- Some (position t)

(* a comment or PI outside the root element: no event *)
let skip_misc t =
  mark_skipped t;
  if looking_at t "<!--" then begin
    skip_known t 4;
    ignore (lex_until t "-->" "comment")
  end
  else ignore (lex_pi t)

(* name = "value", the name unique among the current tag's *)
let lex_attr t =
  let e = lex_name t in
  skip_space t;
  expect t '=';
  skip_space t;
  let value = lex_attr_value t in
  (* one entry per written name, and names compare by their bytes *)
  if List.memq e t.tag_attrs then fail t "duplicate attribute %s" (Name.to_string e.name);
  t.tag_attrs <- e :: t.tag_attrs;
  Attr (e.name, value)

(* The declaration's pseudo-attributes, lexed as a start tag's
   attributes are, then "?>".  Cursor on "<?xml" and a space. *)
let lex_xml_decl t =
  mark_skipped t;
  skip_known t 5;
  t.tag_attrs <- [];
  let rec attrs acc =
    skip_space t;
    match peek t with
    | '>' | '/' | '?' | '\255' -> acc
    | _ -> attrs (lex_attr t :: acc)
  in
  let attrs = attrs [] in
  if looking_at t "?>" then skip_known t 2 else fail t "expected %S" "?>";
  let find k =
    List.find_map
      (function Attr (n, v) when Name.equal n (Name.local k) -> Some v | _ -> None)
      attrs
  in
  let standalone =
    match find "standalone" with
    | Some "yes" -> Some true
    | Some "no" -> Some false
    | Some other -> fail t "bad standalone value %S" other
    | None -> None
  in
  t.decl <-
    { version = Option.value ~default:"1.0" (find "version"); encoding = find "encoding"; standalone }

let skip_doctype t =
  mark_skipped t;
  skip_known t 9;
  if t.doctype then fail t "second DOCTYPE declaration";
  t.doctype <- true;
  let depth = ref 0 and fin = ref false in
  while not !fin do
    if at_end t then fail t "unterminated DOCTYPE"
    else begin
      (match peek t with
      | '[' -> incr depth
      | ']' -> decr depth
      | '>' when !depth = 0 -> fin := true
      | _ -> ());
      advance t
    end
  done

let start_tag t =
  mark_event t;
  advance t;
  let e = lex_name t in
  t.stack <- e :: t.stack;
  t.tag_attrs <- [];
  t.in_tag <- true;
  e.start_ev

let close_element t =
  match t.stack with
  | [] -> fail t "no open element"
  | e :: rest ->
    t.stack <- rest;
    (match rest with [] -> t.phase <- Epilog | _ :: _ -> ());
    e.end_ev

(* cursor on "</", event marked *)
let end_tag t =
  skip_known t 2;
  let p0 = t.pos in
  let i = scan_name t.buf p0 t.len in
  match t.stack with
  | e :: _ when (i < t.len || t.at_eof) && i - p0 = String.length e.raw && bytes_match t.buf p0 i e.raw ->
    (* the open element's bytes: no intern, no compare of names *)
    skip_known t (i - p0);
    skip_space t;
    expect t '>';
    close_element t
  | _ -> (
    let close = lex_name t in
    skip_space t;
    expect t '>';
    match t.stack with
    | e :: _ when Name.equal close.name e.name -> close_element t
    | e :: _ ->
      fail t "mismatched end tag: expected </%s>, found </%s>" (Name.to_string e.name)
        (Name.to_string close.name)
    | [] -> fail t "stray end tag </%s>" (Name.to_string close.name))

let rec next t =
  match t.phase with
  | Done -> None
  | Prolog -> prolog t
  | Epilog -> epilog t
  | Content -> if t.in_tag then tag_step t else content_step t

and prolog t =
  if cur_offset t = 0 && looking_at t "<?xml" then begin
    ensure t 6;
    if t.pos + 5 < t.len && is_space (Bytes.get t.buf (t.pos + 5)) then lex_xml_decl t
  end;
  skip_space t;
  if looking_at t "<!--" || looking_at t "<?" then begin
    skip_misc t;
    prolog t
  end
  else if looking_at t "<!DOCTYPE" then begin
    skip_doctype t;
    prolog t
  end
  else if peek t = '<' && not (at_end t) then begin
    t.phase <- Content;
    start_tag t
  end
  else fail t "expected root element"

and epilog t =
  skip_space t;
  if at_end t then begin
    t.phase <- Done;
    None
  end
  else if looking_at t "<!--" || looking_at t "<?" then begin
    skip_misc t;
    epilog t
  end
  else fail t "trailing content after root element"

and tag_step t =
  skip_space t;
  match peek t with
  | '/' ->
    mark_event t;
    advance t;
    expect t '>';
    t.in_tag <- false;
    close_element t
  | '>' ->
    advance t;
    t.in_tag <- false;
    next t
  | '\255' when at_end t -> fail t "unterminated start tag"
  | '?' | '\255' -> fail t "malformed start tag"
  | _ ->
    mark_event t;
    Some (lex_attr t)

and content_step t =
  mark_event t;
  ensure t 2;
  if t.pos < t.len && Bytes.unsafe_get t.buf t.pos = '<' then
    (* one dispatch on the byte after '<' *)
    match if t.pos + 1 < t.len then Bytes.unsafe_get t.buf (t.pos + 1) else '\255' with
    | '/' -> end_tag t
    | '?' -> Some (lex_pi t)
    | '!' when looking_at t "<!--" ->
      skip_known t 4;
      Some (Comment (lex_until t "-->" "comment"))
    | '!' when looking_at t "<![CDATA[" ->
      skip_known t 9;
      Some (Cdata (lex_until t "]]>" "CDATA section"))
    | _ -> start_tag t
  else if at_end t then unterminated_element t
  else
    (* a run of character data up to the next markup *)
    match lex_run t '<' with "" -> next t | s -> Some (Text s)
