(* Byte-level helpers shared by the page file, by clients that
   serialize their representation into page blobs, and (re-exported
   through [Xsm_persist.Wire]) by the WAL and snapshot formats: LEB128
   varints, length-prefixed strings, and the CRC-32 that stamps page
   headers, WAL records and snapshot bodies.  Self-contained so the
   pager stays at the bottom of the dependency graph. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected 0xEDB88320) *)

(* Slicing-by-8 (Kounavis and Berry, ISCC 2005) over native ints: the
   32-bit register lives in the low bits of an OCaml int, so nothing is
   boxed or allocated.  [tables] holds eight 256-entry tables back to
   back: the first is the one-byte table, and entry [n] of table [k]
   is the register after [n] is followed by [k] zero bytes, so one
   step folds eight input bytes with eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Codec.crc32: substring out of bounds";
  (* bounds checked once, above: the table and byte reads below are not *)
  let[@inline] tbl k i = Array.unsafe_get tables ((k lsl 8) lor i) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let w = String.get_int64_le s !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tbl 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Writer *)

module W = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let contents = Buffer.contents
  let length = Buffer.length

  let byte w b =
    if b < 0 || b > 255 then invalid_arg "Codec.W.byte: out of range";
    Buffer.add_char w (Char.unsafe_chr b)

  let rec varint w n =
    if n < 0 then invalid_arg "Codec.W.varint: negative"
    else if n < 0x80 then Buffer.add_char w (Char.unsafe_chr n)
    else begin
      Buffer.add_char w (Char.unsafe_chr (0x80 lor (n land 0x7F)));
      varint w (n lsr 7)
    end

  let string w s =
    varint w (String.length s);
    Buffer.add_string w s

  let opt_string w = function
    | None -> byte w 0
    | Some s ->
      byte w 1;
      string w s
end

(* ------------------------------------------------------------------ *)
(* Reader *)

module R = struct
  type t = { s : string; mutable pos : int }

  let of_string ?(pos = 0) s = { s; pos }
  let pos r = r.pos
  let remaining r = String.length r.s - r.pos
  let at_end r = r.pos >= String.length r.s

  let byte r =
    if r.pos >= String.length r.s then corrupt "unexpected end of input at %d" r.pos;
    let b = Char.code (String.unsafe_get r.s r.pos) in
    r.pos <- r.pos + 1;
    b

  let varint r =
    let rec go shift acc =
      if shift > 62 then corrupt "varint overflow at %d" r.pos;
      let b = byte r in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  (* skip readers: the same bounds checks as their decoding twins,
     without allocating the decoded value *)
  let skip_varint r =
    let rec go n =
      if n > 8 then corrupt "varint overflow at %d" r.pos;
      if byte r land 0x80 <> 0 then go (n + 1)
    in
    go 0

  let string_len r =
    let n = varint r in
    if n < 0 || n > remaining r then corrupt "string of %d bytes exceeds input at %d" n r.pos;
    n

  let string r =
    let n = string_len r in
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let skip_string r = r.pos <- r.pos + string_len r

  let opt_string r =
    match byte r with
    | 0 -> None
    | 1 -> Some (string r)
    | b -> corrupt "bad option tag %d at %d" b (r.pos - 1)
end
