(* Byte-level helpers shared by the page file and by clients that
   serialize their representation into page blobs: LEB128 varints,
   length-prefixed strings, and the CRC-32 that stamps page headers.
   Self-contained so the pager stays at the bottom of the dependency
   graph (it cannot reuse the WAL's wire module without pulling the
   whole persistence layer under the storage layer). *)

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected 0xEDB88320) *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl) in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Writer *)

module W = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let contents = Buffer.contents
  let byte w b = Buffer.add_char w (Char.chr (b land 0xFF))

  let varint w n =
    if n < 0 then invalid_arg "Codec.W.varint: negative";
    let rec go n =
      if n < 0x80 then byte w n
      else begin
        byte w (0x80 lor (n land 0x7F));
        go (n lsr 7)
      end
    in
    go n

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
  let at_end r = r.pos >= String.length r.s

  let byte r =
    if r.pos >= String.length r.s then raise (Corrupt "unexpected end of input");
    let b = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    b

  let varint r =
    let rec go shift acc =
      if shift > 62 then raise (Corrupt "varint too long");
      let b = byte r in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  (* skip readers: the same bounds checks as their decoding twins,
     without allocating the decoded value *)
  let skip_varint r =
    let rec go n =
      if n > 8 then raise (Corrupt "varint too long");
      if byte r land 0x80 <> 0 then go (n + 1)
    in
    go 0

  let string_len r =
    let n = varint r in
    if n < 0 || r.pos + n > String.length r.s then raise (Corrupt "string runs past end");
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
    | b -> raise (Corrupt (Printf.sprintf "bad option tag %d" b))
end
