(* Open addressing on the bytes, doubled when half full. *)
type 'a slot = Empty | Full of { raw : string; value : 'a }

type 'a t = {
  make : string -> Name.t -> 'a;
  mutable slots : 'a slot array;
  mutable count : int;
}

exception Malformed of string * string

let create make = { make; slots = Array.make 64 Empty; count = 0 }

let hash b off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b i)
  done;
  !h land max_int

let rec same_from b off raw i n =
  i = n || (Bytes.unsafe_get b (off + i) = String.unsafe_get raw i && same_from b off raw (i + 1) n)

(* the slot holding the name written in [b] at [off, off+len), or the
   empty slot where it goes *)
let rec slot_of slots mask b off len i =
  match Array.unsafe_get slots i with
  | Empty -> i
  | Full f ->
    if String.length f.raw = len && same_from b off f.raw 0 len then i
    else slot_of slots mask b off len ((i + 1) land mask)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) Empty in
  let mask = Array.length slots - 1 in
  Array.iter
    (function
      | Empty -> ()
      | Full f as full ->
        let b = Bytes.unsafe_of_string f.raw and len = String.length f.raw in
        slots.(slot_of slots mask b 0 len (hash b 0 len land mask)) <- full)
    t.slots;
  t.slots <- slots

let find t b off len =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = slot_of slots mask b off len (hash b off len land mask) in
  match Array.unsafe_get slots i with
  | Full f -> f.value
  | Empty -> (
    let raw = Bytes.sub_string b off len in
    match Name.of_string raw with
    | Error why -> raise (Malformed (raw, why))
    | Ok name ->
      let value = t.make raw name in
      slots.(i) <- Full { raw; value };
      t.count <- t.count + 1;
      if 2 * t.count > Array.length slots then grow t;
      value)
