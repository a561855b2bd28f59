(* The WAL and snapshot formats' byte codec: {!Xsm_pager.Codec}'s
   varints, strings and CRC-32, plus the fixed-width words, QNames and
   booleans those formats add. *)

module Codec = Xsm_pager.Codec

let crc32 = Codec.crc32

module W = struct
  include Codec.W

  let fixed32 b w =
    for i = 0 to 3 do
      Buffer.add_char b (Char.unsafe_chr ((w lsr (8 * i)) land 0xFF))
    done

  let name b n = string b (Xsm_xml.Name.to_string n)

  let opt_name b = function
    | None -> byte b 0
    | Some n ->
      byte b 1;
      name b n

  let bool b v = byte b (if v then 1 else 0)
end

module R = struct
  include Codec.R

  exception Corrupt = Codec.Corrupt

  let corrupt = Codec.corrupt

  let fixed32 r =
    let w = ref 0 in
    for i = 0 to 3 do
      w := !w lor (byte r lsl (8 * i))
    done;
    !w

  let name r =
    let s = string r in
    match Xsm_xml.Name.of_string s with
    | Ok n -> n
    | Error e -> corrupt "bad QName %S: %s" s e

  let opt_name r =
    match byte r with
    | 0 -> None
    | 1 -> Some (name r)
    | n -> corrupt "bad option tag %d at %d" n (pos r - 1)

  let bool r =
    match byte r with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad bool %d at %d" n (pos r - 1)
end
