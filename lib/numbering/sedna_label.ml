type t = string

let sep = '\x01'
let min_digit = 2 (* byte 0x02 is digit zero *)
let mid_byte = '\x80'

let root = String.make 1 mid_byte

type relation = Self | Ancestor | Descendant | Parent | Child | Before | After

let to_raw l = l
let length = String.length

let depth l =
  1 + String.fold_left (fun acc c -> if c = sep then acc + 1 else acc) 0 l

let of_raw s =
  let n = String.length s in
  if n = 0 then Error "empty label"
  else if s.[0] = sep || s.[n - 1] = sep then Error "label starts or ends with a separator"
  else begin
    (* no NUL byte, no empty component, and no component ending with
       the minimal digit, or no label could ever be inserted directly
       before its extension.  [s.[0]] is no separator, so [i - 1] is
       in range where it is read. *)
    let rec well_formed i =
      i = n
      ||
      let c = String.unsafe_get s i in
      c <> '\x00'
      && (c <> sep || String.unsafe_get s (i - 1) <> sep)
      && (Char.code c <> min_digit || (i + 1 < n && String.unsafe_get s (i + 1) <> sep))
      && well_formed (i + 1)
    in
    if well_formed 0 then Ok s else Error "malformed label"
  end

let compare = String.compare
let equal = String.equal

(* x is an ancestor of y iff x, followed by a separator, is a proper
   prefix of y *)
let is_ancestor x y =
  let lx = String.length x and ly = String.length y in
  lx + 1 < ly && String.sub y 0 lx = x && y.[lx] = sep

let is_parent x y =
  is_ancestor x y
  &&
  let lx = String.length x in
  not (String.contains_from y (lx + 1) sep)

let relation x y =
  if equal x y then Self
  else if is_ancestor x y then if is_parent x y then Parent else Ancestor
  else if is_ancestor y x then if is_parent y x then Child else Descendant
  else if compare x y < 0 then Before
  else After

(* ------------------------------------------------------------------ *)
(* Component arithmetic                                                *)

(* Split a label into parent part (including trailing separator, or ""
   for a root label) and its last component. *)
let split_last l =
  match String.rindex_opt l sep with
  | None -> ("", l)
  | Some i -> (String.sub l 0 (i + 1), String.sub l (i + 1) (String.length l - i - 1))

(* A component strictly between [a] and [b] (a < b lexicographically
   over bytes >= 2; "" as [a] means "below everything").  Components
   never end with the minimal digit, which this function preserves and
   relies on: see of_raw. *)
let between_components a b =
  let buf = Buffer.create (String.length b + 2) in
  let digit_a i = if i < String.length a then Char.code a.[i] else 1 in
  let digit_b i = if i < String.length b then Char.code b.[i] else 256 in
  (* emit a tail strictly greater than a[j..]; no upper bound *)
  let rec grow_above j =
    let d = digit_a j in
    if d >= 255 then begin
      Buffer.add_char buf '\xFF';
      grow_above (j + 1)
    end
    else Buffer.add_char buf (Char.chr (d + max 1 ((256 - d) / 2)))
  (* emit a tail strictly less than b[j..]; may assume b[j..] nonempty *)
  and shrink_below j =
    let d = digit_b j in
    if d > 3 then Buffer.add_char buf (Char.chr ((min_digit + d) / 2))
    else if d = 3 then begin
      Buffer.add_char buf (Char.chr min_digit);
      Buffer.add_char buf mid_byte
    end
    else begin
      (* d = 2: emit it and keep shrinking below the rest *)
      Buffer.add_char buf (Char.chr min_digit);
      shrink_below (j + 1)
    end
  and go i =
    let da = digit_a i and db = digit_b i in
    if da = db then begin
      Buffer.add_char buf (Char.chr da);
      go (i + 1)
    end
    else if db - da >= 2 then begin
      let mid = (da + db) / 2 in
      if mid > min_digit then Buffer.add_char buf (Char.chr mid)
      else begin
        (* the only available digit is the minimal one *)
        Buffer.add_char buf (Char.chr min_digit);
        Buffer.add_char buf mid_byte
      end
    end
    else if da >= min_digit then begin
      (* adjacent digits: follow a, then exceed its tail *)
      Buffer.add_char buf (Char.chr da);
      grow_above (i + 1)
    end
    else begin
      (* da virtual (a exhausted), db = 2: follow b downward *)
      Buffer.add_char buf (Char.chr min_digit);
      shrink_below (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let between x y =
  if compare x y >= 0 then invalid_arg "Sedna_label.between: labels out of order";
  let px, cx = split_last x and py, cy = split_last y in
  if px <> py then invalid_arg "Sedna_label.between: labels are not siblings";
  px ^ between_components cx cy

let first_child parent = parent ^ String.make 1 sep ^ String.make 1 mid_byte

let after_sibling l =
  let p, c = split_last l in
  let last = Char.code c.[String.length c - 1] in
  if last >= 255 then p ^ c ^ String.make 1 mid_byte
  else begin
    let bumped = last + max 1 ((256 - last) / 2) in
    p ^ String.sub c 0 (String.length c - 1) ^ String.make 1 (Char.chr bumped)
  end

let before_sibling l =
  let p, c = split_last l in
  p ^ between_components "" c

(* Proposition 1 as one rule: a new node's label depends on its
   nearest labelled neighbours alone *)
let gap ~parent prev next =
  match prev, next with
  | Some a, Some b -> between a b
  | Some a, None -> after_sibling a
  | None, Some b -> before_sibling b
  | None, None -> first_child parent

let neighbours ~label_of ~is_self siblings =
  let rec split before_rev = function
    | [] -> None
    | s :: rest ->
      if is_self s then Some (List.find_map label_of before_rev, List.find_map label_of rest)
      else split (s :: before_rev) rest
  in
  split [] siblings

(* Evenly spread labels for n children: fixed-width base-254 numbers
   with stride ~ space/(n+1), so the middle of every gap is free. *)
let assign_children parent n =
  if n <= 0 then []
  else begin
    let base = 254 in
    let rec pick_width w space =
      if space >= 2 * (n + 1) || w >= 7 then (w, space) else pick_width (w + 1) (space * base)
    in
    let width, space = pick_width 1 base in
    let stride = space / (n + 1) in
    let pl = String.length parent in
    (* child [i]: the parent, a separator, then [(i + 1) * stride] as
       [width] base-254 digits — and a middle byte after them when
       the last digit is the minimal one *)
    let label i =
      let p = (i + 1) * stride in
      let trailing = if p mod base = 0 then 1 else 0 in
      let b = Bytes.create (pl + 1 + width + trailing) in
      Bytes.blit_string parent 0 b 0 pl;
      Bytes.set b pl sep;
      let v = ref p in
      for k = pl + width downto pl + 1 do
        Bytes.set b k (Char.unsafe_chr (min_digit + (!v mod base)));
        v := !v / base
      done;
      if trailing = 1 then Bytes.set b (pl + 1 + width) mid_byte;
      Bytes.unsafe_to_string b
    in
    List.init n label
  end

(* Document-order bulk appends.  [assign_children] needs the child
   count up front and [after_sibling] halves the headroom to 0xFF on
   every call (one extra byte per ~8 appends — linear label growth
   over a long ingest).  The append encoding is a plain counter: the
   component for child [i] is a length byte [0x02 + ndigits] followed
   by the big-endian base-253 digits of [i] over [0x03..0xFF].  A
   (k+1)-digit counter has a larger length byte than any k-digit one,
   so lexicographic order is counter order; the last byte is always
   >= 0x03, so the no-trailing-minimal-digit invariant of {!of_raw}
   holds and {!between}/{!before_sibling} interoperate.  Label length
   is 1 + ceil(log253(i+1)) bytes — logarithmic, no rebalancing. *)
let append_child parent i =
  if i < 0 then invalid_arg "Sedna_label.append_child: negative index";
  let base = 253 in
  let rec ndigits v = if v < base then 1 else 1 + ndigits (v / base) in
  let nd = ndigits i in
  if min_digit + nd > 255 then invalid_arg "Sedna_label.append_child: index too large";
  let pl = String.length parent in
  let b = Bytes.create (pl + 2 + nd) in
  Bytes.blit_string parent 0 b 0 pl;
  Bytes.set b pl sep;
  Bytes.set b (pl + 1) (Char.chr (min_digit + nd));
  let v = ref i in
  for k = pl + 1 + nd downto pl + 2 do
    Bytes.set b k (Char.chr (min_digit + 1 + (!v mod base)));
    v := !v / base
  done;
  Bytes.unsafe_to_string b

let child parent i =
  match List.nth_opt (assign_children parent (i + 1)) i with
  | Some l -> l
  | None -> invalid_arg "Sedna_label.child"

let pp ppf l =
  String.iter (fun c -> Format.fprintf ppf "%02x " (Char.code c)) l
