exception Corrupt of string

let magic = "XSMPAGE1"

(* file header layout (page 0):
   magic (8) ‖ page_size (4 LE) ‖ next_page (4) ‖ free_head (4)
   ‖ clean (1) ‖ checkpoint_lsn (8 LE) ‖ meta_page (4) ‖ crc (4)
   where crc covers bytes [8, 33). *)
let file_header_bytes = 8 + 4 + 4 + 4 + 1 + 8 + 4 + 4

(* page header layout (pages >= 1):
   kind (1: 0 free, 1 data) ‖ payload_len (4 LE) ‖ next_page (4 LE)
   ‖ lsn (8 LE) ‖ payload crc (4 LE) ‖ pad (3) *)
let page_header_bytes = 24

type t = {
  fd : Unix.file_descr;
  path : string;
  page_size : int;
  mutable next_page : int;
  mutable free_head : int;
  mutable clean : bool;
  mutable checkpoint_lsn : int;
  mutable meta_page : int;
  page : Bytes.t;  (* the page being written, reused: writes run under the pager mutex *)
}

let page_size t = t.page_size
let payload_capacity t = t.page_size - page_header_bytes
let path t = t.path
let clean t = t.clean
let checkpoint_lsn t = t.checkpoint_lsn
let meta_page t = if t.meta_page = 0 then None else Some t.meta_page
let page_count t = t.next_page - 1

(* ------------------------------------------------------------------ *)
(* Positioned I/O (single-threaded under the pager's lock) *)

let pwrite t ~off bytes =
  ignore (Unix.LargeFile.lseek t.fd (Int64.of_int off) Unix.SEEK_SET);
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write t.fd bytes !written (len - !written)
  done

(* read up to [len] bytes at [off]; short past EOF *)
let pread t ~off len =
  ignore (Unix.LargeFile.lseek t.fd (Int64.of_int off) Unix.SEEK_SET);
  let buf = Bytes.create len in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read t.fd buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  Bytes.sub buf 0 !got

(* ------------------------------------------------------------------ *)
(* File header *)

let encode_file_header t =
  let b = Bytes.create file_header_bytes in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int t.page_size);
  Bytes.set_int32_le b 12 (Int32.of_int t.next_page);
  Bytes.set_int32_le b 16 (Int32.of_int t.free_head);
  Bytes.set b 20 (if t.clean then '\001' else '\000');
  Bytes.set_int64_le b 21 (Int64.of_int t.checkpoint_lsn);
  Bytes.set_int32_le b 29 (Int32.of_int t.meta_page);
  let crc = Codec.crc32 ~pos:8 ~len:(file_header_bytes - 12) (Bytes.unsafe_to_string b) in
  Bytes.set_int32_le b (file_header_bytes - 4) (Int32.of_int crc);
  b

let write_file_header t = pwrite t ~off:0 (encode_file_header t)

(* any page write makes the file unclean until the next checkpoint;
   persist the flag eagerly so a crashed run can never be mistaken for
   a checkpointed one *)
let mark_unclean t =
  if t.clean then begin
    t.clean <- false;
    write_file_header t
  end

let sync t =
  write_file_header t;
  Unix.fsync t.fd

let set_checkpoint t ~lsn ~meta_page =
  t.checkpoint_lsn <- lsn;
  t.meta_page <- meta_page;
  t.clean <- true;
  sync t

let close t =
  (try write_file_header t with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let create ?(page_size = 4096) path =
  if page_size < 256 then invalid_arg "Page_file.create: page_size < 256";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t =
    { fd; path; page_size; next_page = 1; free_head = 0; clean = false;
      checkpoint_lsn = 0; meta_page = 0; page = Bytes.make page_size '\000' }
  in
  write_file_header t;
  t

let open_existing path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let t =
    { fd; path; page_size = 0; next_page = 1; free_head = 0; clean = false;
      checkpoint_lsn = 0; meta_page = 0; page = Bytes.empty }
  in
  let hdr = pread t ~off:0 file_header_bytes in
  if Bytes.length hdr < file_header_bytes then begin
    Unix.close fd;
    raise (Corrupt (path ^ ": truncated page-file header"))
  end;
  if Bytes.sub_string hdr 0 8 <> magic then begin
    Unix.close fd;
    raise (Corrupt (path ^ ": not a page file (bad magic)"))
  end;
  let crc = Int32.to_int (Bytes.get_int32_le hdr (file_header_bytes - 4)) land 0xFFFFFFFF in
  if crc <> Codec.crc32 ~pos:8 ~len:(file_header_bytes - 12) (Bytes.unsafe_to_string hdr) then begin
    Unix.close fd;
    raise (Corrupt (path ^ ": page-file header CRC mismatch"))
  end;
  let page_size = Int32.to_int (Bytes.get_int32_le hdr 8) in
  if page_size < 256 then begin
    Unix.close fd;
    raise (Corrupt (Printf.sprintf "%s: bad page size %d" path page_size))
  end;
  {
    t with
    page_size;
    page = Bytes.make page_size '\000';
    next_page = Int32.to_int (Bytes.get_int32_le hdr 12);
    free_head = Int32.to_int (Bytes.get_int32_le hdr 16);
    clean = Bytes.get hdr 20 = '\001';
    checkpoint_lsn = Int64.to_int (Bytes.get_int64_le hdr 21);
    meta_page = Int32.to_int (Bytes.get_int32_le hdr 29);
  }

(* ------------------------------------------------------------------ *)
(* Pages *)

type page_header = { kind : int; payload_len : int; next : int; lsn : int; crc : int }

let read_page_header t id =
  if id < 1 || id >= t.next_page then
    raise (Corrupt (Printf.sprintf "%s: page %d out of range" t.path id));
  let b = pread t ~off:(id * t.page_size) page_header_bytes in
  if Bytes.length b < page_header_bytes then
    (* allocated but never written (sparse tail): an empty free page *)
    { kind = 0; payload_len = 0; next = 0; lsn = 0; crc = 0 }
  else
    {
      kind = Char.code (Bytes.get b 0);
      payload_len = Int32.to_int (Bytes.get_int32_le b 1);
      next = Int32.to_int (Bytes.get_int32_le b 5);
      lsn = Int64.to_int (Bytes.get_int64_le b 9);
      crc = Int32.to_int (Bytes.get_int32_le b 17) land 0xFFFFFFFF;
    }

(* The page buffer is reused: every header field is rewritten, and
   only the header pad and the tail past the payload need zeroing. *)
let write_page t ~kind ~lsn ~next id payload ~pos ~len =
  if len > payload_capacity t then invalid_arg "Page_file.write_page: payload too large";
  let b = t.page in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int32_le b 1 (Int32.of_int len);
  Bytes.set_int32_le b 5 (Int32.of_int next);
  Bytes.set_int64_le b 9 (Int64.of_int lsn);
  Bytes.set_int32_le b 17 (Int32.of_int (Codec.crc32 ~pos ~len payload));
  Bytes.fill b 21 (page_header_bytes - 21) '\000';
  Bytes.blit_string payload pos b page_header_bytes len;
  Bytes.fill b (page_header_bytes + len) (t.page_size - page_header_bytes - len) '\000';
  mark_unclean t;
  pwrite t ~off:(id * t.page_size) b

let alloc t =
  if t.free_head <> 0 then begin
    let id = t.free_head in
    let h = read_page_header t id in
    if h.kind <> 0 then raise (Corrupt (Printf.sprintf "%s: free list hits data page %d" t.path id));
    t.free_head <- h.next;
    id
  end
  else begin
    let id = t.next_page in
    t.next_page <- id + 1;
    id
  end

let free_page t id =
  write_page t ~kind:0 ~lsn:0 ~next:t.free_head id "" ~pos:0 ~len:0;
  t.free_head <- id

(* the page ids of a blob's overflow chain, head first *)
let chain_ids t head =
  let rec go acc id steps =
    if id = 0 then List.rev acc
    else if steps > t.next_page then raise (Corrupt (t.path ^ ": cyclic overflow chain"))
    else
      let h = read_page_header t id in
      if h.kind <> 1 then
        raise (Corrupt (Printf.sprintf "%s: overflow chain hits non-data page %d" t.path id))
      else go (id :: acc) h.next (steps + 1)
  in
  go [] head 0

let write_blob t ?head ~lsn payload =
  let cap = payload_capacity t in
  let len = String.length payload in
  let chunks = max 1 ((len + cap - 1) / cap) in
  let old = match head with None -> [] | Some h -> chain_ids t h in
  (* reuse the old chain's pages in order, extend or trim as needed *)
  let rec ids n old acc =
    if n = 0 then (List.rev acc, old)
    else
      match old with
      | id :: rest -> ids (n - 1) rest (id :: acc)
      | [] -> ids (n - 1) [] (alloc t :: acc)
  in
  let pages, surplus = ids chunks old [] in
  List.iteri
    (fun i id ->
      let pos = i * cap in
      let clen = min cap (len - pos) in
      let next = if i = chunks - 1 then 0 else List.nth pages (i + 1) in
      write_page t ~kind:1 ~lsn ~next id payload ~pos ~len:clen)
    pages;
  List.iter (free_page t) surplus;
  List.hd pages

let read_blob t head =
  let buf = Buffer.create (payload_capacity t) in
  let lsn = ref 0 in
  let rec go id steps =
    if id <> 0 then begin
      if steps > t.next_page then raise (Corrupt (t.path ^ ": cyclic overflow chain"));
      let h = read_page_header t id in
      if h.kind <> 1 then
        raise (Corrupt (Printf.sprintf "%s: blob chain hits non-data page %d" t.path id));
      if h.payload_len < 0 || h.payload_len > payload_capacity t then
        raise (Corrupt (Printf.sprintf "%s: page %d payload length %d" t.path id h.payload_len));
      let raw = pread t ~off:((id * t.page_size) + page_header_bytes) h.payload_len in
      if Bytes.length raw < h.payload_len then
        raise (Corrupt (Printf.sprintf "%s: page %d cut short" t.path id));
      let s = Bytes.unsafe_to_string raw in
      if h.crc <> Codec.crc32 s then
        raise (Corrupt (Printf.sprintf "%s: page %d CRC mismatch" t.path id));
      if steps = 0 then lsn := h.lsn;
      Buffer.add_string buf s;
      go h.next (steps + 1)
    end
  in
  go head 0;
  (Buffer.contents buf, !lsn)

let iter_pages t f =
  for id = 1 to t.next_page - 1 do
    let h = read_page_header t id in
    f id ~kind:h.kind ~lsn:h.lsn
  done
