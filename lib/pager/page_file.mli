(** The page file: fixed-size pages as the unit of disk I/O.

    Page 0 is the file header (magic, geometry, free-list head, the
    {e clean} flag and checkpoint LSN, and the page of the checkpoint
    metadata blob).  Every other page carries a 24-byte header — kind,
    payload length, overflow-chain successor, the WAL LSN the page was
    written under, and a CRC-32 of the payload — so torn or foreign
    pages are detected on read, and a crash sweep can audit the LSN of
    everything that reached disk against the WAL's synced prefix.

    Variable-size block images are stored as {e blobs}: a chain of
    pages linked through the header's next pointer.  Rewriting a blob
    reuses its chain's pages in order, extending from the free list /
    file tail and returning surplus pages to the free list.

    The clean flag is the reopen contract: any page write clears it
    (persisted eagerly), only {!set_checkpoint} sets it, so a page
    file is trusted as a complete storage image iff it is clean. *)

type t

exception Corrupt of string
(** Structural damage: bad magic, CRC mismatch, cyclic or dangling
    chains.  Environmental failures surface as [Unix.Unix_error]. *)

val create : ?page_size:int -> string -> t
(** Create (or truncate) a page file.  Default page size 4096 bytes;
    [Invalid_argument] below 256. *)

val open_existing : string -> t
(** Open and verify the header.  Raises {!Corrupt} on a damaged or
    foreign file. *)

val close : t -> unit
val sync : t -> unit
(** Persist the header and fsync the file. *)

val page_size : t -> int
val path : t -> string
val clean : t -> bool
val checkpoint_lsn : t -> int
val meta_page : t -> int option
val page_count : t -> int
(** Pages ever allocated (free-listed ones included). *)

val write_blob : t -> ?head:int -> lsn:int -> string -> int
(** Write a payload as a page chain, stamping every page with [lsn].
    [?head] rewrites an existing blob in place (reusing its pages);
    returns the (possibly new) head page id. *)

val read_blob : t -> int -> string * int
(** The blob at a head page: payload and the LSN it was written under.
    Raises {!Corrupt} on damage. *)

val set_checkpoint : t -> lsn:int -> meta_page:int -> unit
(** Record a completed checkpoint: stores the metadata blob head and
    LSN, sets the clean flag, fsyncs. *)

val iter_pages : t -> (int -> kind:int -> lsn:int -> unit) -> unit
(** Visit every allocated page's header (kind 0 = free, 1 = data) —
    the audit hook for the WAL-ordering crash sweep. *)
