(** Low-level binary encoding shared by the snapshot and WAL formats.

    Integers are LEB128 varints (non-negative only — every quantity we
    persist is a count, a position or a length); strings are
    varint-length-prefixed bytes; QNames are their written form.  The
    reader signals malformed input through {!R.Corrupt} rather than an
    exception soup, so callers turn any decoding failure into one
    recovery decision (reject the snapshot, truncate the WAL tail).

    The varints, strings and {!crc32} are {!Xsm_pager.Codec}'s, so
    page files, WAL records and snapshots share one byte codec. *)

val crc32 : ?pos:int -> ?len:int -> string -> int
(** The standard reflected CRC-32 (polynomial 0xEDB88320, the zlib/PNG
    one) of a substring (default: the whole string), in [0, 2{^32}).
    Every WAL record and the snapshot body carry one, which is how
    torn writes are detected.  [Invalid_argument] when [pos]/[len] do
    not name a substring. *)

(** Append-only encoder over a growing buffer. *)
module W : sig
  type t = Buffer.t

  val create : ?initial:int -> unit -> t
  val byte : t -> int -> unit
  (** One byte; [Invalid_argument] outside [0, 255]. *)

  val varint : t -> int -> unit
  (** LEB128; [Invalid_argument] on negative input. *)

  val fixed32 : t -> int -> unit
  (** The low 32 bits as a little-endian 4-byte word (record framing
      and checksums). *)

  val string : t -> string -> unit
  val opt_string : t -> string option -> unit
  val name : t -> Xsm_xml.Name.t -> unit
  val opt_name : t -> Xsm_xml.Name.t option -> unit
  val bool : t -> bool -> unit
  val length : t -> int
  val contents : t -> string
end

(** Sequential decoder over a string. *)
module R : sig
  type t

  exception Corrupt of string
  (** Raised by every reading function on truncated or malformed
      input — the same exception as {!Xsm_pager.Codec.Corrupt}.
      [read_all]-style drivers catch it once. *)

  val of_string : ?pos:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
  val byte : t -> int
  val varint : t -> int
  val fixed32 : t -> int
  (** A little-endian 4-byte word, unsigned. *)

  val string : t -> string
  val opt_string : t -> string option
  val name : t -> Xsm_xml.Name.t
  val opt_name : t -> Xsm_xml.Name.t option
  val bool : t -> bool
end
