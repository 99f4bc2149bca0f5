(** Binary codecs for WineFS's persistent structures.

    Pure functions between OCaml records and the byte images stored on PM;
    all multi-byte fields are little-endian.  Kept separate from the file
    system so the crash checker and tests can decode raw device state. *)

val dentry_bytes : int
(** 64 — one cache line per directory entry. *)

val max_name : int
(** Longest file name storable in a dentry (47). *)

module Superblock : sig
  type t = {
    size : int;
    cpus : int;
    inodes_per_cpu : int;
    mode_strict : bool;
    clean : bool;
  }

  val bytes : int

  val csum_off : int
  (** Byte offset of the CRC32C field (40); the checksum covers the whole
      64B block with this field zeroed. *)

  val encode : t -> bytes
  (** Includes the checksum. *)

  val decode : bytes -> t option
  (** [None] on bad magic or bad checksum. *)

  val decode_checked : bytes -> [ `Ok of t | `Bad_magic | `Bad_csum ]
  (** Like {!decode} but distinguishes a foreign image from a corrupt
      superblock, so mount can repair the latter from the replica. *)
end

module Inode : sig
  type header = {
    valid : bool;
    is_dir : bool;
    xattr_align : bool;
    size : int;
    nlink : int;
    extent_count : int;
    overflow : int;  (** phys offset of first overflow block; 0 = none *)
  }

  val header_bytes : int
  (** 64 — the journaled unit for inode updates. *)

  val csum_off : int
  (** Byte offset of the header CRC32C field (56). *)

  val encode_header : header -> bytes
  (** Includes the checksum over all 64 bytes (csum field zeroed). *)

  val decode_header : bytes -> header
  (** Does not verify the checksum; see {!header_csum_ok}. *)

  val header_csum_ok : bytes -> bool
  (** Does the stored CRC match the header bytes?  False for blank
      (never-written) slots — test {!header_is_blank} first. *)

  val header_is_blank : bytes -> bool
  (** All 64 bytes zero: an inode slot that has never held a header. *)

  val header_csum_ok_at : bytes -> int -> bool
  (** {!header_csum_ok} for the header at a byte offset of a bulk-read
      buffer (no copy). *)

  val flags_off : int
  val size_off : int
  val nlink_off : int
  val overflow_off : int
  (** Byte offsets of the header's 64-bit little-endian fields, for a
      reader that takes them in place instead of decoding a {!header}. *)

  val flag_valid : int
  val flag_dir : int
  val flag_xattr_align : int
  (** The bits of the flags word. *)

  val extent_slot_off : int -> int
  (** Byte offset within the 256B inode of inline extent slot [i]. *)

  val extent_bytes : int
  (** 24. *)

  val encode_extent : file_off:int -> phys:int -> len:int -> bytes
  val decode_extent : bytes -> int * int * int

  val asrc_bit : int
  (** Bit 62 of the stored length field marks aligned-pool provenance. *)

  val extent_file_off_off : int
  val extent_phys_off : int
  val extent_len_off : int
  (** Byte offsets of a record's 64-bit little-endian fields; the stored
      length carries {!asrc_bit}. *)

  val extent_file_off_at : bytes -> int -> int
  val extent_phys_at : bytes -> int -> int
  val extent_len_at : bytes -> int -> int
  val extent_asrc_at : bytes -> int -> bool
  (** The fields of the record at a byte offset of a bulk-read buffer,
      read in place: [extent_len_at] is the length with the provenance
      bit cleared, [extent_asrc_at] that bit. *)
end

module Dentry : sig
  type t = { ino : int; name : string }

  val encode : t -> bytes
  (** Raises {!Repro_vfs.Types.Error} [ENAMETOOLONG] for long names. *)

  val decode : bytes -> t option
  (** [None] for a free slot (ino = 0). *)

  val decode_at : bytes -> int -> t option
  (** {!decode} at a byte offset of a bulk-read buffer. *)

  val ino_off : int
  val name_len_off : int
  val name_off : int
  (** Byte offsets of the 64-bit inode number (0 in a free slot), the
      one-byte name length and the name. *)

  val free_slot : bytes
end

module Overflow : sig
  (** Extent-list continuation block (4KB). *)

  val capacity : int
  (** Extent records per block (169). *)

  val header_bytes : int
  val encode_header : next:int -> count:int -> bytes
  val decode_header : bytes -> int * int
  val record_off : int -> int
end

module Serial : sig
  (** Free-list serialization area written on clean unmount. *)

  val encode : (int * int) list -> capacity_bytes:int -> bytes option
  (** [None] when the list does not fit (mount then falls back to a scan). *)

  val decode : bytes -> (int * int) list option
  val invalid : bytes
  (** Marker making the area unparseable (written at mount). *)
end
