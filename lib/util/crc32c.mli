(** CRC-32C (Castagnoli) — the metadata checksum used for media-fault
    detection (NOVA-Fortis-style hardening).  Pure OCaml, table-driven;
    results are 32-bit values carried in a native [int]. *)

val init : int
(** Initial accumulator (all ones). *)

val update : int -> bytes -> off:int -> len:int -> int
(** Fold a byte range into a running (un-finalised) accumulator. *)

val update_string : int -> string -> off:int -> len:int -> int
(** {!update} over a string, without an intermediate copy. *)

val finish : int -> int
(** Finalise an accumulator into the CRC value. *)

val digest_string : string -> int

val digest_zeroed : bytes -> off:int -> len:int -> csum_off:int -> int
(** CRC of [off, off+len) computed as if the 4-byte little-endian checksum
    field at [csum_off] were zero — the standard self-embedding layout, so
    every non-checksum bit of the structure is covered. *)

val put : bytes -> csum_off:int -> int -> unit
(** Store a CRC value as 4 little-endian bytes at [csum_off]. *)

val get : bytes -> csum_off:int -> int

val set_zeroed : bytes -> off:int -> len:int -> csum_off:int -> unit
(** Compute {!digest_zeroed} and {!put} it in place. *)

val verify_zeroed : bytes -> off:int -> len:int -> csum_off:int -> bool
(** Does the stored field match {!digest_zeroed} of the current bytes? *)
