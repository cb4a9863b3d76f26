(** 256-bit EVM machine words.

    Values are immutable and represent integers modulo [2^256]. A value can
    be viewed either as an unsigned integer in [0, 2^256) or as a signed
    two's-complement integer in [-2^255, 2^255); operations whose name
    starts with [s] use the signed view (matching the EVM [SDIV], [SMOD],
    [SLT], [SGT] and [SAR] instructions).

    Common constants are interned: the integers 0–1024, every power of
    two, and the [ones_low]/[ones_high] byte masks are immutable pooled
    blocks, and every normalizing constructor ([of_int], [of_int64],
    [of_bytes_be], [add], [mul], [logand], [shift_right], …) routes
    small results back through the pool. Structurally equal small values are therefore
    usually physically equal — [equal] and [compare] exploit this with
    [(==)] fast paths — but physical equality is {e not} guaranteed for
    arbitrary values; use [equal] for truth, [(==)] only as an
    optimisation. The pools are built once at module initialisation and
    never mutated, so sharing them across domains is safe. *)

type t

val zero : t
val one : t
val max_int : t
(** [2^256 - 1], i.e. all bits set. *)

(** {1 Conversions} *)

val of_int : int -> t
(** [of_int n] converts a non-negative OCaml integer. Negative inputs are
    interpreted two's-complement (so [of_int (-1) = max_int]). *)

val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a non-negative OCaml [int]. *)

val to_int_trunc : t -> int
(** Lowest 62 bits of [x] as a non-negative OCaml int (used for offsets
    after a range check). *)

val of_int64 : int64 -> t
(** Unsigned interpretation of the given 64-bit word. *)

val of_hex : string -> t
(** [of_hex s] parses a big-endian hex string, optionally ["0x"]-prefixed.
    Raises [Invalid_argument] on malformed input or overflow. *)

val to_hex : t -> string
(** Minimal-length lowercase hex, no prefix, ["0"] for zero. *)

val to_hex_32 : t -> string
(** 64-digit zero-padded lowercase hex. *)

val of_bytes_be : string -> t
(** Big-endian bytes, length <= 32; shorter strings are left-padded.
    Raises [Invalid_argument] on longer strings. Values 0–1024 come
    back as the pooled blocks, so a decoded small PUSH constant is
    physically equal to [of_int] of the same value. *)

val to_bytes_be : t -> string
(** 32-byte big-endian representation. *)

val of_decimal : string -> t
(** Parses a decimal number string. *)

(** {1 Predicates and comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison. *)

val signed_compare : t -> t -> int
val is_zero : t -> bool
val lt : t -> t -> bool
val gt : t -> t -> bool
val slt : t -> t -> bool
val sgt : t -> t -> bool
val le : t -> t -> bool
val hash : t -> int

(** {1 Arithmetic modulo 2^256} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Unsigned division; division by zero yields zero (EVM semantics). *)

val rem : t -> t -> t
val sdiv : t -> t -> t
(** Signed division truncated toward zero; [x / 0 = 0];
    [min_int / -1 = min_int] (EVM semantics). *)

val srem : t -> t -> t
(** Signed remainder; sign follows the dividend. *)

val addmod : t -> t -> t -> t
(** [(a + b) mod m] computed without 256-bit overflow; [m = 0] yields 0. *)

val mulmod : t -> t -> t -> t
(** [(a * b) mod m] computed over 512 bits; [m = 0] yields 0. *)

val exp : t -> t -> t
(** Exponentiation modulo [2^256]. *)

(** {1 Bitwise operations} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical right shift. *)

val shift_right_arith : t -> int -> t
(** Arithmetic right shift (sign-preserving). *)

val signextend : int -> t -> t
(** [signextend k x] sign-extends [x] from byte [k] (byte 0 is the least
    significant). If [k >= 31] the value is unchanged (EVM [SIGNEXTEND]). *)

val byte : int -> t -> t
(** [byte i x] extracts the [i]-th byte counting from the most significant
    (EVM [BYTE]); out-of-range indices yield zero. *)

val get_bit : t -> int -> bool
val bits : t -> int
(** Position of the highest set bit plus one; [bits zero = 0]. *)

(** {1 Common constants} *)

val of_string : string -> t
(** Accepts hex with ["0x"] prefix or decimal otherwise. *)

val pow2 : int -> t
(** [pow2 n] is [2^n] for [0 <= n <= 255]. *)

val ones_low : int -> t
(** [ones_low k] is a mask with the low [k] bytes set to [0xff]. *)

val ones_high : int -> t
(** [ones_high k] is a mask with the high [k] bytes set to [0xff]. *)

val pp : Format.formatter -> t -> unit
