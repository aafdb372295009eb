(** Bit-level views of IEEE-754 binary64 values.

    The paper detects an inconsistency when two results "are not equal in
    their bitwise representations, i.e., the hexadecimal encoding of the
    floating-point result, such as when two 64-bit doubles yield different
    16-character strings" (§2.4). This module provides that encoding, the
    value classification used by RQ2, and ulp-level utilities used by the
    simulated math libraries. *)

type class_ =
  | Real  (** normal or subnormal non-zero finite value *)
  | Zero  (** +0.0 or -0.0 *)
  | Pos_inf
  | Neg_inf
  | Nan

val classify : float -> class_
(** Classification per the paper's five categories (§3.3). *)

val class_name : class_ -> string
(** ["Real"], ["Zero"], ["+Inf"], ["-Inf"], ["NaN"]. *)

val class_pair_name : class_ -> class_ -> string
(** Unordered pair label, e.g. ["{Real, Zero}"]. The order is normalized so
    [{a,b}] and [{b,a}] render identically; one shared string per pair. *)

val hex_of_double : float -> string
(** The 16-character lowercase hexadecimal encoding of the 64 bits. *)

val double_of_hex : string -> float
(** Inverse of [hex_of_double]. Raises [Invalid_argument] on malformed
    input. *)

val bits_of_double : float -> int64
val double_of_bits : int64 -> float

val is_subnormal : float -> bool
(** Non-zero value with a zero biased exponent field. *)

val flush_subnormal : float -> float
(** Flush-to-zero: subnormals become a zero of the same sign; everything
    else is unchanged. Models device fast-math FTZ. *)

val ulp : float -> float
(** Unit in the last place of a finite value: the gap to the next
    representable magnitude. [ulp 0.] is the smallest subnormal. *)

val next_up : float -> float
(** Next representable value toward +infinity. *)

val next_down : float -> float
(** Next representable value toward -infinity. *)

val nudge_ulps : float -> int -> float
(** [nudge_ulps x n] moves [x] by [n] representable steps ([n] may be
    negative). Non-finite inputs are returned unchanged. *)

val nudge_ulps32 : float -> int -> float
(** Like {!nudge_ulps}, but on the binary32 grid: [x] is rounded to
    single precision and moved by [n] single-precision steps. Used when
    modelling vendor divergence of the float math functions
    (sinf/__sinf and friends). *)

val ulp_distance : float -> float -> int64
(** Number of representable doubles strictly between the two finite values
    plus one (0 when bitwise equal, including the -0.0/+0.0 pair at
    distance 1). Raises [Invalid_argument] on NaN. *)
