(** Baseline double-precision math-library semantics.

    This is the semantics of the GNU C library's libm as seen through the
    host platform (which is what the paper's host compilations link
    against, §3.1.1). All vendor variants are expressed relative to it.

    Functions whose IEEE-754 results are exactly specified (sqrt, fabs,
    floor, ceil, fmin, fmax, fmod) are identical across every vendor; see
    {!is_exactly_rounded}. *)

val eval1 : Lang.Ast.math_fn -> float -> float
val eval2 : Lang.Ast.math_fn -> float -> float -> float
(** [eval1 fn] and [eval2 fn] resolve [fn] when partially applied and
    return the bare function; they raise [Invalid_argument] on a
    function of the other arity. *)

val is_exactly_rounded : Lang.Ast.math_fn -> bool
(** True for operations the IEEE standard fully specifies — every correct
    library agrees bit-for-bit, so vendor perturbation never applies. *)
