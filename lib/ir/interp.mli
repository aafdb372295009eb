(** The reference execution engine.

    Evaluates lowered/optimized IR exactly as written: one binary64 (or
    binary32, for [F32] programs) rounding per arithmetic node, fused
    multiply-adds with a single rounding, math calls dispatched to the
    configured vendor library, and optional flush-to-zero of subnormal
    operands and results (device fast math).

    This is the "run the binary" stage of the paper's pipeline: the
    returned accumulator value is what the generated program would print,
    and its bit pattern is what differential testing compares. The
    tree-walking evaluation here is the semantic reference; {!Vm} is the
    flattened production engine, gated bit-exactly against this module. *)

type runtime = {
  libm : Mathlib.Libm.flavor;
  ftz : bool;  (** flush subnormal operands/results of FP operations *)
  nan_cmp_taken : bool;
      (** finite-math-only branch compilation: when a comparison operand
          is NaN, the branch condition evaluates to [true] instead of
          IEEE's [false]. Real fast-math compilers are free to compile
          [x < y] into the negation of [x >= y]; gcc and nvcc do, clang
          keeps the IEEE-shaped sequence — so NaN-bearing programs
          branch differently across compilers under fast math. *)
}

type outcome = {
  result : float;   (** final value of [comp] *)
  fp_ops : int;     (** dynamic floating-point operation count *)
}

type trap = {
  array : int;   (** array slot of the offending subscript *)
  index : int;   (** the out-of-range index value *)
  length : int;  (** declared length of that array *)
}

exception Trap of trap
(** An out-of-bounds subscript at execution time. The generator's
    validator excludes these from campaign programs, but hand-built or
    reduced IR can still reach one; a typed error keeps it a reportable
    finding rather than a crash. *)

val trap_message : trap -> string
(** One-line human-readable rendering of a trap. *)

val run : runtime -> Ir.t -> Inputs.t -> outcome
(** Execute. Raises [Invalid_argument] when the input vector does not
    match the program's bindings, {!Trap} on an out-of-bounds
    subscript. *)
