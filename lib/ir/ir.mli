(** Intermediate representation for the compiler simulator.

    Programs are lowered ({!Lower}) from the surface AST into a slot-based
    IR with fully explicit evaluation order: every floating-point rounding
    the executed code performs corresponds to one IR node. Optimization
    passes rewrite this tree — introducing {!expr.Fma} nodes (contraction),
    {!expr.Recip} nodes (reciprocal division), reshaping associativity —
    and the interpreter ({!Interp}) evaluates exactly what the tree says.
    Two compiler configurations produce different printed results if and
    only if their pass pipelines produce semantically different IR or
    their runtimes (math library, FTZ) differ, which is precisely the
    paper's model of compiler-induced numerical inconsistency.

    Integer computations (loop counters, array subscripts) live in a
    separate expression type {!iexpr}; the validator guarantees they are
    statically bounded, so the interpreter never traps. *)

type iexpr =
  | Iconst of int
  | Iload of int          (** integer slot: loop counter or int parameter *)
  | Ineg of iexpr
  | Ibin of Lang.Ast.binop * iexpr * iexpr

type expr =
  | Const of float
  | Load of int           (** scalar floating-point slot *)
  | Load_arr of int * iexpr  (** array slot, subscript *)
  | Itof of iexpr         (** integer value used in floating-point context *)
  | Neg of expr
  | Bin of Lang.Ast.binop * expr * expr
  | Call of Lang.Ast.math_fn * expr list
  | Fma of expr * expr * expr   (** fused [a*b + c], single rounding *)
  | Recip of expr               (** explicit reciprocal: [1.0 / e] *)

type stmt =
  | Store of int * expr
  | Store_arr of int * iexpr * expr
  | If of { lhs : expr; cmp : Lang.Ast.cmpop; rhs : expr; body : stmt list }
  | For of { islot : int; bound : int; body : stmt list }

type param_binding =
  | Bind_fp of int        (** next input scalar goes to this slot *)
  | Bind_int of int
  | Bind_arr of int * int (** array slot, length *)

type t = {
  precision : Lang.Ast.precision;
  n_fslots : int;
  n_islots : int;
  arr_lens : int array;   (** length of each array slot *)
  bindings : param_binding list;  (** in parameter order *)
  body : stmt list;
  comp_slot : int;        (** always 0 *)
}

val expr_size : expr -> int
(** Node count, for pass statistics and tests. *)

val equal : t -> t -> bool

type likeness =
  | Identical  (** equal, every float constant bit for bit *)
  | Compare_equal
      (** equal under [Stdlib.compare] only: some constants differ as
          NaN payloads or as the signs of zeros *)
  | Different

val likeness : t -> t -> likeness
(** Both equalities in one walk: [likeness a b <> Different] exactly
    when [Stdlib.compare a b = 0], and [Identical] when in addition no
    float constant differs in its bits. *)

val pp_expr : Format.formatter -> expr -> unit
val pp : Format.formatter -> t -> unit
(** Debug printer (not valid C). *)

val map_body : (expr -> expr) -> stmt list -> stmt list
(** Rewrite every expression position with [f] (applied to whole
    right-hand sides and condition operands; [f] recurses itself).
    Subscript [iexpr]s are untouched. *)
