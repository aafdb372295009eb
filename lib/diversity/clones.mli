(** NiCad-style code clone detection (paper §3.2.2, Table 3).

    The three clone granularities the paper analyzes, defined on whole
    generated programs:

    - {b Type-1}: identical code up to whitespace and comments. Our
      programs are ASTs printed canonically, so Type-1 equals structural
      AST equality (names and literals included).
    - {b Type-2c} (NiCad's consistent-rename subtype): identical after a
      {e consistent} renaming of identifiers — alpha-normalized equality,
      literals must match.
    - {b Type-2}: identical after {e blind} substitution of identifiers
      and literals.

    Type-1 ⊆ Type-2c ⊆ Type-2. Following the paper's accounting, each
    program beyond the first member of a clone class is counted once, in
    the strictest category it satisfies, and the clone percentage is the
    share of such programs among all generated. *)

type report = {
  type1 : int;
  type2 : int;   (** Type-2 but not Type-2c *)
  type2c : int;  (** Type-2c but not Type-1 *)
  total_programs : int;
}

val type1_key : Lang.Ast.program -> string
val type2_key : Lang.Ast.program -> string
val type2c_key : Lang.Ast.program -> string
(** Canonical fingerprints: two programs are clones of the given type iff
    their keys are equal. *)

val type2_key_of_unit : string -> string
(** [type2_key_of_unit (type1_key p) = type2_key p]: the Type-2 key from
    a host unit as {!Lang.Pp.to_c} prints it, lexing only its [compute]
    part instead of rendering [compute] again. *)

val analyze : Lang.Ast.program list -> report

val percentage : report -> float
(** (type1 + type2 + type2c) / total, as a percentage. *)
