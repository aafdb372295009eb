(** Arbitraries over the framework's own domain: generated programs and
    their input vectors.

    Generation delegates to the Varity grammar generator (always valid by
    construction); shrinking proposes structurally smaller programs —
    statement removal at any depth, loop/branch body splicing, expression
    hoisting and literal simplification — and filters every candidate
    through {!Analysis.Validate.check} so shrunk programs stay well-typed
    and in-bounds. The same shrinkers back the {!Reduce} delta-debugging
    loop over archived cases. *)

val shrink_expr : Lang.Ast.expr -> Lang.Ast.expr Seq.t
(** Hoist an operand/argument over its parent node, simplify literals
    toward 0/1, and recurse. Candidates are not validity-filtered. *)

val shrink_body : Lang.Ast.stmt list -> Lang.Ast.stmt list Seq.t
(** Statement removal (any depth), [If]/[For] body splicing, and
    in-place expression shrinking, one rewrite per candidate. *)

val shrink_program : Lang.Ast.program -> Lang.Ast.program Seq.t
(** {!shrink_body} on the body, keeping only candidates that pass
    {!Analysis.Validate.check}. Parameters are never touched, so any
    input vector that matched the original still matches. *)

val shrink_inputs : Irsim.Inputs.t -> Irsim.Inputs.t Seq.t
(** Pointwise value shrinking toward 0 (scalars) and zeroed/simplified
    elements (arrays). Arity and array lengths are preserved. *)

val program : Lang.Ast.program Engine.arb
(** Varity-generated programs, printed as C. *)

val case : (Lang.Ast.program * Irsim.Inputs.t) Engine.arb
(** Program/input pairs as produced by [Gen.Varity.gen_case]: the
    program shrinks first, then the inputs. *)

val colliding_tokens : (string * string) Lazy.t
(** The first two of ["t0"], ["t1"], … with equal [Hashtbl.hash]: a
    string table must still give them distinct ids. *)

val token_windows : (int * string array * string array) Engine.arb
(** An order bound from 1 to 16 and two arrays of up to 40 tokens over a
    seven-token alphabet that holds {!colliding_tokens}. Each token is
    the alphabet's string or, half the time, a fresh copy of it, so equal
    tokens are sometimes physically distinct. Shrinking removes
    tokens. *)
