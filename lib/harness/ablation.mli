(** Mechanism ablation (this reproduction's own study, motivated by
    DESIGN.md's calibration story).

    The simulator attributes inconsistencies to five mechanisms, each a
    documented behaviour of the real toolchains. An ablation disables one
    mechanism in every compiler configuration and replays the {e same}
    generated programs and inputs through the modified matrix, so the
    drop in inconsistency rate measures that mechanism's marginal
    contribution:

    - [no-cuda-libm]: the device links the host's math library (no
      last-ulp vendor divergence);
    - [no-fma-gap]: every compiler contracts with the same syntactic
      policy at the same levels (nvcc loses its [-O0] default, gcc its
      cross-statement reach);
    - [no-fold-divergence]: no compiler folds math calls on constants
      with divergent semantics;
    - [no-fastmath]: [03_fastmath] compiles exactly like [03] (no
      value-unsafe rewrites, FTZ, fast libms, or NaN-branch flips);
    - [full]: the unmodified model, for reference. *)

type variant = {
  name : string;
  description : string;
  configs : Compiler.Config.t list;
}

val variants : unit -> variant list
(** [full] first, then each ablation. *)

val replay :
  variant -> (Lang.Ast.program * Irsim.Inputs.t) list -> Difftest.Stats.t
(** Run the corpus through the variant's matrix, in corpus order. *)

val table : ?budget:int -> seed:int -> unit -> string
(** Generate an LLM4FP corpus once (default budget 300) and render the
    per-variant inconsistency rates with their deltas. *)
