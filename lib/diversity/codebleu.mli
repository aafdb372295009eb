(** CodeBLEU (Ren et al., 2020), as used by the paper's diversity
    evaluation (§3.2.2, Table 3).

    CodeBLEU(cand, ref) = α·BLEU + β·BLEU_weighted + γ·Match_ast +
    δ·Match_df with α = β = γ = δ = 0.25. Tokens come from the mini-C
    lexer; keywords (C keywords and math-library names) weigh 4× in the
    weighted component; the AST component matches abstracted subtrees;
    the dataflow component matches alpha-normalized def-use edges.

    A {e lower} average pairwise score means a more diverse program set. *)

type summary
(** Everything precomputed about one program (token n-grams, subtree
    multiset, dataflow edges), each key an id of one {!Vocab}, so pair
    scoring is integer merging. *)

val summarize : Lang.Ast.program -> summary
(** The summary in one process-wide vocabulary (built under a lock, so
    from any domain): every summary built this way can be paired with
    every other. The vocabulary only grows; {!corpus_mean} never uses
    it. *)

val summarize_in : Vocab.t -> Lang.Ast.program -> summary
(** The summary in the given vocabulary: it pairs only with summaries of
    the same vocabulary. *)

val pair_score : candidate:summary -> reference:summary -> float
(** CodeBLEU of one ordered pair, in [0, 1].
    @raise Invalid_argument on summaries of different vocabularies. *)

val symmetric : summary -> summary -> float
(** Mean of both directions, bit-identical to
    [0.5 *. (pair_score a b +. pair_score b a)] but matching the two
    summaries only once.
    @raise Invalid_argument on summaries of different vocabularies. *)

val default_max_pairs : int
(** 50_000: the sample size of {!corpus_mean} and of [tables]. *)

val corpus_mean :
  ?max_pairs:int -> seed:int -> Lang.Ast.program list -> float
(** Average symmetric pairwise score over all unordered pairs, with the
    summaries in one vocabulary of the call; when the pair count exceeds
    [max_pairs] (default {!default_max_pairs}) a deterministic uniform
    sample of that many pairs is used (the sampling seed is [seed]).
    Returns 0 for fewer than two programs.
    @raise Invalid_argument if [max_pairs < 1]. *)

val keyword_weight : string -> int
(** 4 for keywords, 1 otherwise (exposed for tests). Integer weights keep
    every count an integer, so clipped sums are exact in any order. *)
