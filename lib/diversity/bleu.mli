(** BLEU-style n-gram precision between token sequences.

    The n-gram components of CodeBLEU (Ren et al., 2020): modified n-gram
    precision with clipping, geometric mean over n = 1..4, and a brevity
    penalty. The weighted variant multiplies each n-gram's count by the
    maximum token weight it contains (keywords weigh more), following the
    reference implementation's keyword-weighted unigram idea extended to
    all orders. *)

type table
(** The n-gram multisets of one token sequence (orders 1..4), each n-gram
    carrying its count and its weight, reusable across many pairings. *)

val table : ?weights:int array -> Vocab.t -> int array -> table
(** The table of one sequence of token ids of the vocabulary
    ({!Vocab.string}); only tables of one vocabulary can be paired.
    [weights] (default 1 each) gives each token's weight; an n-gram
    weighs as its heaviest token, and at least 1. *)

type overlap
(** The clipped matches Σ min(c, r) of two tables, per order, plain and
    weighted. *)

val overlap : table -> table -> overlap
(** Symmetric in its arguments: one overlap serves both directions.
    @raise Invalid_argument on tables of different vocabularies. *)

val directed :
  ?weighted:bool -> candidate:table -> reference:table -> overlap -> float
(** BLEU of [candidate] against [reference] given their overlap:
    geometric mean of modified precisions times brevity penalty, in
    [0, 1]. [weighted] (default false) uses the weighted counts. Empty
    candidates score 0 against non-empty references and 1 against empty
    ones. Smoothing: zero precisions are floored at [1e-9] before the
    geometric mean (standard smoothing-epsilon). *)

val score : candidate:table -> reference:table -> float
(** Plain BLEU of one ordered pair: [directed] on their [overlap]. *)
