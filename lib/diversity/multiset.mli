(** Multisets of vocabulary ids with integer counts: the one
    representation of every CodeBLEU component (n-grams, AST subtrees,
    dataflow edges).

    A multiset holds its distinct ids in ascending order, each with a
    count and an integer weight, so the clipped match of two multisets,
    Σ min(c, r) over their common ids, is one linear merge of two integer
    arrays that allocates nothing. Equal ids are equal keys
    ({!Vocab}), so the merge never looks at a key. Multisets are only
    comparable within one vocabulary. *)

type t

val windows : Vocab.t -> int -> weights:int array -> int array -> t array
(** [windows v max_n ~weights toks]: for each [n] in 1 .. [max_n]
    (index [n - 1]), the multiset of the n-grams of the token ids [toks],
    one occurrence per start. A unigram is its token's id; an n-gram of
    order [n >= 2] is {!Vocab.gram} of its first [n - 1] tokens' n-gram
    and its last token. An n-gram weighs as its heaviest token and at
    least 1; [weights.(i)] is the weight of token [i]. *)

val of_ids : Vocab.t -> int array -> int -> t
(** [of_ids v ids n]: the multiset of the first [n] ids of [ids], each of
    weight 1. *)

val cardinal : t -> int
(** Σ count. *)

val weighted_cardinal : t -> int
(** Σ weight × count. *)

val inter : t -> t -> int * int
(** [(Σ min(c, r), Σ weight × min(c, r))] over the ids both multisets
    contain. Symmetric in its arguments.
    @raise Invalid_argument on multisets of different vocabularies. *)

val fraction : t -> int -> float
(** [fraction candidate matched]: [matched /. cardinal candidate], and 1
    for an empty candidate (CodeBLEU's convention for the AST and
    dataflow components). *)
