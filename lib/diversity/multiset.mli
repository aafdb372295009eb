(** Multisets of token windows with integer counts: the one
    representation of every CodeBLEU component (n-grams, AST subtrees,
    dataflow edges).

    Every key is a window of [n] consecutive tokens of one token array,
    hashed from its tokens' [Hashtbl.hash]. A multiset is a set of
    parallel arrays sorted by (key hash, key), so the clipped match of
    two multisets, Σ min(c, r) over their common keys, is one linear
    merge that allocates nothing. Keys are compared, token by token, only
    when their hashes tie, so a hash collision never merges two distinct
    keys; physically equal tokens compare without reading them, so
    arrays that share their equal tokens (as {!Codebleu.corpus_mean}'s
    do) settle ties by pointer. Each key also carries an integer
    weight. *)

type t

val windows : ?weight:(string -> int) -> int -> string array -> t array
(** [windows max_n toks]: for each [n] in 1 .. [max_n] (index [n - 1]),
    the multiset of the windows of [n] consecutive tokens of [toks], one
    occurrence per start. A window weighs as its heaviest token and at
    least 1; [weight] (default 1) gives each token's weight. *)

val of_array : string array -> t
(** The multiset of single-token keys, each of weight 1. *)

val cardinal : t -> int
(** Σ count. *)

val weighted_cardinal : t -> int
(** Σ weight × count. *)

val inter : t -> t -> int * int
(** [(Σ min(c, r), Σ weight × min(c, r))] over the keys both multisets
    contain, which must be windows of the same length. Symmetric in its
    arguments. *)

val fraction : t -> int -> float
(** [fraction candidate matched]: [matched /. cardinal candidate], and 1
    for an empty candidate (CodeBLEU's convention for the AST and
    dataflow components). *)
