(** A vocabulary: one dense integer id per distinct key that CodeBLEU
    compares, so that every comparison of two keys is one integer
    comparison.

    Strings (tokens, variable names) get ids through a string table.
    Every other key is a pair of ids under a tag and gets its id by
    hash-consing: the pair is packed into one non-negative integer, and
    each distinct packed key gets the next id. Strings and packed keys
    draw from one counter, so two ids are equal exactly when they stand
    for the same string or the same tagged pair, and by induction for
    the same n-gram, subtree or edge.

    Ids are only comparable within one vocabulary: {!Codebleu.corpus_mean}
    builds one per call and drops it with the call. *)

type t

val create : ?size:int -> unit -> t
(** An empty vocabulary whose key table holds about [size] (default
    256) packed keys before it grows. *)

val identity : t -> int
(** Distinct for every vocabulary created in the process. *)

val string : t -> string -> int
(** The id of a string. *)

val gram : t -> int -> int -> int
(** [gram v prefix last]: the id of the n-gram made of the n-gram (or
    token) [prefix] followed by the token [last]. *)

val edge : t -> int -> int -> int
(** [edge v def use]: the id of the def-use edge between the variables
    with ids [def] and [use]. *)

val node : t -> int -> int -> int -> int
(** [node v kind a b]: the id of a syntax-tree node of kind [kind] (0 to
    61) with fields [a] and [b], each an id or a small code below
    2{^ 28}. @raise Invalid_argument on a field or kind out of range. *)
