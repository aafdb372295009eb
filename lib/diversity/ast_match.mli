(** Syntactic subtree matching (CodeBLEU's AST component).

    Every program is summarized as the multiset of its AST subtrees,
    rendered canonically with identifiers abstracted to [id] and numeric
    literals to [lit] (the reference implementation also compares
    subtrees name-insensitively). The match score of a candidate against
    a reference is the clipped fraction of candidate subtrees found in
    the reference. *)

type summary = Multiset.t
(** The subtree multiset, keyed by canonical rendering. *)

val summarize : ?intern:(string -> string) -> Lang.Ast.program -> summary
(** [intern] (default the identity) maps each rendering to the copy the
    summary keeps; {!Codebleu.corpus_mean} passes one that shares equal
    strings, so equal subtrees compare by pointer. *)

val score : candidate:summary -> reference:summary -> float
(** In [0, 1]; 1.0 when the candidate has no subtrees. *)
