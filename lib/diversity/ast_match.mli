(** Syntactic subtree matching (CodeBLEU's AST component).

    Every program is summarized as the multiset of its AST subtrees, with
    identifiers abstracted to [id] and numeric literals to [lit] (the
    reference implementation also compares subtrees name-insensitively).
    A subtree is identified by its {!Vocab.node} id: the node's kind (one
    per constructor and role: operator, comparison, assignment operator,
    function, loop bound, argument and statement lists) over its
    children's ids. Two subtrees get equal ids exactly when their
    canonical renderings ([idx(id,lit)], [(id+lit)], [for(8){...}], ...)
    are equal, since such a rendering is a fully delimited prefix code
    of the abstracted tree. The match score of a candidate against a
    reference is the clipped fraction of candidate subtrees found in the
    reference. *)

type summary = Multiset.t
(** The subtree multiset. *)

val subtrees : Vocab.t -> Lang.Ast.program -> int array
(** The id of every subtree of the program's body, each child before its
    parent and the statements in body order. *)

val summarize : Vocab.t -> Lang.Ast.program -> summary

val score : candidate:summary -> reference:summary -> float
(** In [0, 1]; 1.0 when the candidate has no subtrees.
    @raise Invalid_argument on summaries of different vocabularies. *)
