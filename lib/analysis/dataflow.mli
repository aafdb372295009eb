(** Def-use dataflow extraction.

    CodeBLEU's semantic component compares data-flow graphs: each
    assignment contributes edges from the variables it reads to the
    variable it writes. Identifiers are alpha-normalized first, so the
    comparison is insensitive to naming, as in the reference
    implementation. *)

type edge = { def : string; use : string }
(** [def] is the written variable, [use] one variable read by the defining
    expression. Compound assignments also read their own target. *)

val edges : Lang.Ast.program -> edge list
(** All def-use edges in body order (duplicates preserved — the graph is a
    multiset, matching CodeBLEU's recall-style counting). The program is
    alpha-normalized internally. *)
