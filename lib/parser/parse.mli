(** Recursive-descent parser for the mini-C subset.

    Accepts both a full translation unit (as emitted by {!Pp.to_c} /
    {!Pp.to_cuda} — includes and [main] are skipped, array parameter
    lengths are recovered from the declarations in [main]) and a bare
    [compute] function (as stored in the LLM corpus, where array lengths
    fall back to [default_array_len]).

    Grammar restrictions mirror Figure 2 of the paper: statements are
    declarations-with-initializer, compound assignments, braced [if]
    blocks with a single comparison, and counted [for] loops starting at
    zero. Expressions are arithmetic over [+ - * /], unary minus,
    parentheses, array indexing, and math-library calls. *)

val program :
  ?default_array_len:int -> string -> (Lang.Ast.program, string) result
(** Parse a program. Its precision is that of the first fp type the unit
    declares, in a parameter or a local declaration ([double] when there
    is none). The error string carries a token-level description of the
    first offending construct. [default_array_len] defaults to 8. *)

val program_exn : ?default_array_len:int -> string -> Lang.Ast.program
(** Like {!program}, raising [Failure] on error. *)

val expr : string -> (Lang.Ast.expr, string) result
(** Parse a standalone expression (test/tooling convenience). *)
