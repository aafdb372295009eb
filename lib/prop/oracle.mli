(** Reference implementations that fast code is checked against.

    CodeBLEU's AST component once keyed every subtree by a canonical
    string rendering ([idx(id,lit)], [(id+lit)], [sin(id)],
    [assign(id,+=,lit)], [if(id<lit){...}], [for(8){...}], statements
    joined by [;]). {!Diversity.Ast_match} now keys it by an integer id;
    the renderer stays here so that the property suites and the tests
    can check that the ids partition subtrees exactly as the renderings
    did. *)

val subtree_renderings : Lang.Ast.program -> string array
(** The rendering of every subtree of the program's body, in the order
    of {!Diversity.Ast_match.subtrees}: each child before its parent,
    the statements in body order. *)

val same_partition : int array -> string array -> bool
(** [same_partition ids renderings]: both arrays have one entry per
    subtree, and two entries have equal ids exactly when they have equal
    renderings. *)

val blind_key : Cparse.Lex.token array -> string
(** The Type-2 clone key spelled from a token array: the tokens
    separated by single spaces, [Float_tok] as [lit], [Int_tok] as
    [ilit], non-keyword identifiers as [id], everything else by
    {!Cparse.Lex.to_string}. {!Cparse.Lex.blind_key} spells the same
    key straight from the text. *)

val clones : Lang.Ast.program list -> Diversity.Clones.report
(** The clone counts from all three keys of every program, each looked
    up in its own table of the earlier programs' keys, the Type-2 key by
    {!blind_key}; {!Diversity.Clones.analyze} renders the stricter keys
    only inside a Type-2 class. *)
