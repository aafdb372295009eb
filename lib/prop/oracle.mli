(** Reference renderings that fast code is checked against.

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
