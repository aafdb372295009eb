type t =
  | Direct of { precision : Lang.Ast.precision }
  | Grammar of { precision : Lang.Ast.precision }
  | Mutate of { precision : Lang.Ast.precision; example : Lang.Ast.program }

let kind = function
  | Direct _ -> "direct"
  | Grammar _ -> "grammar"
  | Mutate _ -> "mutate"

let guidelines =
  [
    "Use only the headers stdio.h, stdlib.h and math.h.";
    "The program must contain exactly two functions: main and compute.";
    "compute takes scalar/array floating-point and integer parameters, \
     performs a sequence of arithmetic operations, and prints a single \
     scalar result to standard output.";
    "Initialize every variable before use.";
    "Avoid undefined behavior: no out-of-bounds accesses, no \
     uninitialized reads, no integer division by zero.";
    "Output plain code only, with no formatting or explanation.";
  ]

let mutation_strategy_names =
  [
    "reorder or deeply nest arithmetic expressions";
    "change numeric constants";
    "introduce new control flow such as nested loops or conditionals";
    "use different math library functions";
    "insert intermediate computations";
  ]

let grammar_text =
  {|<function>   ::= "void" "compute" "(" <param-list> ")" "{" <block> "}"
<param-decl> ::= "int" <id> | <fp-type> <id> | <fp-type> "*" <id>
<assignment> ::= "comp" <assign-op> <expression> ";"
               | <fp-type> <id> <assign-op> <expression> ";"
<expression> ::= <term> | "(" <expression> ")"
               | <expression> <op> <expression>
<term>       ::= <identifier> | <fp-numeral>
<block>      ::= {<assignment>}+ | <if-block> <block> | <for-block> <block>
<if-block>   ::= "if" "(" <bool-expression> ")" "{" <block> "}"
<for-block>  ::= "for" "(" "int" <id> "=" "0" ";" <id> "<" <int-numeral>
                 ";" "++" <id> ")" "{" <block> "}"|}

let precision_name = function
  | Lang.Ast.F64 -> "double"
  | Lang.Ast.F32 -> "single (float)"

let bullet lines = String.concat "\n" (List.map (fun l -> "- " ^ l) lines)

let render = function
  | Direct { precision } ->
    Printf.sprintf
      "Create a random but valid floating-point C program.\n\
       Use %s precision for all floating-point variables.\n\
       Guidelines:\n%s\n"
      (precision_name precision) (bullet guidelines)
  | Grammar { precision } ->
    Printf.sprintf
      "Create a random but valid floating-point C program.\n\
       Use %s precision for all floating-point variables.\n\
       The compute function must follow this grammar:\n%s\n\
       Guidelines:\n%s\n"
      (precision_name precision) grammar_text (bullet guidelines)
  | Mutate { precision; example } ->
    Printf.sprintf
      "Change the following floating-point C program to create a new one \
       that behaves differently.\n\
       Use %s precision for all floating-point variables.\n\
       Guidelines:\n%s\n\
       Consider these mutation strategies:\n%s\n\
       Program to mutate:\n%s\n"
      (precision_name precision) (bullet guidelines)
      (bullet mutation_strategy_names)
      (Lang.Pp.compute_to_string example)

(* Words are maximal runs of characters other than ' ' and '\n',
   counted in one pass. *)
let token_count s =
  let words = ref 0 and in_word = ref false in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ' ' | '\n' -> in_word := false
    | _ -> if not !in_word then (in_word := true; incr words)
  done;
  !words

(* Direct and Grammar texts depend only on the precision, so their
   counts are taken once per precision, when the module initializes. *)
let per_precision count =
  let f64 = count Lang.Ast.F64 and f32 = count Lang.Ast.F32 in
  function Lang.Ast.F64 -> f64 | Lang.Ast.F32 -> f32

let direct_tokens =
  per_precision (fun precision -> token_count (render (Direct { precision })))

let grammar_tokens =
  per_precision (fun precision -> token_count (render (Grammar { precision })))

let tokens = function
  | Direct { precision } -> direct_tokens precision
  | Grammar { precision } -> grammar_tokens precision
  | Mutate _ as p -> token_count (render p)
