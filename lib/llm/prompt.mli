(** The three prompt shapes of the paper.

    - {b Direct} (§3.2.1, Direct-Prompt baseline): "generate a random but
      valid floating-point C program", precision, the high-level
      main/compute structure, and the robustness guidelines — no grammar,
      no examples.
    - {b Grammar} (§2.3.1 and the Grammar-Guided baseline): Direct plus
      the Figure-2 grammar specification.
    - {b Mutate} (§2.3.2, Feedback-Based Mutation): change a given
      successful program into a different one; precision, structure,
      guidelines, the five mutation strategies, and the example program.

    [render] produces the literal prompt text (used for documentation,
    the examples, and latency accounting); the mock client consumes the
    structured value. *)

type t =
  | Direct of { precision : Lang.Ast.precision }
  | Grammar of { precision : Lang.Ast.precision }
  | Mutate of { precision : Lang.Ast.precision; example : Lang.Ast.program }

val kind : t -> string
(** ["direct"], ["grammar"] or ["mutate"] — the label trace events and
    metrics use for the prompt shape. *)

val guidelines : string list
(** The robustness/code-quality guidelines shared by all prompts
    (§2.3.1): allowed headers, initialization, no undefined behavior,
    plain-code output. *)

val mutation_strategy_names : string list
(** The paper's five mutation strategies, in order. *)

val grammar_text : string
(** A rendering of the Figure-2 grammar included in Grammar prompts. *)

val render : t -> string
(** Full prompt text. *)

val token_count : string -> int
(** Whitespace-delimited token estimate, used by the latency model. *)

val tokens : t -> int
(** [token_count (render p)]. A Direct or Grammar text depends only on
    its precision, so its count is computed once per precision; a Mutate
    prompt, which embeds its example, is rendered and counted per call. *)
