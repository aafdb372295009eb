(** Lexer for the mini-C subset.

    Tokenizes the text emitted by {!Pp} (and the corpus/mutation sources),
    skipping whitespace, [//] and [/* */] comments, and preprocessor lines.
    The token stream is also the substrate for the diversity metrics: BLEU
    n-grams are computed over [to_string] renderings and the weighted
    n-gram match boosts [is_keyword] tokens. *)

type token =
  | Int_tok of int
  | Float_tok of float
  | Ident of string      (** identifiers and keywords *)
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Plus | Minus | Star | Slash
  | Comma | Semi
  | Assign | Plus_eq | Minus_eq | Star_eq | Slash_eq
  | Lt | Le | Gt | Ge | Eq_eq | Ne
  | Plus_plus
  | Amp                   (** ['&'], appears in CUDA boilerplate *)
  | String_lit of string  (** printf format strings *)
  | Lshift                (** ["<<"], kernel launch syntax *)
  | Rshift                (** [">>"] *)

exception Error of string
(** Raised on an unrecognized character, with a line-numbered message. *)

val tokens : string -> token array
(** Tokenize a whole source text, in one pass. Raises {!Error}. *)

val to_string : token -> string
(** Canonical spelling of one token (string literals are re-quoted). *)

val is_keyword : string -> bool
(** C keywords and the math-library function names used by the language;
    drives the weighted n-gram component of CodeBLEU. *)
