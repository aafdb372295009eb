(** Lexer for the mini-C subset.

    Tokenizes the text emitted by {!Pp} (and the corpus/mutation sources),
    skipping whitespace, [//] and [/* */] comments, and preprocessor lines.
    The token stream is also the substrate for the diversity metrics: BLEU
    n-grams are computed over [to_string] renderings and the weighted
    n-gram match boosts [is_keyword] tokens.

    One scanner decides every token boundary, the int/float split of
    numerals (including the [int_of_string_opt] fallback for digit runs
    too long to read in place), string-literal spans and every {!Error}
    message. It has two consumers: {!tokens} builds the token array and
    {!blind_key} spells the Type-2 clone key straight from the text,
    allocating no token. The two therefore agree by construction:
    [blind_key s] raises exactly when [tokens s] does, with the same
    message. *)

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

val blind_key : ?len:int -> string -> string
(** The blind abstraction of the first [len] bytes (default: all) of a
    text: its tokens separated by single spaces, numerals spelled [lit]
    (floats) and [ilit] (ints), non-keyword identifiers [id], keywords
    as written, string literals as written (quotes included) and every
    other token by {!to_string}. Equal to the same spelling of
    [tokens (String.sub src 0 len)]. Raises {!Error}, and
    [Invalid_argument] when [len] is not within the text. *)

val is_keyword : string -> bool
(** C keywords and the math-library function names used by the language;
    drives the weighted n-gram component of CodeBLEU. *)
