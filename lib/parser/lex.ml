type token =
  | Int_tok of int
  | Float_tok of float
  | Ident of string
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Plus | Minus | Star | Slash
  | Comma | Semi
  | Assign | Plus_eq | Minus_eq | Star_eq | Slash_eq
  | Lt | Le | Gt | Ge | Eq_eq | Ne
  | Plus_plus
  | Amp
  | String_lit of string
  | Lshift
  | Rshift

exception Error of string

let keywords =
  [ "void"; "int"; "float"; "double"; "for"; "if"; "else"; "while"; "return";
    "const"; "sizeof"; "__global__"; "printf"; "atof"; "atoi"; "main";
    "compute" ]
  @ List.map Lang.Ast.math_fn_name (Array.to_list Lang.Ast.all_math_fns)

let max_keyword_length =
  List.fold_left (fun m k -> Int.max m (String.length k)) 0 keywords

(* The keywords by their first character, so that a span is compared
   with the few keywords of its initial and length, in place. *)
let by_initial =
  let t = Array.make 256 [] in
  List.iter (fun k -> t.(Char.code k.[0]) <- k :: t.(Char.code k.[0])) keywords;
  t

let rec same_bytes src start k i len =
  i = len
  || String.unsafe_get src (start + i) = String.unsafe_get k i
     && same_bytes src start k (i + 1) len

let rec keyword_among src start len = function
  | [] -> false
  | k :: rest ->
    (String.length k = len && same_bytes src start k 0 len)
    || keyword_among src start len rest

(* Whether [src]'s [len] bytes from [start] (at least one) spell a
   keyword. *)
let keyword_span src start len =
  len <= max_keyword_length
  && keyword_among src start len
       (Array.unsafe_get by_initial (Char.code (String.unsafe_get src start)))

let is_keyword s = s <> "" && keyword_span s 0 (String.length s)

(* The runtime primitive [Printf.sprintf "%.17g"] calls, without the
   format interpretation (as [Lang.Pp] does for its literals). *)
external format_float : string -> float -> string = "caml_format_float"

let to_string = function
  | Int_tok v -> string_of_int v
  | Float_tok v -> format_float "%.17g" v
  | Ident s -> s
  | Lparen -> "(" | Rparen -> ")"
  | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]"
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/"
  | Comma -> "," | Semi -> ";"
  | Assign -> "=" | Plus_eq -> "+=" | Minus_eq -> "-=" | Star_eq -> "*="
  | Slash_eq -> "/="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq_eq -> "==" | Ne -> "!="
  | Plus_plus -> "++"
  | Amp -> "&"
  | String_lit s -> "\"" ^ s ^ "\""
  | Lshift -> "<<"
  | Rshift -> ">>"

(* ------------------------------------------------------------------ *)
(* The scanner. It decides every token boundary, the int/float split of
   numerals and every error, and leaves the token's span in its state;
   {!tokens} and {!blind_key} only consume what it found. *)

(* What the scanner found: a fixed token, or a token whose text is the
   span [start, pos). The [Fixed] values passed below are constants, so
   finding a token allocates nothing. *)
type kind = End | Int | Float | Name | Str | Fixed of token

type scanner = {
  src : string;
  stop : int;              (* the scan ends here *)
  mutable pos : int;       (* the next byte to read *)
  mutable line : int;
  mutable start : int;     (* the first byte of the last token *)
  mutable num_end : int;   (* a [Float]'s text ends here (before any suffix) *)
  mutable value : int;     (* an [Int]'s value *)
}

(* Bit 0: an identifier character (letter, digit or '_'); bit 1: a
   digit. *)
let classes =
  String.init 256 (fun code ->
      match Char.chr code with
      | '0' .. '9' -> '\003'
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> '\001'
      | _ -> '\000')

let[@inline] is_digit c =
  Char.code (String.unsafe_get classes (Char.code c)) land 2 <> 0

let[@inline] is_ident_char c =
  Char.code (String.unsafe_get classes (Char.code c)) land 1 <> 0

let fail st msg = raise (Error (Printf.sprintf "line %d: %s" st.line msg))

(* The byte at [i], or NUL past the end (no rule starts with it). *)
let[@inline] at st i =
  if i < st.stop then String.unsafe_get st.src i else '\000'

let rec skip_line st i =
  if i >= st.stop then st.pos <- i
  else if String.unsafe_get st.src i = '\n' then begin
    st.line <- st.line + 1;
    st.pos <- i + 1
  end
  else skip_line st (i + 1)

let rec skip_block st i =
  if i + 1 >= st.stop then fail st "unterminated block comment"
  else
    let c = String.unsafe_get st.src i in
    if c = '*' && String.unsafe_get st.src (i + 1) = '/' then st.pos <- i + 2
    else begin
      if c = '\n' then st.line <- st.line + 1;
      skip_block st (i + 1)
    end

let rec skip_digits st j =
  if is_digit (at st j) then skip_digits st (j + 1) else j

(* A numeral from [i]: digits, an optional fraction, an optional
   exponent and an optional [f] suffix. It is an [Int] when it is
   digits alone and fits an [int] (read in place up to 18 digits, where
   none can overflow), else a [Float]. *)
let number st i =
  st.start <- i;
  let v = ref 0 and j = ref i in
  while is_digit (at st !j) do
    v := (!v * 10) + (Char.code (String.unsafe_get st.src !j) - 48);
    incr j
  done;
  let digits_end = !j in
  let is_float = ref (at st !j = '.') in
  if !is_float then j := skip_digits st (!j + 1);
  (match at st !j with
   | 'e' | 'E' ->
     let k = match at st (!j + 1) with '+' | '-' -> !j + 2 | _ -> !j + 1 in
     if is_digit (at st k) then begin
       j := skip_digits st k;
       is_float := true
     end
   | _ -> ());
  let suffix = match at st !j with 'f' | 'F' -> true | _ -> false in
  st.num_end <- !j;
  st.pos <- (if suffix then !j + 1 else !j);
  if !is_float || suffix then Float
  else if digits_end - i <= 18 then begin
    st.value <- !v;
    Int
  end
  else
    match int_of_string_opt (String.sub st.src i (digits_end - i)) with
    | Some v ->
      st.value <- v;
      Int
    | None -> Float

let name st i =
  st.start <- i;
  let j = ref (i + 1) in
  while !j < st.stop && is_ident_char (String.unsafe_get st.src !j) do
    incr j
  done;
  st.pos <- !j;
  Name

(* A string literal whose opening quote is at [i]; a backslash escapes
   the byte after it. *)
let string_lit st i =
  st.start <- i;
  let rec go j =
    if j >= st.stop then fail st "unterminated string literal"
    else
      match String.unsafe_get st.src j with
      | '"' -> st.pos <- j + 1; Str
      | '\\' when j + 1 < st.stop -> go (j + 2)
      | _ -> go (j + 1)
  in
  go (i + 1)

let[@inline] one st i k = st.start <- i; st.pos <- i + 1; k
let[@inline] two st i k = st.start <- i; st.pos <- i + 2; k

(* The next token's kind, after whitespace, comments and preprocessor
   lines. *)
let rec next st =
  let i = st.pos in
  if i >= st.stop then End
  else
    match String.unsafe_get st.src i with
    | ' ' | '\t' | '\r' -> st.pos <- i + 1; next st
    | '\n' -> st.line <- st.line + 1; st.pos <- i + 1; next st
    | '#' -> skip_line st (i + 1); next st
    | '/' -> begin
      match at st (i + 1) with
      | '/' -> skip_line st (i + 2); next st
      | '*' -> skip_block st (i + 2); next st
      | '=' -> two st i (Fixed Slash_eq)
      | _ -> one st i (Fixed Slash)
    end
    | '+' -> begin
      match at st (i + 1) with
      | '+' -> two st i (Fixed Plus_plus)
      | '=' -> two st i (Fixed Plus_eq)
      | _ -> one st i (Fixed Plus)
    end
    | '-' when at st (i + 1) = '=' -> two st i (Fixed Minus_eq)
    | '-' -> one st i (Fixed Minus)
    | '*' when at st (i + 1) = '=' -> two st i (Fixed Star_eq)
    | '*' -> one st i (Fixed Star)
    | '(' -> one st i (Fixed Lparen)
    | ')' -> one st i (Fixed Rparen)
    | '{' -> one st i (Fixed Lbrace)
    | '}' -> one st i (Fixed Rbrace)
    | '[' -> one st i (Fixed Lbracket)
    | ']' -> one st i (Fixed Rbracket)
    | ',' -> one st i (Fixed Comma)
    | ';' -> one st i (Fixed Semi)
    | '&' -> one st i (Fixed Amp)
    | '"' -> string_lit st i
    | '<' -> begin
      match at st (i + 1) with
      | '<' -> two st i (Fixed Lshift)
      | '=' -> two st i (Fixed Le)
      | _ -> one st i (Fixed Lt)
    end
    | '>' -> begin
      match at st (i + 1) with
      | '>' -> two st i (Fixed Rshift)
      | '=' -> two st i (Fixed Ge)
      | _ -> one st i (Fixed Gt)
    end
    | '=' when at st (i + 1) = '=' -> two st i (Fixed Eq_eq)
    | '=' -> one st i (Fixed Assign)
    | '!' when at st (i + 1) = '=' -> two st i (Fixed Ne)
    | '0' .. '9' -> number st i
    | '.' when is_digit (at st (i + 1)) -> number st i
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> name st i
    | c -> fail st (Printf.sprintf "unexpected character %C" c)

let scanner ?len src =
  let stop =
    match len with
    | None -> String.length src
    | Some len when len >= 0 && len <= String.length src -> len
    | Some _ -> invalid_arg "Lex.blind_key: len out of range"
  in
  { src; stop; pos = 0; line = 1; start = 0; num_end = 0; value = 0 }

(* ------------------------------------------------------------------ *)
(* The two consumers. *)

let tokens src =
  let st = scanner src in
  (* A growable array of chunks that fit the minor heap (256 words),
     where stores skip the major heap's remembered set; the result is
     allocated once, at its final size. *)
  let chunk_size = 256 in
  let full = ref [] and chunk = ref (Array.make chunk_size Semi) in
  let used = ref 0 in
  let emit tok =
    if !used = chunk_size then begin
      full := !chunk :: !full;
      chunk := Array.make chunk_size Semi;
      used := 0
    end;
    Array.unsafe_set !chunk !used tok;
    incr used
  in
  (* The token's text, less [skip] bytes at each end. *)
  let text skip =
    String.sub src (st.start + skip) (st.pos - st.start - (2 * skip))
  in
  let rec go () =
    match next st with
    | End -> ()
    | Fixed tok -> emit tok; go ()
    | Int -> emit (Int_tok st.value); go ()
    | Float ->
      let numeral = String.sub src st.start (st.num_end - st.start) in
      emit (Float_tok (float_of_string numeral));
      go ()
    | Name -> emit (Ident (text 0)); go ()
    | Str -> emit (String_lit (text 1)); go ()
  in
  go ();
  Array.concat (List.rev (Array.sub !chunk 0 !used :: !full))

(* A kind's spelling in the blind key: numerals and non-keyword
   identifiers collapse, everything else is spelled as written. *)
let add_blind b st = function
  | End -> ()
  | Fixed tok -> Buffer.add_string b (to_string tok)
  | Int -> Buffer.add_string b "ilit"
  | Float -> Buffer.add_string b "lit"
  | Name ->
    let len = st.pos - st.start in
    if keyword_span st.src st.start len then
      Buffer.add_substring b st.src st.start len
    else Buffer.add_string b "id"
  | Str -> Buffer.add_substring b st.src st.start (st.pos - st.start)

let blind_key ?len src =
  let st = scanner ?len src in
  let b = Buffer.create (st.stop + 16) in
  let rec go sep =
    match next st with
    | End -> ()
    | kind ->
      if sep then Buffer.add_char b ' ';
      add_blind b st kind;
      go true
  in
  go false;
  Buffer.contents b
