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

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let tokens src =
  let n = String.length src in
  let line = ref 1 in
  let fail msg = raise (Error (Printf.sprintf "line %d: %s" !line msg)) in
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
  (* The character at [i], or NUL past the end (no rule starts with it). *)
  let at i = if i < n then String.unsafe_get src i else '\000' in
  let rec skip_line i =
    if i >= n then i
    else if src.[i] = '\n' then begin incr line; i + 1 end
    else skip_line (i + 1)
  in
  let rec skip_block i =
    if i + 1 >= n then fail "unterminated block comment"
    else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
    else begin
      if src.[i] = '\n' then incr line;
      skip_block (i + 1)
    end
  in
  let rec digits j = if j < n && is_digit src.[j] then digits (j + 1) else j in
  (* Emits one numeral and returns the index after it. *)
  let lex_number i =
    let j = digits i in
    let is_float = j < n && src.[j] = '.' in
    let j = if is_float then digits (j + 1) else j in
    let j, is_float =
      if at j = 'e' || at j = 'E' then
        let k = if at (j + 1) = '+' || at (j + 1) = '-' then j + 2 else j + 1 in
        if is_digit (at k) then (digits k, true) else (j, is_float)
      else (j, is_float)
    in
    let text = String.sub src i (j - i) in
    (* Consume an optional float suffix. *)
    let suffix = at j = 'f' || at j = 'F' in
    emit
      (if is_float || suffix then Float_tok (float_of_string text)
       else
         match int_of_string_opt text with
         | Some v -> Int_tok v
         | None -> Float_tok (float_of_string text));
    if suffix then j + 1 else j
  in
  (* Emits one string literal (opening quote at [i - 1]) and returns the
     index after its closing quote. *)
  let lex_string i =
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= n then fail "unterminated string literal"
      else
        match src.[i] with
        | '"' -> emit (String_lit (Buffer.contents buf)); i + 1
        | '\\' when i + 1 < n ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf src.[i + 1];
          go (i + 2)
        | c ->
          Buffer.add_char buf c;
          go (i + 1)
    in
    go i
  in
  let one tok i = emit tok; i + 1 and two tok i = emit tok; i + 2 in
  let rec go i =
    if i < n then
      go
        (match src.[i] with
         | ' ' | '\t' | '\r' -> i + 1
         | '\n' -> incr line; i + 1
         | '#' -> skip_line (i + 1)
         | '/' when at (i + 1) = '/' -> skip_line (i + 2)
         | '/' when at (i + 1) = '*' -> skip_block (i + 2)
         | '/' when at (i + 1) = '=' -> two Slash_eq i
         | '/' -> one Slash i
         | '+' when at (i + 1) = '+' -> two Plus_plus i
         | '+' when at (i + 1) = '=' -> two Plus_eq i
         | '+' -> one Plus i
         | '-' when at (i + 1) = '=' -> two Minus_eq i
         | '-' -> one Minus i
         | '*' when at (i + 1) = '=' -> two Star_eq i
         | '*' -> one Star i
         | '(' -> one Lparen i
         | ')' -> one Rparen i
         | '{' -> one Lbrace i
         | '}' -> one Rbrace i
         | '[' -> one Lbracket i
         | ']' -> one Rbracket i
         | ',' -> one Comma i
         | ';' -> one Semi i
         | '&' -> one Amp i
         | '"' -> lex_string (i + 1)
         | '<' when at (i + 1) = '<' -> two Lshift i
         | '<' when at (i + 1) = '=' -> two Le i
         | '<' -> one Lt i
         | '>' when at (i + 1) = '>' -> two Rshift i
         | '>' when at (i + 1) = '=' -> two Ge i
         | '>' -> one Gt i
         | '=' when at (i + 1) = '=' -> two Eq_eq i
         | '=' -> one Assign i
         | '!' when at (i + 1) = '=' -> two Ne i
         | c when is_digit c || (c = '.' && is_digit (at (i + 1))) ->
           lex_number i
         | c when is_ident_start c ->
           let j = ref i in
           while !j < n && is_ident_char src.[!j] do incr j done;
           emit (Ident (String.sub src i (!j - i)));
           !j
         | c -> fail (Printf.sprintf "unexpected character %C" c))
  in
  go 0;
  Array.concat (List.rev (Array.sub !chunk 0 !used :: !full))

let keywords =
  [ "void"; "int"; "float"; "double"; "for"; "if"; "else"; "while"; "return";
    "const"; "sizeof"; "__global__"; "printf"; "atof"; "atoi"; "main";
    "compute" ]

(* String-keyed, so a lookup hashes and compares strings directly
   instead of through the polymorphic primitives. *)
module String_table = Hashtbl.Make (String)

let keyword_table =
  let tbl = String_table.create 64 in
  List.iter (fun k -> String_table.replace tbl k ()) keywords;
  Array.iter
    (fun fn -> String_table.replace tbl (Lang.Ast.math_fn_name fn) ())
    Lang.Ast.all_math_fns;
  tbl

let is_keyword s = String_table.mem keyword_table s

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
