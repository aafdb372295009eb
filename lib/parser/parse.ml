open Lang

exception Error of string

type state = {
  toks : Lex.token array;
  mutable pos : int;
  mutable precision : Ast.precision option;
  array_lens : (string, int) Hashtbl.t;
  default_array_len : int;
}

let fail st msg =
  let context =
    let lo = max 0 (st.pos - 3) in
    let hi = min (Array.length st.toks) (st.pos + 4) in
    Array.sub st.toks lo (hi - lo)
    |> Array.to_list
    |> List.map Lex.to_string
    |> String.concat " "
  in
  raise (Error (Printf.sprintf "%s (near: %s)" msg context))

(* Past the last token the peeks answer [Amp], which no rule of the
   grammar matches, so each rule's fallback reports the error without an
   option per peek; the two rules that name the end check [at_end]. *)
let peek st =
  if st.pos < Array.length st.toks then Array.unsafe_get st.toks st.pos
  else Lex.Amp

let peek2 st =
  if st.pos + 1 < Array.length st.toks then
    Array.unsafe_get st.toks (st.pos + 1)
  else Lex.Amp

let at_end st = st.pos >= Array.length st.toks

let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else fail st (Printf.sprintf "expected %s" what)

let expect_ident st =
  match peek st with
  | Lex.Ident name -> advance st; name
  | _ -> fail st "expected identifier"

let is_fp_type = function "float" | "double" -> true | _ -> false

let fp_precision = function
  | "float" -> Ast.F32
  | "double" -> Ast.F64
  | s -> invalid_arg ("not an fp type: " ^ s)

(* The unit's precision is its first fp type, a parameter's or a local
   declaration's. *)
let declare st ty =
  if st.precision = None then st.precision <- Some (fp_precision ty)

(* --------------------------------------------------------------- *)
(* Expressions *)

let strip_f_suffix name =
  let n = String.length name in
  if n > 1 && name.[n - 1] = 'f' then String.sub name 0 (n - 1) else name

let lookup_math_fn name =
  match Ast.math_fn_of_name name with
  | Some fn -> Some fn
  | None -> Ast.math_fn_of_name (strip_f_suffix name)

let rec parse_expr st = additive_tail st (parse_multiplicative st)

and additive_tail st acc =
  match peek st with
  | Lex.Plus ->
    advance st;
    additive_tail st (Ast.Bin (Ast.Add, acc, parse_multiplicative st))
  | Lex.Minus ->
    advance st;
    additive_tail st (Ast.Bin (Ast.Sub, acc, parse_multiplicative st))
  | _ -> acc

and parse_multiplicative st = multiplicative_tail st (parse_unary st)

and multiplicative_tail st acc =
  match peek st with
  | Lex.Star ->
    advance st;
    multiplicative_tail st (Ast.Bin (Ast.Mul, acc, parse_unary st))
  | Lex.Slash ->
    advance st;
    multiplicative_tail st (Ast.Bin (Ast.Div, acc, parse_unary st))
  | _ -> acc

and parse_unary st =
  match peek st with
  | Lex.Minus -> begin
    advance st;
    (* A numeral directly after '-' folds into a negative literal; anything
       else keeps an explicit Neg node (see Pp for the inverse). *)
    match peek st with
    | Lex.Float_tok v -> advance st; Ast.Lit (-.v)
    | Lex.Int_tok v -> advance st; Ast.Int_lit (-v)
    | _ -> Ast.Neg (parse_unary st)
  end
  | Lex.Plus -> advance st; parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lex.Float_tok v -> advance st; Ast.Lit v
  | Lex.Int_tok v -> advance st; Ast.Int_lit v
  | Lex.Lparen ->
    advance st;
    let e = parse_expr st in
    expect st Lex.Rparen "')'";
    e
  | Lex.Ident name -> begin
    advance st;
    match peek st with
    | Lex.Lparen -> begin
      match lookup_math_fn name with
      | None -> fail st (Printf.sprintf "unknown function %s" name)
      | Some fn ->
        advance st;
        let rec args acc =
          let e = parse_expr st in
          match peek st with
          | Lex.Comma -> advance st; args (e :: acc)
          | Lex.Rparen -> advance st; List.rev (e :: acc)
          | _ -> fail st "expected ',' or ')' in call"
        in
        let actual = args [] in
        if List.length actual <> Ast.math_fn_arity fn then
          fail st (Printf.sprintf "%s expects %d argument(s)" name
                     (Ast.math_fn_arity fn));
        Ast.Call (fn, actual)
    end
    | Lex.Lbracket ->
      advance st;
      let idx = parse_expr st in
      expect st Lex.Rbracket "']'";
      Ast.Index (name, idx)
    | _ -> Ast.Var name
  end
  | _ -> fail st "expected expression"

let parse_cmpop st =
  match peek st with
  | Lex.Lt -> advance st; Ast.Lt
  | Lex.Le -> advance st; Ast.Le
  | Lex.Gt -> advance st; Ast.Gt
  | Lex.Ge -> advance st; Ast.Ge
  | Lex.Eq_eq -> advance st; Ast.Eq
  | Lex.Ne -> advance st; Ast.Ne
  | _ -> fail st "expected comparison operator"

(* --------------------------------------------------------------- *)
(* Statements *)

let parse_assign_op st =
  match peek st with
  | Lex.Assign -> advance st; Ast.Set
  | Lex.Plus_eq -> advance st; Ast.Add_eq
  | Lex.Minus_eq -> advance st; Ast.Sub_eq
  | Lex.Star_eq -> advance st; Ast.Mul_eq
  | Lex.Slash_eq -> advance st; Ast.Div_eq
  | _ -> fail st "expected assignment operator"

let rec parse_block st =
  expect st Lex.Lbrace "'{'";
  let rec loop acc =
    if at_end st then fail st "unterminated block"
    else
      match peek st with
      | Lex.Rbrace -> advance st; List.rev acc
      | _ -> begin
        match parse_stmt st with
        | Some s -> loop (s :: acc)
        | None -> loop acc
      end
  in
  loop []

and parse_stmt st : Ast.stmt option =
  match peek st with
  | Lex.Ident ty when is_fp_type ty -> begin
    declare st ty;
    advance st;
    let name = expect_ident st in
    expect st Lex.Assign "'=' in declaration";
    let init = parse_expr st in
    expect st Lex.Semi "';'";
    if name = Ast.comp_name then
      (* The accumulator is implicitly declared; a redundant `comp = 0.0`
         initializer is dropped, anything else becomes an assignment. *)
      if init = Ast.Lit 0.0 then None
      else Some (Ast.Assign { lhs = Ast.Lv_var name; op = Ast.Set; rhs = init })
    else Some (Ast.Decl { name; init })
  end
  | Lex.Ident "printf" ->
    (* Result printing is part of the fixed scaffold, not of the body. *)
    let rec skip () =
      if at_end st then fail st "unterminated printf"
      else
        match peek st with
        | Lex.Semi -> advance st
        | _ -> advance st; skip ()
    in
    skip ();
    None
  | Lex.Ident "if" ->
    advance st;
    expect st Lex.Lparen "'(' after if";
    let lhs = parse_expr st in
    let cmp = parse_cmpop st in
    let rhs = parse_expr st in
    expect st Lex.Rparen "')' after condition";
    let body = parse_block st in
    (match peek st with
     | Lex.Ident "else" -> fail st "else blocks are not in the grammar"
     | _ -> ());
    Some (Ast.If { lhs; cmp; rhs; body })
  | Lex.Ident "for" ->
    advance st;
    expect st Lex.Lparen "'(' after for";
    expect st (Lex.Ident "int") "'int' in loop header";
    let var = expect_ident st in
    expect st Lex.Assign "'=' in loop header";
    expect st (Lex.Int_tok 0) "loop start 0";
    expect st Lex.Semi "';' in loop header";
    let var2 = expect_ident st in
    if var2 <> var then fail st "loop condition must test the counter";
    expect st Lex.Lt "'<' in loop condition";
    let bound =
      match peek st with
      | Lex.Int_tok b -> advance st; b
      | _ -> fail st "loop bound must be an integer literal"
    in
    expect st Lex.Semi "';' after loop condition";
    (match (peek st, peek2 st) with
     | Lex.Plus_plus, Lex.Ident v when v = var ->
       advance st; advance st
     | Lex.Ident v, Lex.Plus_plus when v = var ->
       advance st; advance st
     | _ -> fail st "loop increment must be ++counter");
    expect st Lex.Rparen "')' after loop header";
    let body = parse_block st in
    Some (Ast.For { var; bound; body })
  | Lex.Ident name -> begin
    advance st;
    match peek st with
    | Lex.Lbracket ->
      advance st;
      let idx = parse_expr st in
      expect st Lex.Rbracket "']'";
      let op = parse_assign_op st in
      let rhs = parse_expr st in
      expect st Lex.Semi "';'";
      Some (Ast.Assign { lhs = Ast.Lv_index (name, idx); op; rhs })
    | _ ->
      let op = parse_assign_op st in
      let rhs = parse_expr st in
      expect st Lex.Semi "';'";
      Some (Ast.Assign { lhs = Ast.Lv_var name; op; rhs })
  end
  | _ -> fail st "expected statement"

(* --------------------------------------------------------------- *)
(* Program structure *)

(* Array parameter lengths live in main's declarations (`double a[8];`);
   recover them with a pre-scan so signatures can be reconstructed. *)
let scan_array_lens arr =
  let tbl = Hashtbl.create 8 in
  let n = Array.length arr in
  for i = 0 to n - 5 do
    match (arr.(i), arr.(i + 1), arr.(i + 2), arr.(i + 3), arr.(i + 4)) with
    | ( Lex.Ident ty, Lex.Ident name, Lex.Lbracket, Lex.Int_tok len,
        Lex.Rbracket )
      when is_fp_type ty ->
      Hashtbl.replace tbl name len
    | _ -> ()
  done;
  tbl

let parse_params st =
  expect st Lex.Lparen "'(' after compute";
  if peek st = Lex.Rparen then begin advance st; [] end
  else
    let rec loop acc =
      let param =
        match peek st with
        | Lex.Ident "int" ->
          advance st;
          Ast.P_int (expect_ident st)
        | Lex.Ident ty when is_fp_type ty -> begin
          declare st ty;
          advance st;
          match peek st with
          | Lex.Star ->
            advance st;
            let name = expect_ident st in
            let len =
              Option.value
                (Hashtbl.find_opt st.array_lens name)
                ~default:st.default_array_len
            in
            Ast.P_fp_array (name, len)
          | _ -> Ast.P_fp (expect_ident st)
        end
        | _ -> fail st "expected parameter declaration"
      in
      match peek st with
      | Lex.Comma -> advance st; loop (param :: acc)
      | Lex.Rparen -> advance st; List.rev (param :: acc)
      | _ -> fail st "expected ',' or ')' in parameter list"
    in
    loop []

let seek_compute st =
  let n = Array.length st.toks in
  let rec go i =
    if i + 1 >= n then fail st "no compute function found"
    else
      match (st.toks.(i), st.toks.(i + 1)) with
      | Lex.Ident "compute", Lex.Lparen
        when i >= 1
             && (st.toks.(i - 1) = Lex.Ident "void"
                || st.toks.(i - 1) = Lex.Star) ->
        st.pos <- i + 1
      | _ -> go (i + 1)
  in
  go 0

let program ?(default_array_len = 8) src =
  match
    let toks = Lex.tokens src in
    let st =
      { toks;
        pos = 0;
        precision = None;
        array_lens = scan_array_lens toks;
        default_array_len }
    in
    seek_compute st;
    let params = parse_params st in
    let body = parse_block st in
    let precision = Option.value st.precision ~default:Ast.F64 in
    ({ Ast.precision; params; body } : Ast.program)
  with
  | p -> Ok p
  | exception Error msg -> Result.error ("parse error: " ^ msg)
  | exception Lex.Error msg -> Result.error ("lex error: " ^ msg)

let program_exn ?default_array_len src =
  match program ?default_array_len src with
  | Ok p -> p
  | Error msg -> failwith msg

let expr src =
  match
    let st =
      { toks = Lex.tokens src;
        pos = 0;
        precision = None;
        array_lens = Hashtbl.create 1;
        default_array_len = 8 }
    in
    let e = parse_expr st in
    if st.pos <> Array.length st.toks then fail st "trailing tokens";
    e
  with
  | e -> Ok e
  | exception Error msg -> Result.error ("parse error: " ^ msg)
  | exception Lex.Error msg -> Result.error ("lex error: " ^ msg)
