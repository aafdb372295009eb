open Lang

type report = { type1 : int; type2 : int; type2c : int; total_programs : int }

let type1_key p = Pp.to_c p

let type2c_key p = Pp.to_c (Ast.alpha_normalize p)

(* Blind abstraction: identifiers, literals and numeric values all
   collapse; structure (operators, control flow, arities) remains. *)
let blind_key toks =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i tok ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b
        (match tok with
        | Cparse.Lex.Ident name when not (Cparse.Lex.is_keyword name) -> "id"
        | Cparse.Lex.Ident name -> name
        | Cparse.Lex.Float_tok _ -> "lit"
        | Cparse.Lex.Int_tok _ -> "ilit"
        | other -> Cparse.Lex.to_string other))
    toks;
  Buffer.contents b

let type2_key p = blind_key (Cparse.Lex.tokens (Pp.compute_to_string p))

(* [Pp.to_c] prints the include lines, [compute], then [main]. The lexer
   skips the include lines, and [compute]'s closing brace is the first
   one at the start of a line, so the text up to it lexes to [compute]'s
   tokens. *)
let type2_key_of_unit text =
  let n = String.length text in
  let i = ref 0 in
  while !i + 1 < n && not (text.[!i] = '\n' && text.[!i + 1] = '}') do
    incr i
  done;
  blind_key (Cparse.Lex.tokens (String.sub text 0 (Int.min n (!i + 2))))

let analyze programs =
  let seen1 = Hashtbl.create 64
  and seen2c = Hashtbl.create 64
  and seen2 = Hashtbl.create 64 in
  let type1 = ref 0 and type2c = ref 0 and type2 = ref 0 in
  List.iter
    (fun p ->
      let k1 = type1_key p in
      let k2c = type2c_key p and k2 = type2_key_of_unit k1 in
      if Hashtbl.mem seen1 k1 then incr type1
      else if Hashtbl.mem seen2c k2c then incr type2c
      else if Hashtbl.mem seen2 k2 then incr type2;
      Hashtbl.replace seen1 k1 ();
      Hashtbl.replace seen2c k2c ();
      Hashtbl.replace seen2 k2 ())
    programs;
  {
    type1 = !type1;
    type2 = !type2;
    type2c = !type2c;
    total_programs = List.length programs;
  }

let percentage r =
  if r.total_programs = 0 then 0.0
  else
    100.0
    *. float_of_int (r.type1 + r.type2 + r.type2c)
    /. float_of_int r.total_programs
