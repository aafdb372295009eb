open Lang

type report = { type1 : int; type2 : int; type2c : int; total_programs : int }

let type1_key p = Pp.to_c p

let type2c_key p = Pp.to_c (Ast.alpha_normalize p)

(* Blind abstraction: identifiers, literals and numeric values all
   collapse; structure (operators, control flow, arities) remains. *)
let type2_key p = Cparse.Lex.blind_key (Pp.compute_to_string p)

(* [Pp.to_c] prints the include lines, [compute], then [main]. The lexer
   skips the include lines, and [compute]'s closing brace is the first
   one at the start of a line, so the text up to it lexes to [compute]'s
   tokens. *)
let type2_key_of_unit text =
  let n = String.length text in
  let rec cut i =
    match String.index_from_opt text i '\n' with
    | Some j when j + 1 < n -> if text.[j + 1] = '}' then j + 2 else cut (j + 1)
    | _ -> n
  in
  Cparse.Lex.blind_key ~len:(cut 0) text

(* A member of a Type-2 class: its stricter keys, rendered only when a
   later program joins the class. *)
type member = { k1 : string Lazy.t; k2c : string Lazy.t }

module Classes = Hashtbl.Make (String)

let analyze programs =
  let classes = Classes.create 64 in
  let type1 = ref 0 and type2c = ref 0 and type2 = ref 0 in
  List.iter
    (fun p ->
      let k2 = type2_key p in
      let m = { k1 = lazy (type1_key p); k2c = lazy (type2c_key p) } in
      match Classes.find_opt classes k2 with
      | None -> Classes.replace classes k2 [ m ]
      | Some earlier ->
        let same key o =
          String.equal (Lazy.force (key o)) (Lazy.force (key m))
        in
        if List.exists (same (fun o -> o.k1)) earlier then incr type1
        else if List.exists (same (fun o -> o.k2c)) earlier then incr type2c
        else incr type2;
        Classes.replace classes k2 (m :: earlier))
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
