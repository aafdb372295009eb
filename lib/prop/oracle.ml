open Lang

(* Each subtree's rendering, identifiers and literals abstracted; [acc]
   collects every subtree's rendering, the latest first. *)
let rec expr acc e =
  let render, acc =
    match e with
    | Ast.Lit _ -> ("lit", acc)
    | Ast.Int_lit _ -> ("ilit", acc)
    | Ast.Var _ -> ("id", acc)
    | Ast.Index (_, idx) ->
      let r, acc = expr acc idx in
      (Printf.sprintf "idx(id,%s)" r, acc)
    | Ast.Neg inner ->
      let r, acc = expr acc inner in
      (Printf.sprintf "neg(%s)" r, acc)
    | Ast.Bin (op, a, b) ->
      let ra, acc = expr acc a in
      let rb, acc = expr acc b in
      (Printf.sprintf "(%s%s%s)" ra (Ast.binop_symbol op) rb, acc)
    | Ast.Call (fn, args) ->
      let rs, acc =
        List.fold_left
          (fun (rs, acc) arg ->
            let r, acc = expr acc arg in
            (r :: rs, acc))
          ([], acc) args
      in
      (Printf.sprintf "%s(%s)" (Ast.math_fn_name fn)
         (String.concat "," (List.rev rs)),
       acc)
  in
  (render, render :: acc)

let rec stmt acc s =
  let render, acc =
    match s with
    | Ast.Decl { init; _ } ->
      let r, acc = expr acc init in
      (Printf.sprintf "decl(%s)" r, acc)
    | Ast.Assign { lhs; op; rhs } ->
      let lhs_r, acc =
        match lhs with
        | Ast.Lv_var _ -> ("id", acc)
        | Ast.Lv_index (_, idx) ->
          let r, acc = expr acc idx in
          (Printf.sprintf "idx(id,%s)" r, acc)
      in
      let r, acc = expr acc rhs in
      (Printf.sprintf "assign(%s,%s,%s)" lhs_r (Ast.assign_op_symbol op) r, acc)
    | Ast.If { lhs; cmp; rhs; body } ->
      let rl, acc = expr acc lhs in
      let rr, acc = expr acc rhs in
      let rb, acc = body_of acc body in
      (Printf.sprintf "if(%s%s%s){%s}" rl (Ast.cmpop_symbol cmp) rr rb, acc)
    | Ast.For { bound; body; _ } ->
      let rb, acc = body_of acc body in
      (Printf.sprintf "for(%d){%s}" bound rb, acc)
  in
  (render, render :: acc)

and body_of acc body =
  let rs, acc =
    List.fold_left
      (fun (rs, acc) s ->
        let r, acc = stmt acc s in
        (r :: rs, acc))
      ([], acc) body
  in
  (String.concat ";" (List.rev rs), acc)

let subtree_renderings (p : Ast.program) =
  Array.of_list (List.rev (snd (body_of [] p.body)))

let same_partition ids renderings =
  let by_id = Hashtbl.create 256 and by_rendering = Hashtbl.create 256 in
  let agrees table key value =
    match Hashtbl.find_opt table key with
    | Some seen -> seen = value
    | None ->
      Hashtbl.add table key value;
      true
  in
  Array.length ids = Array.length renderings
  && Array.for_all2
       (fun id r -> agrees by_id id r && agrees by_rendering r id)
       ids renderings

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

let clones programs =
  let seen1 = Hashtbl.create 64
  and seen2c = Hashtbl.create 64
  and seen2 = Hashtbl.create 64 in
  let type1 = ref 0 and type2c = ref 0 and type2 = ref 0 in
  List.iter
    (fun p ->
      let k1 = Diversity.Clones.type1_key p in
      let k2c = Diversity.Clones.type2c_key p
      and k2 = blind_key (Cparse.Lex.tokens (Lang.Pp.compute_to_string p)) in
      if Hashtbl.mem seen1 k1 then incr type1
      else if Hashtbl.mem seen2c k2c then incr type2c
      else if Hashtbl.mem seen2 k2 then incr type2;
      Hashtbl.replace seen1 k1 ();
      Hashtbl.replace seen2c k2c ();
      Hashtbl.replace seen2 k2 ())
    programs;
  {
    Diversity.Clones.type1 = !type1;
    type2 = !type2;
    type2c = !type2c;
    total_programs = List.length programs;
  }
