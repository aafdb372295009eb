open Lang

type edge = { def : string; use : string }

let reads_of_expr e =
  List.rev
    (Ast.fold_expr
       (fun acc e ->
         match e with
         | Ast.Var n -> n :: acc
         | Ast.Index (a, _) -> a :: acc
         | Ast.Lit _ | Ast.Int_lit _ | Ast.Neg _ | Ast.Bin _ | Ast.Call _ -> acc)
       [] e)

let edges p =
  let p = Ast.alpha_normalize p in
  let out = ref [] in
  let emit def uses = List.iter (fun use -> out := { def; use } :: !out) uses in
  let rec walk body =
    List.iter
      (fun s ->
        match s with
        | Ast.Decl { name; init } -> emit name (reads_of_expr init)
        | Ast.Assign { lhs; op; rhs } ->
          let def, extra_reads =
            match lhs with
            | Ast.Lv_var n -> (n, [])
            | Ast.Lv_index (a, idx) -> (a, reads_of_expr idx)
          in
          let self = if op = Ast.Set then [] else [ def ] in
          emit def (self @ extra_reads @ reads_of_expr rhs)
        | Ast.If { lhs; rhs; body; _ } ->
          (* Condition reads guard the block: attribute them to a pseudo
             definition so control dependence participates in the match. *)
          emit "<branch>" (reads_of_expr lhs @ reads_of_expr rhs);
          walk body
        | Ast.For { body; _ } -> walk body)
      body
  in
  walk p.body;
  List.rev !out
