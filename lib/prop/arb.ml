open Lang.Ast

(* ------------------------------------------------------------------ *)
(* Expression shrinking *)

let rec shrink_expr e : expr Seq.t =
  match e with
  | Lit x ->
      if x = 0.0 then Seq.empty
      else if x = 1.0 then Seq.return (Lit 0.0)
      else List.to_seq [ Lit 0.0; Lit 1.0 ]
  | Int_lit n -> Seq.map (fun n' -> Int_lit n') (Engine.Shrink.int n)
  | Var _ -> Seq.empty
  | Index (a, i) ->
      (* the subscript shrinks toward a[0]; the whole node cannot hoist
         to [Var a] (that would use the array as a scalar) *)
      let to_zero =
        if i = Int_lit 0 then Seq.empty else Seq.return (Index (a, Int_lit 0))
      in
      Seq.append to_zero (Seq.map (fun i' -> Index (a, i')) (shrink_expr i))
  | Neg inner ->
      Seq.cons inner (Seq.map (fun e' -> Neg e') (shrink_expr inner))
  | Bin (op, a, b) ->
      Seq.append
        (List.to_seq [ a; b ])
        (Seq.append
           (Seq.map (fun a' -> Bin (op, a', b)) (shrink_expr a))
           (Seq.map (fun b' -> Bin (op, a, b')) (shrink_expr b)))
  | Call (fn, args) ->
      let hoists = List.to_seq args in
      let pointwise =
        Seq.concat
          (List.to_seq
             (List.mapi
                (fun i arg ->
                  Seq.map
                    (fun arg' ->
                      Call (fn, List.mapi (fun j a -> if i = j then arg' else a) args))
                    (shrink_expr arg))
                args))
      in
      Seq.append hoists pointwise

(* ------------------------------------------------------------------ *)
(* Statement/body shrinking: one rewrite per candidate *)

let replace_nth xs i ys =
  List.concat (List.mapi (fun j x -> if j = i then ys else [ x ]) xs)

let rec shrink_stmt s : stmt Seq.t =
  match s with
  | Decl { name; init } ->
      Seq.map (fun init -> Decl { name; init }) (shrink_expr init)
  | Assign { lhs; op; rhs } ->
      let rhs_shrinks =
        Seq.map (fun rhs -> Assign { lhs; op; rhs }) (shrink_expr rhs)
      in
      let lhs_shrinks =
        match lhs with
        | Lv_var _ -> Seq.empty
        | Lv_index (a, i) ->
            Seq.map
              (fun i' -> Assign { lhs = Lv_index (a, i'); op; rhs })
              (shrink_expr i)
      in
      Seq.append rhs_shrinks lhs_shrinks
  | If { lhs; cmp; rhs; body } ->
      Seq.concat
        (List.to_seq
           [ Seq.map (fun body -> If { lhs; cmp; rhs; body }) (shrink_body body);
             Seq.map (fun lhs -> If { lhs; cmp; rhs; body }) (shrink_expr lhs);
             Seq.map (fun rhs -> If { lhs; cmp; rhs; body }) (shrink_expr rhs) ])
  | For { var; bound; body } ->
      let smaller_bounds =
        Seq.filter_map
          (fun b -> if b >= 1 && b < bound then Some (For { var; bound = b; body }) else None)
          (Engine.Shrink.int bound)
      in
      Seq.append smaller_bounds
        (Seq.map (fun body -> For { var; bound; body }) (shrink_body body))

and shrink_body body : stmt list Seq.t =
  let n = List.length body in
  if n = 0 then Seq.empty
  else
    (* drop one statement *)
    let drops = Seq.init n (fun i -> replace_nth body i []) in
    (* splice a compound statement's body into its place *)
    let splices =
      Seq.concat
        (Seq.init n (fun i ->
             match List.nth body i with
             | If { body = inner; _ } | For { body = inner; _ } ->
                 Seq.return (replace_nth body i inner)
             | Decl _ | Assign _ -> Seq.empty))
    in
    (* rewrite one statement in place *)
    let rewrites =
      Seq.concat
        (Seq.init n (fun i ->
             Seq.map
               (fun s' -> replace_nth body i [ s' ])
               (shrink_stmt (List.nth body i))))
    in
    Seq.append drops (Seq.append splices rewrites)

let shrink_program p =
  Seq.filter Analysis.Validate.is_valid
    (Seq.map (fun body -> { p with body }) (shrink_body p.body))

(* ------------------------------------------------------------------ *)
(* Input shrinking: arity and array lengths are fixed by the program *)

let shrink_value (v : Irsim.Inputs.value) : Irsim.Inputs.value Seq.t =
  match v with
  | Irsim.Inputs.Fp x ->
      Seq.map (fun x' -> Irsim.Inputs.Fp x') (Engine.Shrink.float x)
  | Irsim.Inputs.Int n ->
      Seq.map (fun n' -> Irsim.Inputs.Int n') (Engine.Shrink.int n)
  | Irsim.Inputs.Arr a ->
      let zeroed = Array.map (fun _ -> 0.0) a in
      let all_zero =
        if a = zeroed then Seq.empty else Seq.return (Irsim.Inputs.Arr zeroed)
      in
      let pointwise =
        Seq.concat
          (Seq.init (Array.length a) (fun i ->
               Seq.map
                 (fun x' ->
                   let a' = Array.copy a in
                   a'.(i) <- x';
                   Irsim.Inputs.Arr a')
                 (Engine.Shrink.float a.(i))))
      in
      Seq.append all_zero pointwise

let shrink_inputs (inputs : Irsim.Inputs.t) : Irsim.Inputs.t Seq.t =
  let n = List.length inputs in
  Seq.concat
    (Seq.init n (fun i ->
         Seq.map
           (fun v' -> List.mapi (fun j v -> if i = j then v' else v) inputs)
           (shrink_value (List.nth inputs i))))

(* ------------------------------------------------------------------ *)
(* Arbitraries *)

let print_inputs inputs = Format.asprintf "%a" Irsim.Inputs.pp inputs

let program =
  {
    Engine.gen = (fun rng -> Gen.Varity.generate rng);
    shrink = shrink_program;
    print = Lang.Pp.to_c;
  }

let case =
  {
    Engine.gen = (fun rng -> Gen.Varity.gen_case rng);
    shrink =
      (fun (p, inputs) ->
        Seq.append
          (Seq.map (fun p' -> (p', inputs)) (shrink_program p))
          (Seq.map (fun i' -> (p, i')) (shrink_inputs inputs)));
    print =
      (fun (p, inputs) ->
        Printf.sprintf "%s\ninputs: %s" (Lang.Pp.to_c p) (print_inputs inputs));
  }

(* ------------------------------------------------------------------ *)
(* Token windows *)

let colliding_tokens =
  lazy
    (let seen = Hashtbl.create 100_000 in
     let rec search i =
       let tok = "t" ^ string_of_int i in
       let h = Hashtbl.hash tok in
       match Hashtbl.find_opt seen h with
       | Some other -> (other, tok)
       | None ->
         Hashtbl.add seen h tok;
         search (i + 1)
     in
     search 0)

let token_array rng =
  let a, b = Lazy.force colliding_tokens in
  let alphabet = [| a; b; "x"; "y"; "+"; "comp"; "double" |] in
  Array.init (Util.Rng.int_in rng 0 40) (fun _ ->
      let tok = alphabet.(Util.Rng.int rng (Array.length alphabet)) in
      if Util.Rng.bool rng then tok else Bytes.to_string (Bytes.of_string tok))

let token_windows =
  let shrink_array a =
    Seq.map Array.of_list (Engine.Shrink.list (Array.to_list a))
  in
  {
    Engine.gen =
      (fun rng ->
        let max_n = Util.Rng.int_in rng 1 16 in
        let a = token_array rng in
        (max_n, a, token_array rng));
    shrink =
      (fun (max_n, a, b) ->
        Seq.map (fun (a, b) -> (max_n, a, b))
          (Engine.Shrink.pair shrink_array shrink_array (a, b)));
    print =
      (fun (max_n, a, b) ->
        let show t = String.concat " " (Array.to_list t) in
        Printf.sprintf "max_n = %d\na = [%s]\nb = [%s]" max_n (show a) (show b));
  }
