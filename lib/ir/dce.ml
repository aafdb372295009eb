(* Liveness marks: one flag per float slot and per array, sized from the
   IR. Every index is in its declared range — lowering allocates them so,
   and {!Vm.flatten} rejects a program where one is not. *)
type uses = { fslots : bool array; arrs : bool array }

let rec note_expr u (e : Ir.expr) =
  match e with
  | Ir.Const _ | Ir.Itof _ -> ()
  | Ir.Load s -> u.fslots.(s) <- true
  | Ir.Load_arr (s, _) -> u.arrs.(s) <- true
  | Ir.Neg e | Ir.Recip e -> note_expr u e
  | Ir.Bin (_, a, b) ->
    note_expr u a;
    note_expr u b
  | Ir.Fma (a, b, c) ->
    note_expr u a;
    note_expr u b;
    note_expr u c
  | Ir.Call (_, args) -> List.iter (note_expr u) args

let rec note_body u body =
  List.iter
    (fun (s : Ir.stmt) ->
      match s with
      | Ir.Store (_, e) -> note_expr u e
      | Ir.Store_arr (_, _, e) -> note_expr u e
      | Ir.If { lhs; rhs; body; _ } ->
        note_expr u lhs;
        note_expr u rhs;
        note_body u body
      | Ir.For { body; _ } -> note_body u body)
    body

(* [body] without its dead stores; the very same list when none is
   dead, so the fixpoint tests convergence physically (structural
   equality would never converge on NaN constants: nan <> nan). *)
let rec sweep u comp body =
  match body with
  | [] -> body
  | (s : Ir.stmt) :: rest -> (
    let rest' = sweep u comp rest in
    let keep s' = if s' == s && rest' == rest then body else s' :: rest' in
    match s with
    | Ir.Store (slot, _) ->
      if slot = comp || u.fslots.(slot) then keep s else rest'
    | Ir.Store_arr (arr, _, _) -> if u.arrs.(arr) then keep s else rest'
    | Ir.If r ->
      let b = sweep u comp r.body in
      keep (if b == r.body then s else Ir.If { r with body = b })
    | Ir.For r ->
      let b = sweep u comp r.body in
      keep (if b == r.body then s else Ir.For { r with body = b }))

let run (ir : Ir.t) =
  let u =
    { fslots = Array.make ir.n_fslots false;
      arrs = Array.make (Array.length ir.arr_lens) false }
  in
  let rec fixpoint (ir : Ir.t) =
    Array.fill u.fslots 0 (Array.length u.fslots) false;
    Array.fill u.arrs 0 (Array.length u.arrs) false;
    note_body u ir.body;
    let swept = sweep u ir.comp_slot ir.body in
    if swept == ir.body then ir else fixpoint { ir with body = swept }
  in
  fixpoint ir
