open Lang

type summary = Multiset.t

(* The node kinds of an abstracted subtree, one per constructor and role,
   with identifiers abstracted to [id] and numeric literals to [lit] or
   [ilit]. Field for field, a key holds what a fully delimited rendering
   of the subtree would spell: [idx(id,R)] is (index), [(A+B)] is (a, b)
   under the operator's kind, [sin(A,B)] is (function name, argument
   list), [assign(L,+=,R)] is (target, value) under the operator's kind,
   [if(L<R){B}] is (condition, body), [for(N){B}] is (bound as a string,
   body). A list is [nil] or (head, rest). *)
let k_lit = 0
let k_ilit = 1
let k_id = 2
let k_idx = 3
let k_neg = 4
let k_call = 5
let k_arg = 6
let k_decl = 7
let k_if = 8
let k_for = 9
let k_stmt = 10
let k_nil = 11
let k_bin = function Ast.Add -> 12 | Sub -> 13 | Mul -> 14 | Div -> 15

let k_assign = function
  | Ast.Set -> 16 | Add_eq -> 17 | Sub_eq -> 18 | Mul_eq -> 19 | Div_eq -> 20

let k_cond = function
  | Ast.Lt -> 21 | Le -> 22 | Gt -> 23 | Ge -> 24 | Eq -> 25 | Ne -> 26

(* The ids of the subtrees seen so far, in a buffer that doubles. *)
type acc = { mutable ids : int array; mutable n : int }

let push acc id =
  if acc.n = Array.length acc.ids then begin
    let bigger = Array.make (2 * acc.n) 0 in
    Array.blit acc.ids 0 bigger 0 acc.n;
    acc.ids <- bigger
  end;
  acc.ids.(acc.n) <- id;
  acc.n <- acc.n + 1;
  id

(* The id of [e]; pushes the id of every subtree of [e], children first. *)
let rec expr v acc e =
  let id =
    match e with
    | Ast.Lit _ -> Vocab.node v k_lit 0 0
    | Ast.Int_lit _ -> Vocab.node v k_ilit 0 0
    | Ast.Var _ -> Vocab.node v k_id 0 0
    | Ast.Index (_, idx) -> Vocab.node v k_idx (expr v acc idx) 0
    | Ast.Neg inner -> Vocab.node v k_neg (expr v acc inner) 0
    | Ast.Bin (op, a, b) ->
      let a = expr v acc a in
      let b = expr v acc b in
      Vocab.node v (k_bin op) a b
    | Ast.Call (fn, args) ->
      let args = arguments v acc args in
      Vocab.node v k_call (Vocab.string v (Ast.math_fn_name fn)) args
  in
  push acc id

and arguments v acc = function
  | [] -> Vocab.node v k_nil 0 0
  | arg :: rest ->
    let arg = expr v acc arg in
    Vocab.node v k_arg arg (arguments v acc rest)

let rec stmt v acc s =
  let id =
    match s with
    | Ast.Decl { init; _ } -> Vocab.node v k_decl (expr v acc init) 0
    | Ast.Assign { lhs; op; rhs } ->
      let target =
        match lhs with
        | Ast.Lv_var _ -> Vocab.node v k_id 0 0
        | Ast.Lv_index (_, idx) -> Vocab.node v k_idx (expr v acc idx) 0
      in
      let value = expr v acc rhs in
      Vocab.node v (k_assign op) target value
    | Ast.If { lhs; cmp; rhs; body } ->
      let l = expr v acc lhs in
      let r = expr v acc rhs in
      let cond = Vocab.node v (k_cond cmp) l r in
      Vocab.node v k_if cond (stmts v acc body)
    | Ast.For { bound; body; _ } ->
      let body = stmts v acc body in
      Vocab.node v k_for (Vocab.string v (string_of_int bound)) body
  in
  push acc id

and stmts v acc = function
  | [] -> Vocab.node v k_nil 0 0
  | s :: rest ->
    let s = stmt v acc s in
    Vocab.node v k_stmt s (stmts v acc rest)

let collect v (p : Ast.program) =
  let acc = { ids = Array.make 64 0; n = 0 } in
  ignore (stmts v acc p.body);
  acc

let subtrees v p =
  let acc = collect v p in
  Array.sub acc.ids 0 acc.n

let summarize v p =
  let acc = collect v p in
  Multiset.of_ids v acc.ids acc.n

let score ~candidate ~reference =
  Multiset.fraction candidate (fst (Multiset.inter candidate reference))
