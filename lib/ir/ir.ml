type iexpr =
  | Iconst of int
  | Iload of int
  | Ineg of iexpr
  | Ibin of Lang.Ast.binop * iexpr * iexpr

type expr =
  | Const of float
  | Load of int
  | Load_arr of int * iexpr
  | Itof of iexpr
  | Neg of expr
  | Bin of Lang.Ast.binop * expr * expr
  | Call of Lang.Ast.math_fn * expr list
  | Fma of expr * expr * expr
  | Recip of expr

type stmt =
  | Store of int * expr
  | Store_arr of int * iexpr * expr
  | If of { lhs : expr; cmp : Lang.Ast.cmpop; rhs : expr; body : stmt list }
  | For of { islot : int; bound : int; body : stmt list }

type param_binding = Bind_fp of int | Bind_int of int | Bind_arr of int * int

type t = {
  precision : Lang.Ast.precision;
  n_fslots : int;
  n_islots : int;
  arr_lens : int array;
  bindings : param_binding list;
  body : stmt list;
  comp_slot : int;
}

let rec expr_size = function
  | Const _ | Load _ | Itof _ -> 1
  | Load_arr _ -> 1
  | Neg e | Recip e -> 1 + expr_size e
  | Bin (_, a, b) -> 1 + expr_size a + expr_size b
  | Fma (a, b, c) -> 1 + expr_size a + expr_size b + expr_size c
  | Call (_, args) -> 1 + List.fold_left (fun acc e -> acc + expr_size e) 0 args

let equal (a : t) (b : t) = a = b

type likeness = Identical | Compare_equal | Different

(* One walk decides both equalities. Operators, slots and lengths are
   immediates compared as such; a float pair that differs in bits but
   not under [Float.compare] (two NaNs, or 0.0 and -0.0) demotes the
   verdict to [Compare_equal], any other difference stops the walk.
   Physically equal subtrees are skipped. *)
exception Differ

let likeness (a : t) (b : t) =
  let loose = ref false in
  let int (x : int) y = if x <> y then raise Differ in
  let const x y =
    if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
      if Float.compare x y = 0 then loose := true else raise Differ
  in
  let rec list f xs ys =
    if xs != ys then
      match (xs, ys) with
      | x :: xs, y :: ys ->
        f x y;
        list f xs ys
      | _ -> raise Differ
  in
  let rec iexpr x y =
    if x != y then
      match (x, y) with
      | Iconst m, Iconst n | Iload m, Iload n -> int m n
      | Ineg x, Ineg y -> iexpr x y
      | Ibin (o, x1, x2), Ibin (p, y1, y2) ->
        if o != p then raise Differ;
        iexpr x1 y1;
        iexpr x2 y2
      | _ -> raise Differ
  in
  let rec expr x y =
    if x != y then
      match (x, y) with
      | Const u, Const v -> const u v
      | Load m, Load n -> int m n
      | Load_arr (m, i), Load_arr (n, j) ->
        int m n;
        iexpr i j
      | Itof i, Itof j -> iexpr i j
      | Neg x, Neg y | Recip x, Recip y -> expr x y
      | Bin (o, x1, x2), Bin (p, y1, y2) ->
        if o != p then raise Differ;
        expr x1 y1;
        expr x2 y2
      | Call (f, xs), Call (g, ys) ->
        if f != g then raise Differ;
        list expr xs ys
      | Fma (x1, x2, x3), Fma (y1, y2, y3) ->
        expr x1 y1;
        expr x2 y2;
        expr x3 y3
      | _ -> raise Differ
  in
  let rec stmt x y =
    if x != y then
      match (x, y) with
      | Store (m, e), Store (n, f) ->
        int m n;
        expr e f
      | Store_arr (m, i, e), Store_arr (n, j, f) ->
        int m n;
        iexpr i j;
        expr e f
      | If r, If q ->
        if r.cmp != q.cmp then raise Differ;
        expr r.lhs q.lhs;
        expr r.rhs q.rhs;
        list stmt r.body q.body
      | For r, For q ->
        int r.islot q.islot;
        int r.bound q.bound;
        list stmt r.body q.body
      | _ -> raise Differ
  in
  let binding x y =
    match (x, y) with
    | Bind_fp m, Bind_fp n | Bind_int m, Bind_int n -> int m n
    | Bind_arr (m, k), Bind_arr (n, l) ->
      int m n;
      int k l
    | _ -> raise Differ
  in
  match
    if a.precision != b.precision then raise Differ;
    int a.n_fslots b.n_fslots;
    int a.n_islots b.n_islots;
    int a.comp_slot b.comp_slot;
    int (Array.length a.arr_lens) (Array.length b.arr_lens);
    Array.iter2 int a.arr_lens b.arr_lens;
    list binding a.bindings b.bindings;
    list stmt a.body b.body
  with
  | () -> if !loose then Compare_equal else Identical
  | exception Differ -> Different

let rec pp_iexpr fmt = function
  | Iconst n -> Format.pp_print_int fmt n
  | Iload s -> Format.fprintf fmt "i%d" s
  | Ineg e -> Format.fprintf fmt "-(%a)" pp_iexpr e
  | Ibin (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_iexpr a (Lang.Ast.binop_symbol op)
      pp_iexpr b

let rec pp_expr fmt = function
  | Const v -> Format.fprintf fmt "%.17g" v
  | Load s -> Format.fprintf fmt "f%d" s
  | Load_arr (s, i) -> Format.fprintf fmt "a%d[%a]" s pp_iexpr i
  | Itof i -> Format.fprintf fmt "(fp)%a" pp_iexpr i
  | Neg e -> Format.fprintf fmt "-(%a)" pp_expr e
  | Bin (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_expr a (Lang.Ast.binop_symbol op)
      pp_expr b
  | Call (fn, args) ->
    Format.fprintf fmt "%s(%a)" (Lang.Ast.math_fn_name fn)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_expr)
      args
  | Fma (a, b, c) ->
    Format.fprintf fmt "fma(%a, %a, %a)" pp_expr a pp_expr b pp_expr c
  | Recip e -> Format.fprintf fmt "recip(%a)" pp_expr e

let rec pp_stmt fmt = function
  | Store (s, e) -> Format.fprintf fmt "@[f%d := %a@]" s pp_expr e
  | Store_arr (s, i, e) ->
    Format.fprintf fmt "@[a%d[%a] := %a@]" s pp_iexpr i pp_expr e
  | If { lhs; cmp; rhs; body } ->
    Format.fprintf fmt "@[<v 2>if %a %s %a {@,%a@]@,}" pp_expr lhs
      (Lang.Ast.cmpop_symbol cmp) pp_expr rhs pp_body body
  | For { islot; bound; body } ->
    Format.fprintf fmt "@[<v 2>for i%d < %d {@,%a@]@,}" islot bound pp_body
      body

and pp_body fmt body =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_cut fmt ())
    pp_stmt fmt body

let pp fmt t =
  Format.fprintf fmt
    "@[<v>ir{fslots=%d islots=%d arrays=%d comp=f%d}@,%a@]" t.n_fslots
    t.n_islots (Array.length t.arr_lens) t.comp_slot pp_body t.body

let rec map_body f body =
  List.map
    (fun s ->
      match s with
      | Store (slot, e) -> Store (slot, f e)
      | Store_arr (slot, i, e) -> Store_arr (slot, i, f e)
      | If { lhs; cmp; rhs; body } ->
        If { lhs = f lhs; cmp; rhs = f rhs; body = map_body f body }
      | For { islot; bound; body } ->
        For { islot; bound; body = map_body f body })
    body
