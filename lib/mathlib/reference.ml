open Lang

(* Both dispatchers match on the function alone, so a partial
   application resolves it once and returns the bare math function. *)
let eval1 fn : float -> float =
  match fn with
  | Ast.Sin -> sin
  | Ast.Cos -> cos
  | Ast.Tan -> tan
  | Ast.Asin -> asin
  | Ast.Acos -> acos
  | Ast.Atan -> atan
  | Ast.Sinh -> sinh
  | Ast.Cosh -> cosh
  | Ast.Tanh -> tanh
  | Ast.Exp -> exp
  | Ast.Exp2 -> Float.exp2
  | Ast.Expm1 -> expm1
  | Ast.Log -> log
  | Ast.Log2 -> Float.log2
  | Ast.Log10 -> log10
  | Ast.Log1p -> log1p
  | Ast.Sqrt -> sqrt
  | Ast.Cbrt -> Float.cbrt
  | Ast.Fabs -> Float.abs
  | Ast.Floor -> floor
  | Ast.Ceil -> ceil
  | Ast.Pow | Ast.Fmod | Ast.Atan2 | Ast.Hypot | Ast.Fmin | Ast.Fmax ->
    invalid_arg "Reference.eval1: binary function"

let eval2 fn : float -> float -> float =
  match fn with
  | Ast.Pow -> Float.pow
  | Ast.Fmod -> Float.rem
  | Ast.Atan2 -> Float.atan2
  | Ast.Hypot -> Float.hypot
  | Ast.Fmin -> Float.min_num
  | Ast.Fmax -> Float.max_num
  | _ -> invalid_arg "Reference.eval2: unary function"

let is_exactly_rounded = function
  | Ast.Sqrt | Ast.Fabs | Ast.Floor | Ast.Ceil | Ast.Fmin | Ast.Fmax
  | Ast.Fmod ->
    true
  | Ast.Sin | Ast.Cos | Ast.Tan | Ast.Asin | Ast.Acos | Ast.Atan
  | Ast.Sinh | Ast.Cosh | Ast.Tanh | Ast.Exp | Ast.Exp2 | Ast.Expm1
  | Ast.Log | Ast.Log2 | Ast.Log10 | Ast.Log1p | Ast.Cbrt | Ast.Pow
  | Ast.Atan2 | Ast.Hypot ->
    false
