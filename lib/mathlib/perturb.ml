type profile = { salt : int64; prob : float; max_ulps : int }

let profile ~salt ~prob ~max_ulps =
  if prob < 0.0 || prob > 1.0 then invalid_arg "Perturb.profile: prob";
  if max_ulps < 1 then invalid_arg "Perturb.profile: max_ulps";
  { salt; prob; max_ulps }

(* The hash helpers are inlined wherever they are used, so the Int64
   state never leaves registers: an out-of-line call would box it. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The function's index in [Lang.Ast.all_math_fns]. *)
let fn_tag : Lang.Ast.math_fn -> int = function
  | Sin -> 0 | Cos -> 1 | Tan -> 2 | Asin -> 3 | Acos -> 4 | Atan -> 5
  | Sinh -> 6 | Cosh -> 7 | Tanh -> 8
  | Exp -> 9 | Exp2 -> 10 | Expm1 -> 11
  | Log -> 12 | Log2 -> 13 | Log10 -> 14 | Log1p -> 15
  | Sqrt -> 16 | Cbrt -> 17
  | Fabs -> 18 | Floor -> 19 | Ceil -> 20
  | Pow -> 21 | Fmod -> 22 | Atan2 -> 23 | Hypot -> 24 | Fmin -> 25 | Fmax -> 26

(* The key of a call is [site] absorbing each argument's bits in order;
   [site] depends only on the vendor and the function. *)
let site profile fn =
  mix (Int64.add (mix profile.salt) (Int64.of_int (fn_tag fn)))

let[@inline] absorb h a = mix (Int64.logxor h (Int64.bits_of_float a))

let[@inline] unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53

type grid = F64 | F32

let[@inline] untouched base = (not (Float.is_finite base)) || base = 0.0

let shift grid profile h base =
  let h2 = mix h in
  let magnitude = 1 + Int64.to_int (Int64.rem (Int64.shift_right_logical h2 2) (Int64.of_int profile.max_ulps)) in
  let direction = if Int64.logand h2 1L = 0L then magnitude else -magnitude in
  match grid with
  | F64 -> Fp.Bits.nudge_ulps base direction
  | F32 -> Fp.Bits.nudge_ulps32 base direction

let[@inline] draw grid profile h base =
  if unit_float h >= profile.prob then base else shift grid profile h base

let wrap1 ?(grid = F64) profile fn f =
  if Reference.is_exactly_rounded fn then f
  else
    let site = site profile fn in
    fun x ->
      let base = f x in
      if untouched base then base else draw grid profile (absorb site x) base

let wrap2 ?(grid = F64) profile fn f =
  if Reference.is_exactly_rounded fn then f
  else
    let site = site profile fn in
    fun x y ->
      let base = f x y in
      if untouched base then base
      else draw grid profile (absorb (absorb site x) y) base
