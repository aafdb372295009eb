type class_ = Real | Zero | Pos_inf | Neg_inf | Nan

let classify x =
  match Float.classify_float x with
  | FP_zero -> Zero
  | FP_infinite -> if x > 0.0 then Pos_inf else Neg_inf
  | FP_nan -> Nan
  | FP_normal | FP_subnormal -> Real

let class_name = function
  | Real -> "Real"
  | Zero -> "Zero"
  | Pos_inf -> "+Inf"
  | Neg_inf -> "-Inf"
  | Nan -> "NaN"

let class_rank = function
  | Real -> 0
  | Zero -> 1
  | Pos_inf -> 2
  | Neg_inf -> 3
  | Nan -> 4

let classes = [| Real; Zero; Pos_inf; Neg_inf; Nan |]

let class_pair_names =
  Array.map
    (fun a ->
      Array.map
        (fun b ->
          let a, b = if class_rank a <= class_rank b then (a, b) else (b, a) in
          Printf.sprintf "{%s, %s}" (class_name a) (class_name b))
        classes)
    classes

let class_pair_name a b = class_pair_names.(class_rank a).(class_rank b)

let bits_of_double = Int64.bits_of_float
let double_of_bits = Int64.float_of_bits

let hex_of_double x = Printf.sprintf "%016Lx" (bits_of_double x)

let double_of_hex s =
  if String.length s <> 16 then invalid_arg "Bits.double_of_hex: need 16 hex chars";
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> double_of_bits bits
  | None -> invalid_arg "Bits.double_of_hex: malformed hex"

let is_subnormal x = Float.classify_float x = FP_subnormal

let flush_subnormal x =
  if is_subnormal x then if Float.sign_bit x then -0.0 else 0.0 else x

let ulp x =
  match Float.classify_float x with
  | FP_nan -> Float.nan
  | FP_infinite -> Float.infinity
  | FP_zero -> Float.min_float *. 0x1p-52 (* smallest subnormal *)
  | FP_normal | FP_subnormal ->
    let ax = Float.abs x in
    Float.succ ax -. ax

let next_up = Float.succ
let next_down = Float.pred

(* Map the sign-magnitude bit pattern onto a monotone integer line so that
   stepping by 1 walks through adjacent representable values. Negative
   values (sign bit set, i.e. negative as a signed int64) map magnitude
   [mag] to [-(mag)-1], so -0.0 sits at -1, just below +0.0 at 0. *)
let monotone_of_bits b =
  if Int64.compare b 0L < 0 then Int64.lognot (Int64.logand b Int64.max_int)
  else b

let bits_of_monotone m =
  if Int64.compare m 0L < 0 then Int64.logor Int64.min_int (Int64.lognot m)
  else m

let nudge_ulps x n =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> x
  | FP_zero | FP_normal | FP_subnormal ->
    let m = monotone_of_bits (bits_of_double x) in
    double_of_bits (bits_of_monotone (Int64.add m (Int64.of_int n)))

let monotone32_of_bits b =
  if Int32.compare b 0l < 0 then Int32.lognot (Int32.logand b Int32.max_int)
  else b

let bits32_of_monotone m =
  if Int32.compare m 0l < 0 then Int32.logor Int32.min_int (Int32.lognot m)
  else m

let nudge_ulps32 x n =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> x
  | FP_zero | FP_normal | FP_subnormal ->
    let x32 = Int32.float_of_bits (Int32.bits_of_float x) in
    if Float.is_finite x32 then
      let m = monotone32_of_bits (Int32.bits_of_float x32) in
      Int32.float_of_bits (bits32_of_monotone (Int32.add m (Int32.of_int n)))
    else x32

let ulp_distance a b =
  if Float.is_nan a || Float.is_nan b then invalid_arg "Bits.ulp_distance: NaN";
  let ma = monotone_of_bits (bits_of_double a) in
  let mb = monotone_of_bits (bits_of_double b) in
  Int64.abs (Int64.sub ma mb)
