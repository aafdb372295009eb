(* Tests for lib/mathlib: reference semantics, vendor perturbation,
   fast-math polynomial kernels, dispatch. *)

open Lang
open Helpers

let all_flavors =
  [ Mathlib.Libm.Glibc; Mathlib.Libm.Mpfr_fold; Mathlib.Libm.Llvm_fold;
    Mathlib.Libm.Cuda; Mathlib.Libm.Gcc_fast; Mathlib.Libm.Clang_fast;
    Mathlib.Libm.Cuda_fast ]

(* ------------------------------------------------------------------ *)
(* Reference *)

let test_reference_matches_stdlib () =
  check_bool "sin" true (Mathlib.Reference.eval1 Ast.Sin 1.3 = sin 1.3);
  check_bool "pow" true (Mathlib.Reference.eval2 Ast.Pow 2.0 10.0 = 1024.0);
  check_bool "fmod" true (Mathlib.Reference.eval2 Ast.Fmod 7.5 2.0 = 1.5);
  check_bool "fmin NaN" true (Mathlib.Reference.eval2 Ast.Fmin Float.nan 3.0 = 3.0)

let test_reference_arity_errors () =
  check_bool "eval1 on pow raises" true
    (try ignore (Mathlib.Reference.eval1 Ast.Pow 1.0); false
     with Invalid_argument _ -> true);
  check_bool "eval2 on sin raises" true
    (try ignore (Mathlib.Reference.eval2 Ast.Sin 1.0 2.0); false
     with Invalid_argument _ -> true);
  check_bool "call arity mismatch raises" true
    (try ignore (Mathlib.Libm.call Mathlib.Libm.Glibc Ast.Sin [ 1.0; 2.0 ]); false
     with Invalid_argument _ -> true)

let test_exactly_rounded_set () =
  check_bool "sqrt exact" true (Mathlib.Reference.is_exactly_rounded Ast.Sqrt);
  check_bool "fabs exact" true (Mathlib.Reference.is_exactly_rounded Ast.Fabs);
  check_bool "sin inexact" false (Mathlib.Reference.is_exactly_rounded Ast.Sin);
  check_bool "pow inexact" false (Mathlib.Reference.is_exactly_rounded Ast.Pow)

(* ------------------------------------------------------------------ *)
(* Perturb *)

let profile = Mathlib.Perturb.profile ~salt:0xABCDL ~prob:0.5 ~max_ulps:2

let sin_site = Mathlib.Perturb.wrap1 profile Ast.Sin sin

let test_perturb_deterministic () =
  let again = Mathlib.Perturb.wrap1 profile Ast.Sin sin in
  check_bool "same args same nudge" true (sin_site 1.7 = sin_site 1.7);
  check_bool "same site same nudge" true (sin_site 1.7 = again 1.7)

let test_perturb_bounded () =
  let rng = Util.Rng.of_int 99 in
  for _ = 1 to 2000 do
    let x = Util.Rng.float_in rng (-20.0) 20.0 in
    check_bool "within max_ulps" true
      (Fp.Bits.ulp_distance (sin x) (sin_site x) <= 2L)
  done

let test_perturb_rate () =
  let cos_site = Mathlib.Perturb.wrap1 profile Ast.Cos cos in
  let rng = Util.Rng.of_int 100 in
  let hits = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    let x = Util.Rng.float_in rng (-20.0) 20.0 in
    if cos_site x <> cos x then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "rate near configured 0.5" true (Float.abs (rate -. 0.5) < 0.05)

let test_perturb_skips_exact_and_special () =
  let exact = Float.sqrt in
  check_bool "sqrt kernel returned as is" true
    (Mathlib.Perturb.wrap1 profile Ast.Sqrt exact == exact);
  check_bool "nan untouched" true
    (Float.is_nan
       (Mathlib.Perturb.wrap1 profile Ast.Sin (fun _ -> Float.nan) Float.nan));
  check_bool "zero untouched" true (sin_site 0.0 = 0.0)

let test_salts_decorrelated () =
  let p1 = Mathlib.Perturb.profile ~salt:1L ~prob:0.5 ~max_ulps:1 in
  let p2 = Mathlib.Perturb.profile ~salt:2L ~prob:0.5 ~max_ulps:1 in
  let s1 = Mathlib.Perturb.wrap1 p1 Ast.Sin sin in
  let s2 = Mathlib.Perturb.wrap1 p2 Ast.Sin sin in
  let rng = Util.Rng.of_int 101 in
  let agree = ref 0 and n = 2000 in
  for _ = 1 to n do
    let x = Util.Rng.float_in rng (-20.0) 20.0 in
    let base = sin x in
    if (s1 x <> base) = (s2 x <> base) then incr agree
  done;
  (* independent coins agree about half the time *)
  let rate = float_of_int !agree /. float_of_int n in
  check_bool "salts independent" true (rate > 0.4 && rate < 0.6)

(* ------------------------------------------------------------------ *)
(* Poly (fast kernels) *)

(* Mixed absolute/relative error: near the zeros of sin/log the relative
   error of any polynomial kernel blows up, so accuracy is judged against
   max(|exact|, 0.01) — the standard metric for fast trig. *)
let rel_err a b = Float.abs (a -. b) /. Float.max (Float.abs b) 0.01

let sweep ~lo ~hi ~f ~reference ~tolerance name =
  let rng = Util.Rng.of_int 500 in
  for _ = 1 to 3000 do
    let x = Util.Rng.float_in rng lo hi in
    let approx = f x and exact = reference x in
    if Float.is_finite exact then
      if rel_err approx exact > tolerance then
        Alcotest.failf "%s: x=%h approx=%h exact=%h" name x approx exact
  done

let test_poly_sin () =
  sweep ~lo:(-30.0) ~hi:30.0 ~f:Mathlib.Poly.sin_fast ~reference:sin
    ~tolerance:1e-8 "sin_fast"

let test_poly_cos () =
  sweep ~lo:(-30.0) ~hi:30.0 ~f:Mathlib.Poly.cos_fast ~reference:cos
    ~tolerance:1e-8 "cos_fast"

let test_poly_exp () =
  sweep ~lo:(-50.0) ~hi:50.0 ~f:Mathlib.Poly.exp_fast ~reference:exp
    ~tolerance:1e-9 "exp_fast"

let test_poly_log () =
  sweep ~lo:1e-6 ~hi:1e6 ~f:Mathlib.Poly.log_fast ~reference:log
    ~tolerance:5e-8 "log_fast"

let test_poly_log2 () =
  sweep ~lo:1e-6 ~hi:1e6 ~f:Mathlib.Poly.log2_fast ~reference:Float.log2
    ~tolerance:5e-8 "log2_fast"

let test_poly_pow () =
  let rng = Util.Rng.of_int 501 in
  for _ = 1 to 2000 do
    let x = Util.Rng.float_in rng 0.01 100.0 in
    let y = Util.Rng.float_in rng (-5.0) 5.0 in
    let approx = Mathlib.Poly.pow_fast x y and exact = Float.pow x y in
    check_bool "pow_fast accuracy" true (rel_err approx exact < 1e-7)
  done

let test_poly_differs_from_exact () =
  (* the kernels must genuinely diverge in the last ulps somewhere *)
  let rng = Util.Rng.of_int 502 in
  let diff = ref 0 in
  for _ = 1 to 1000 do
    let x = Util.Rng.float_in rng (-10.0) 10.0 in
    if Mathlib.Poly.sin_fast x <> sin x then incr diff
  done;
  check_bool "fast sin differs from precise often" true (!diff > 300)

let test_poly_specials () =
  check_bool "sin nan" true (Float.is_nan (Mathlib.Poly.sin_fast Float.nan));
  check_bool "exp overflow" true (Mathlib.Poly.exp_fast 1000.0 = Float.infinity);
  check_bool "exp underflow" true (Mathlib.Poly.exp_fast (-1000.0) = 0.0);
  check_bool "log of negative" true (Float.is_nan (Mathlib.Poly.log_fast (-1.0)));
  check_bool "log of zero" true (Mathlib.Poly.log_fast 0.0 = Float.neg_infinity);
  check_bool "pow negative base" true (Float.is_nan (Mathlib.Poly.pow_fast (-2.0) 3.0));
  check_bool "pow zero exponent" true (Mathlib.Poly.pow_fast 5.0 0.0 = 1.0)

(* ------------------------------------------------------------------ *)
(* Libm dispatch *)

let test_exact_fns_identical_everywhere () =
  let rng = Util.Rng.of_int 600 in
  for _ = 1 to 500 do
    let x = Util.Rng.float_in rng 0.0 100.0 in
    let reference = sqrt x in
    List.iter
      (fun flavor ->
        check_bool "sqrt identical across vendors" true
          (Mathlib.Libm.kernel1 flavor Ast.Sqrt x = reference))
      all_flavors
  done

let test_glibc_is_baseline () =
  check_bool "glibc = reference" true
    (Mathlib.Libm.kernel1 Mathlib.Libm.Glibc Ast.Sin 0.7 = sin 0.7)

let test_cuda_diverges_sometimes () =
  let rng = Util.Rng.of_int 601 in
  let diff = ref 0 in
  for _ = 1 to 2000 do
    let x = Util.Rng.float_in rng (-20.0) 20.0 in
    if
      Mathlib.Libm.kernel1 Mathlib.Libm.Cuda Ast.Sin x
      <> Mathlib.Libm.kernel1 Mathlib.Libm.Glibc Ast.Sin x
    then incr diff
  done;
  check_bool "cuda diverges on some args" true (!diff > 100);
  check_bool "cuda agrees on most magnitude" true (!diff < 1800)

let test_cuda_deterministic () =
  check_bool "same value both calls" true
    (Mathlib.Libm.kernel1 Mathlib.Libm.Cuda Ast.Exp 3.21
    = Mathlib.Libm.kernel1 Mathlib.Libm.Cuda Ast.Exp 3.21)

let test_fast_minmax_nan_semantics () =
  let open Mathlib.Libm in
  (* precise: NaN is "missing data" *)
  check_bool "precise fmin(nan, 3) = 3" true (kernel2 Glibc Ast.Fmin Float.nan 3.0 = 3.0);
  (* gcc fast: a < b ? a : b -> NaN compares false -> returns b *)
  check_bool "gcc-fast fmin(nan, 3) = 3" true
    (kernel2 Gcc_fast Ast.Fmin Float.nan 3.0 = 3.0);
  check_bool "gcc-fast fmin(3, nan) = nan" true
    (Float.is_nan (kernel2 Gcc_fast Ast.Fmin 3.0 Float.nan));
  (* clang fast: b < a ? b : a -> returns a *)
  check_bool "clang-fast fmin(nan, 3) = nan" true
    (Float.is_nan (kernel2 Clang_fast Ast.Fmin Float.nan 3.0));
  (* the two host fast-math lowerings disagree under NaN *)
  check_bool "gcc/clang disagree on NaN" true
    (Float.is_nan (kernel2 Clang_fast Ast.Fmax Float.nan 1.0)
    && not (Float.is_nan (kernel2 Gcc_fast Ast.Fmax Float.nan 1.0)))

let test_fast_minmax_agree_on_numbers () =
  let rng = Util.Rng.of_int 602 in
  for _ = 1 to 500 do
    let a = Util.Rng.float_in rng (-50.0) 50.0 in
    let b = Util.Rng.float_in rng (-50.0) 50.0 in
    let reference = Float.min_num a b in
    check_bool "gcc fast fmin on numbers" true
      (Mathlib.Libm.kernel2 Mathlib.Libm.Gcc_fast Ast.Fmin a b = reference);
    check_bool "clang fast fmin on numbers" true
      (Mathlib.Libm.kernel2 Mathlib.Libm.Clang_fast Ast.Fmin a b = reference)
  done

let test_cuda_fast_uses_poly () =
  check_bool "cuda fast sin = poly sin" true
    (Mathlib.Libm.kernel1 Mathlib.Libm.Cuda_fast Ast.Sin 1.234
    = Mathlib.Poly.sin_fast 1.234)

let test_f32_divergence_survives_rounding () =
  (* on the F32 grid the nudges must remain visible after rounding to
     single precision; on the F64 grid they must mostly vanish *)
  let rng = Util.Rng.of_int 603 in
  let to32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let diff64 = ref 0 and diff32 = ref 0 and n = 2000 in
  for _ = 1 to n do
    let x = to32 (Util.Rng.float_in rng (-20.0) 20.0) in
    let reference = to32 (sin x) in
    let a64 = to32 (Mathlib.Libm.kernel1 ~precision:Lang.Ast.F64 Mathlib.Libm.Cuda Ast.Sin x) in
    let a32 = to32 (Mathlib.Libm.kernel1 ~precision:Lang.Ast.F32 Mathlib.Libm.Cuda Ast.Sin x) in
    if a64 <> reference then incr diff64;
    if a32 <> reference then incr diff32
  done;
  check_bool "f32-grid divergence visible" true (!diff32 > 300);
  check_bool "f64-grid nudges vanish in f32" true (!diff64 < !diff32 / 4)

let test_cuda_fast32_intrinsic_error () =
  let to32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let rng = Util.Rng.of_int 604 in
  let diff = ref 0 and n = 1000 in
  for _ = 1 to n do
    let x = to32 (Util.Rng.float_in rng (-8.0) 8.0) in
    let fast = to32 (Mathlib.Libm.kernel1 ~precision:Lang.Ast.F32 Mathlib.Libm.Cuda_fast Ast.Sin x) in
    if fast <> to32 (sin x) then incr diff
  done;
  check_bool "float intrinsics carry error" true (!diff > 300)

(* Golden digest of every vendor library's result bits: each flavor x
   function x precision over a fixed argument grid (signed zeros,
   subnormals, infinities, NaN, decades from 1e-300 to 1e300, and
   neighbours of pi/2 and 1), binary functions over every grid pair —
   so fmin/fmax under the fast flavors are covered too. Pinned when the
   list-form dispatch was the only implementation; any change to a
   single result bit changes the digest. *)
let golden_grid =
  let near x = [ Float.pred x; x; Float.succ x ] in
  let decades =
    List.concat_map
      (fun e ->
        let v = float_of_string (Printf.sprintf "1e%d" e) in
        [ v; -.v ])
      [ -300; -200; -100; -30; -10; -3; -1; 0; 1; 3; 10; 30; 100; 200; 300 ]
  in
  [ 0.0; -0.0; 4.9e-324; -4.9e-324; 2.2250738585072009e-308; -1e-310;
    Float.infinity; Float.neg_infinity; Float.nan ]
  @ decades
  @ near 1.5707963267948966 @ near (-1.5707963267948966) @ near 1.0
  @ near (-1.0)
  @ [ 0.5; 0.7; 2.5; 3.141592653589793; 709.78; -745.1 ]

let test_libm_golden_digest () =
  let b = Buffer.create (1 lsl 20) in
  let add v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  List.iter
    (fun precision ->
      List.iter
        (fun flavor ->
          Array.iter
            (fun fn ->
              let call = Mathlib.Libm.call ~precision flavor fn in
              match Ast.math_fn_arity fn with
              | 1 -> List.iter (fun x -> add (call [ x ])) golden_grid
              | _ ->
                List.iter
                  (fun x -> List.iter (fun y -> add (call [ x; y ])) golden_grid)
                  golden_grid)
            Ast.all_math_fns)
        all_flavors)
    [ Ast.F64; Ast.F32 ];
  check_string "result bits digest" "1ccec6e4c285e6e2c8b92bbe8a5ba606"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_flavor_names_distinct () =
  let names = List.map Mathlib.Libm.flavor_name all_flavors in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "mathlib"
    [
      ( "reference",
        [
          Alcotest.test_case "matches stdlib" `Quick test_reference_matches_stdlib;
          Alcotest.test_case "arity errors" `Quick test_reference_arity_errors;
          Alcotest.test_case "exactly-rounded set" `Quick test_exactly_rounded_set;
        ] );
      ( "perturb",
        [
          Alcotest.test_case "deterministic" `Quick test_perturb_deterministic;
          Alcotest.test_case "bounded" `Quick test_perturb_bounded;
          Alcotest.test_case "rate" `Quick test_perturb_rate;
          Alcotest.test_case "skips exact/special" `Quick test_perturb_skips_exact_and_special;
          Alcotest.test_case "salts decorrelated" `Quick test_salts_decorrelated;
        ] );
      ( "poly",
        [
          Alcotest.test_case "sin accuracy" `Quick test_poly_sin;
          Alcotest.test_case "cos accuracy" `Quick test_poly_cos;
          Alcotest.test_case "exp accuracy" `Quick test_poly_exp;
          Alcotest.test_case "log accuracy" `Quick test_poly_log;
          Alcotest.test_case "log2 accuracy" `Quick test_poly_log2;
          Alcotest.test_case "pow accuracy" `Quick test_poly_pow;
          Alcotest.test_case "genuinely different" `Quick test_poly_differs_from_exact;
          Alcotest.test_case "special values" `Quick test_poly_specials;
        ] );
      ( "libm",
        [
          Alcotest.test_case "exact fns identical" `Quick test_exact_fns_identical_everywhere;
          Alcotest.test_case "glibc baseline" `Quick test_glibc_is_baseline;
          Alcotest.test_case "cuda diverges sometimes" `Quick test_cuda_diverges_sometimes;
          Alcotest.test_case "cuda deterministic" `Quick test_cuda_deterministic;
          Alcotest.test_case "fast min/max NaN" `Quick test_fast_minmax_nan_semantics;
          Alcotest.test_case "fast min/max numbers" `Quick test_fast_minmax_agree_on_numbers;
          Alcotest.test_case "cuda fast = poly" `Quick test_cuda_fast_uses_poly;
          Alcotest.test_case "f32 grid divergence" `Quick test_f32_divergence_survives_rounding;
          Alcotest.test_case "f32 intrinsic error" `Quick test_cuda_fast32_intrinsic_error;
          Alcotest.test_case "flavor names" `Quick test_flavor_names_distinct;
          Alcotest.test_case "golden digest" `Quick test_libm_golden_digest;
        ] );
    ]
