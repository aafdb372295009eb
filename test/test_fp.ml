(* Tests for lib/fp: IEEE-754 bit utilities, error-free transforms,
   software FMA, and the digit-difference metric. *)

open Helpers

let arbitrary_finite =
  QCheck.map
    (fun (m, e) -> ldexp m (e mod 600))
    QCheck.(pair (float_bound_exclusive 1.0) small_int)

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_classify () =
  let open Fp.Bits in
  check_bool "real" true (classify 1.5 = Real);
  check_bool "subnormal is real" true (classify 1e-310 = Real);
  check_bool "zero" true (classify 0.0 = Zero);
  check_bool "neg zero" true (classify (-0.0) = Zero);
  check_bool "+inf" true (classify Float.infinity = Pos_inf);
  check_bool "-inf" true (classify Float.neg_infinity = Neg_inf);
  check_bool "nan" true (classify Float.nan = Nan)

let test_class_pair_name_normalized () =
  let open Fp.Bits in
  check_string "order-insensitive" (class_pair_name Real Nan)
    (class_pair_name Nan Real);
  check_string "rendering" "{Real, Zero}" (class_pair_name Zero Real)

let test_hex_roundtrip_known () =
  check_string "1.0" "3ff0000000000000" (Fp.Bits.hex_of_double 1.0);
  check_string "-2.0" "c000000000000000" (Fp.Bits.hex_of_double (-2.0));
  check_string "+0" "0000000000000000" (Fp.Bits.hex_of_double 0.0);
  check_bool "roundtrip" true
    (Fp.Bits.double_of_hex (Fp.Bits.hex_of_double 0.1) = 0.1)

let test_hex_reject () =
  Alcotest.check_raises "short"
    (Invalid_argument "Bits.double_of_hex: need 16 hex chars") (fun () ->
      ignore (Fp.Bits.double_of_hex "abc"))

let test_flush_subnormal () =
  check_bool "subnormal flushed" true (Fp.Bits.flush_subnormal 1e-310 = 0.0);
  check_bool "sign kept" true (Float.sign_bit (Fp.Bits.flush_subnormal (-1e-310)));
  check_bool "normal kept" true (Fp.Bits.flush_subnormal 1e-300 = 1e-300)

let test_ulp () =
  check_bool "ulp(1.0) = eps" true (Fp.Bits.ulp 1.0 = epsilon_float);
  check_bool "ulp positive" true (Fp.Bits.ulp 12345.678 > 0.0)

let test_nudge () =
  check_bool "+1 is succ" true (Fp.Bits.nudge_ulps 1.0 1 = Float.succ 1.0);
  check_bool "-1 is pred" true (Fp.Bits.nudge_ulps 1.0 (-1) = Float.pred 1.0);
  check_bool "0 identity" true (Fp.Bits.nudge_ulps 3.25 0 = 3.25);
  check_bool "inf unchanged" true
    (Fp.Bits.nudge_ulps Float.infinity 5 = Float.infinity)

let test_ulp_distance () =
  check_bool "equal" true (Fp.Bits.ulp_distance 1.0 1.0 = 0L);
  check_bool "adjacent" true (Fp.Bits.ulp_distance 1.0 (Float.succ 1.0) = 1L);
  check_bool "zero pair" true (Fp.Bits.ulp_distance 0.0 (-0.0) = 1L);
  check_bool "across zero" true
    (Fp.Bits.ulp_distance (Float.succ 0.0) (Float.pred 0.0) = 3L)

let test_nudge32 () =
  check_bool "one f32 step is visible after f32 rounding" true
    (let x = 1.5 in
     let y = Fp.Bits.nudge_ulps32 x 1 in
     y <> x && Int32.bits_of_float y <> Int32.bits_of_float x);
  check_bool "f32 step smaller than 2 f32 ulps" true
    (Float.abs (Fp.Bits.nudge_ulps32 1.0 1 -. 1.0) < 2.5e-7);
  check_bool "inverse" true
    (Fp.Bits.nudge_ulps32 (Fp.Bits.nudge_ulps32 0.25 5) (-5) = 0.25);
  check_bool "inf unchanged" true
    (Fp.Bits.nudge_ulps32 Float.infinity 3 = Float.infinity)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex encode/decode roundtrips bits" ~count:1000
    QCheck.int64 (fun bits ->
      let x = Int64.float_of_bits bits in
      Int64.bits_of_float (Fp.Bits.double_of_hex (Fp.Bits.hex_of_double x))
      = Int64.bits_of_float x)

let qcheck_nudge_inverse =
  QCheck.Test.make ~name:"nudge n then -n is identity (finite)" ~count:1000
    QCheck.(pair arbitrary_finite (int_bound 1000))
    (fun (x, n) ->
      QCheck.assume (Float.is_finite x);
      let y = Fp.Bits.nudge_ulps x n in
      QCheck.assume (Float.is_finite y);
      Fp.Bits.nudge_ulps y (-n) = x
      || Int64.bits_of_float (Fp.Bits.nudge_ulps y (-n)) = Int64.bits_of_float x)

let qcheck_nudge_distance =
  QCheck.Test.make ~name:"nudge by n is at ulp distance |n|" ~count:1000
    QCheck.(pair arbitrary_finite (int_range (-500) 500))
    (fun (x, n) ->
      QCheck.assume (Float.is_finite x);
      let y = Fp.Bits.nudge_ulps x n in
      QCheck.assume (Float.is_finite y);
      Fp.Bits.ulp_distance x y = Int64.of_int (abs n))

(* ------------------------------------------------------------------ *)
(* Eft *)

let dd_to_string (s, e) = Printf.sprintf "(%h, %h)" s e

let test_two_sum_exact () =
  let s, e = Fp.Eft.two_sum 1.0 1e-20 in
  check_bool "rounded part" true (s = 1.0);
  check_bool "error captured" true (e = 1e-20);
  ignore (dd_to_string (s, e))

let test_two_prod_exact () =
  let p, e = Fp.Eft.two_prod 0.1 0.1 in
  check_bool "p is rounded product" true (p = 0.1 *. 0.1);
  check_bool "error nonzero for inexact" true (e <> 0.0)

let qcheck_two_sum_invariant =
  QCheck.Test.make ~name:"two_sum: s is fl(a+b), error below half an ulp"
    ~count:1000
    QCheck.(pair (float_bound_exclusive 1e10) (float_bound_exclusive 1e10))
    (fun (a, b) ->
      let s, e = Fp.Eft.two_sum a b in
      s = a +. b && (e = 0.0 || Float.abs e <= 0.5 *. Fp.Bits.ulp s))

let qcheck_two_sum_reconstruct =
  QCheck.Test.make ~name:"two_sum error reconstructs exactly on ints"
    ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (ia, ib) ->
      (* integer inputs: a + b is exact, so e must be 0 *)
      let a = float_of_int ia and b = float_of_int ib in
      let s, e = Fp.Eft.two_sum a b in
      s = a +. b && e = 0.0)

let qcheck_two_prod_fma_check =
  QCheck.Test.make ~name:"two_prod error equals fma residual" ~count:1000
    QCheck.(pair (float_bound_exclusive 1e8) (float_bound_exclusive 1e8))
    (fun (a, b) ->
      let p, e = Fp.Eft.two_prod a b in
      (* fma(a, b, -p) computes a*b - p exactly rounded; for the EFT the
         residual is representable, so they must agree. *)
      p = a *. b && e = Float.fma a b (-.p))

let test_dd_sum_more_accurate () =
  (* summing 10_000 copies of 0.1 in double-double is far closer to 1000
     than naive summation *)
  let naive = ref 0.0 in
  let dd = ref (Fp.Eft.Dd.of_float 0.0) in
  for _ = 1 to 10_000 do
    naive := !naive +. 0.1;
    dd := Fp.Eft.Dd.add_float !dd 0.1
  done;
  let err_naive = Float.abs (!naive -. 1000.0) in
  let err_dd = Float.abs (Fp.Eft.Dd.to_float !dd -. 1000.0) in
  check_bool "double-double wins" true (err_dd < err_naive /. 100.0)

let test_dd_mul () =
  (* of_prod captures the exact product: lo must equal the fma residual *)
  let d = Fp.Eft.Dd.of_prod 0.1 0.1 in
  check_bool "hi is rounded product" true (d.Fp.Eft.Dd.hi = 0.1 *. 0.1);
  check_bool "lo is the exact residual" true
    (d.Fp.Eft.Dd.lo = Float.fma 0.1 0.1 (-.(0.1 *. 0.1)))

(* ------------------------------------------------------------------ *)
(* Fma *)

let test_fma_basic () =
  check_bool "exact case" true (Fp.Fma.software 2.0 3.0 4.0 = 10.0);
  check_bool "matches hardware on simple" true
    (Fp.Fma.software 0.1 0.1 (-0.01) = Fp.Fma.hardware 0.1 0.1 (-0.01))

let test_fma_single_rounding_differs () =
  (* The canonical case where fused and unfused differ: squaring 1+2^-27
     and subtracting 1 — the cross term survives only under fusion. *)
  let a = 1.0 +. 0x1p-27 in
  let fused = Fp.Fma.hardware a a (-1.0) in
  let unfused = (a *. a) -. 1.0 in
  check_bool "fma differs from mul+add here" true (fused <> unfused);
  check_bool "fused keeps the low term" true (fused = 0x1p-26 +. 0x1p-54)

let qcheck_fma_matches_hardware =
  QCheck.Test.make ~name:"software fma == hardware fma (normal range)"
    ~count:2000
    QCheck.(triple (float_bound_exclusive 1e15) (float_bound_exclusive 1e15)
              (float_bound_exclusive 1e15))
    (fun (a, b, c) ->
      let sw = Fp.Fma.software a b c and hw = Fp.Fma.hardware a b c in
      Int64.bits_of_float sw = Int64.bits_of_float hw)

let qcheck_fma_signs =
  QCheck.Test.make ~name:"software fma sign combinations match hardware"
    ~count:2000
    QCheck.(quad (float_bound_exclusive 1e6) (float_bound_exclusive 1e6)
              (float_bound_exclusive 1e6) (pair bool bool))
    (fun (a, b, c, (sa, sb)) ->
      let a = if sa then -.a else a in
      let b = if sb then -.b else b in
      Int64.bits_of_float (Fp.Fma.software a b c)
      = Int64.bits_of_float (Fp.Fma.hardware a b c))

let test_fma_specials () =
  check_bool "nan propagates" true (Float.is_nan (Fp.Fma.software Float.nan 1.0 1.0));
  check_bool "inf" true (Fp.Fma.software Float.infinity 1.0 0.0 = Float.infinity)

(* ------------------------------------------------------------------ *)
(* Digits *)

let test_decompose () =
  let neg, digits, exp10 = Fp.Digits.decompose 0.1 in
  check_bool "positive" false neg;
  check_string "mantissa" "1000000000000000" digits;
  check_int "exponent" (-1) exp10

let test_decompose_zero () =
  let _, digits, exp10 = Fp.Digits.decompose 0.0 in
  check_string "all zero" "0000000000000000" digits;
  check_int "zero exponent" 0 exp10

let test_diff_count_cases () =
  check_int "identical" 0 (Fp.Digits.diff_count 1.5 1.5);
  check_int "sign flip" 16 (Fp.Digits.diff_count 1.5 (-1.5));
  check_int "exponent diff" 16 (Fp.Digits.diff_count 1.5 15.0);
  check_int "non-finite" 16 (Fp.Digits.diff_count 1.5 Float.nan);
  check_bool "last-ulp is small" true
    (Fp.Digits.diff_count 1.0 (Float.succ 1.0) <= 2);
  check_bool "one ulp at least 1" true
    (Fp.Digits.diff_count 1.0 (Float.succ 1.0) >= 1)

let test_diff_count_cascade () =
  (* 0.2999999999999999 vs 0.3: the decimal carry ripples across every
     printed digit even though the values are a few ulps apart *)
  check_bool "cascading carry" true
    (Fp.Digits.diff_count (0.3 -. 1e-16) 0.3 > 10)

let qcheck_diff_count_bounds =
  QCheck.Test.make ~name:"diff_count in [0,16]" ~count:1000
    QCheck.(pair arbitrary_finite arbitrary_finite)
    (fun (a, b) ->
      let d = Fp.Digits.diff_count a b in
      d >= 0 && d <= 16)

let qcheck_diff_count_symmetric =
  QCheck.Test.make ~name:"diff_count symmetric" ~count:1000
    QCheck.(pair arbitrary_finite arbitrary_finite)
    (fun (a, b) -> Fp.Digits.diff_count a b = Fp.Digits.diff_count b a)

(* Golden digest of the digit metric over every ordered pair of a fixed
   grid (signed zeros, subnormals, powers of ten, values whose 16 digits
   agree though their bits differ, decimal carries, extreme exponents,
   non-finite values), plus each grid value's decomposition or the
   message it is refused with. *)
let digits_grid =
  let base =
    [ 0.0; 5e-324; 2.2250738585072009e-308; 2.2250738585072014e-308; 1e-300;
      1e-17; 0.1; 0.3 -. 1e-16; 0.3; 1.0; Float.succ 1.0; Float.pred 1.0;
      1.5; 9.999999999999999; 10.0; 15.0; 123456789.0; 1e15; 1e16; 1e22;
      1e300; Float.max_float ]
  in
  List.concat_map (fun x -> [ x; -.x ]) base
  @ [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_digits_golden_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun x ->
      (match Fp.Digits.decompose x with
       | neg, digits, exp10 ->
         Printf.bprintf b "%b %s %d;" neg digits exp10
       | exception Invalid_argument msg -> Printf.bprintf b "E %s;" msg);
      List.iter
        (fun y -> Printf.bprintf b "%d " (Fp.Digits.diff_count x y))
        digits_grid)
    digits_grid;
  check_string "digit digest" "bcfd5452136229ecff1a97c4e9938c73"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_acc () =
  let acc = Fp.Digits.Acc.empty in
  check_string "empty renders dash" "-" (Fp.Digits.Acc.to_string acc);
  let acc = Fp.Digits.Acc.add (Fp.Digits.Acc.add (Fp.Digits.Acc.add acc 1) 16) 4 in
  check_int "count" 3 (Fp.Digits.Acc.count acc);
  check_int "min" 1 (Fp.Digits.Acc.min acc);
  check_int "max" 16 (Fp.Digits.Acc.max acc);
  check_string "render" "(1/16/7.00)" (Fp.Digits.Acc.to_string acc)

let () =
  Alcotest.run "fp"
    [
      ( "bits",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "class pair names" `Quick test_class_pair_name_normalized;
          Alcotest.test_case "hex known values" `Quick test_hex_roundtrip_known;
          Alcotest.test_case "hex rejects malformed" `Quick test_hex_reject;
          Alcotest.test_case "flush subnormal" `Quick test_flush_subnormal;
          Alcotest.test_case "ulp" `Quick test_ulp;
          Alcotest.test_case "nudge" `Quick test_nudge;
          Alcotest.test_case "ulp distance" `Quick test_ulp_distance;
          Alcotest.test_case "nudge on f32 grid" `Quick test_nudge32;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_nudge_inverse;
          QCheck_alcotest.to_alcotest qcheck_nudge_distance;
        ] );
      ( "eft",
        [
          Alcotest.test_case "two_sum exact" `Quick test_two_sum_exact;
          Alcotest.test_case "two_prod exact" `Quick test_two_prod_exact;
          QCheck_alcotest.to_alcotest qcheck_two_sum_invariant;
          QCheck_alcotest.to_alcotest qcheck_two_sum_reconstruct;
          QCheck_alcotest.to_alcotest qcheck_two_prod_fma_check;
          Alcotest.test_case "dd summation accuracy" `Quick test_dd_sum_more_accurate;
          Alcotest.test_case "dd multiplication" `Quick test_dd_mul;
        ] );
      ( "fma",
        [
          Alcotest.test_case "basic" `Quick test_fma_basic;
          Alcotest.test_case "single rounding differs" `Quick
            test_fma_single_rounding_differs;
          QCheck_alcotest.to_alcotest qcheck_fma_matches_hardware;
          QCheck_alcotest.to_alcotest qcheck_fma_signs;
          Alcotest.test_case "special values" `Quick test_fma_specials;
        ] );
      ( "digits",
        [
          Alcotest.test_case "decompose" `Quick test_decompose;
          Alcotest.test_case "decompose zero" `Quick test_decompose_zero;
          Alcotest.test_case "diff count cases" `Quick test_diff_count_cases;
          Alcotest.test_case "cascading carry" `Quick test_diff_count_cascade;
          Alcotest.test_case "golden digest" `Quick test_digits_golden_digest;
          QCheck_alcotest.to_alcotest qcheck_diff_count_bounds;
          QCheck_alcotest.to_alcotest qcheck_diff_count_symmetric;
          Alcotest.test_case "accumulator" `Quick test_acc;
        ] );
    ]
