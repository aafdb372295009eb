(* Tests for lib/ir (irsim): lowering, interpretation, and every
   optimization pass. *)

open Lang
open Helpers

let strict_rt =
  { Irsim.Interp.libm = Mathlib.Libm.Glibc; ftz = false; nan_cmp_taken = false }

let run_strict src inputs =
  (Irsim.Interp.run strict_rt (Irsim.Lower.program (parse src)) inputs)
    .Irsim.Interp.result

let arbitrary_case =
  (* (program, inputs) pairs from the Varity generator *)
  QCheck.make
    ~print:(fun (p, _) -> Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.gen_case (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Lowering *)

let test_lower_slots () =
  let ir = Irsim.Lower.program (parse {|
void compute(double x, double* a, int n) {
  double comp = 0.0;
  double t = x;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * t;
  }
}
|}) in
  check_int "comp slot" 0 ir.Irsim.Ir.comp_slot;
  check_int "fslots: comp, x, t" 3 ir.Irsim.Ir.n_fslots;
  check_int "islots: n, i" 2 ir.Irsim.Ir.n_islots;
  check_bool "one array of length 8" true (ir.Irsim.Ir.arr_lens = [| 8 |]);
  check_int "bindings" 3 (List.length ir.Irsim.Ir.bindings)

let test_lower_compound_assign () =
  let ir = Irsim.Lower.program
      (parse "void compute(double x) { double comp = 0.0; comp -= x; }") in
  match ir.Irsim.Ir.body with
  | [ Irsim.Ir.Store (0, Irsim.Ir.Bin (Ast.Sub, Irsim.Ir.Load 0, Irsim.Ir.Load 1)) ] -> ()
  | _ -> Alcotest.failf "unexpected lowering: %s" (Format.asprintf "%a" Irsim.Ir.pp ir)

let test_lower_int_promotion () =
  let v = run_strict
      "void compute(double x, int n) { double comp = 0.0; comp = x + n; }"
      Irsim.Inputs.[ Fp 1.5; Int 4 ] in
  check_float "promoted" 5.5 v

(* ------------------------------------------------------------------ *)
(* Interpreter semantics *)

let test_interp_arithmetic () =
  check_float "basic" 7.0
    (run_strict "void compute(double x) { double comp = 0.0; comp = x * 2.0 + 1.0; }"
       Irsim.Inputs.[ Fp 3.0 ])

let test_interp_loop_accumulation () =
  check_float "sum of arr" 10.0
    (run_strict {|
void compute(double* a) {
  double comp = 0.0;
  for (int i = 0; i < 4; ++i) {
    comp += a[i];
  }
}
|} Irsim.Inputs.[ Arr [| 1.0; 2.0; 3.0; 4.0; 0.0; 0.0; 0.0; 0.0 |] ])

let test_interp_branch () =
  let src = {|
void compute(double x) {
  double comp = 0.0;
  if (x > 1.0) {
    comp = 10.0;
  }
  if (x <= 1.0) {
    comp = 20.0;
  }
}
|} in
  check_float "taken" 10.0 (run_strict src Irsim.Inputs.[ Fp 2.0 ]);
  check_float "not taken" 20.0 (run_strict src Irsim.Inputs.[ Fp 0.5 ])

let test_interp_nan_comparison () =
  let src = {|
void compute(double x) {
  double comp = 0.0;
  double bad = x / x;
  if (bad < 1.0) {
    comp = 1.0;
  }
  if (bad >= 1.0) {
    comp += 2.0;
  }
}
|} in
  (* x = 0 -> bad = NaN: IEEE comparisons all false *)
  check_float "ieee: no branch taken" 0.0 (run_strict src Irsim.Inputs.[ Fp 0.0 ]);
  (* finite-math codegen: both branches taken *)
  let rt = { strict_rt with Irsim.Interp.nan_cmp_taken = true } in
  let v =
    (Irsim.Interp.run rt (Irsim.Lower.program (parse src)) Irsim.Inputs.[ Fp 0.0 ])
      .Irsim.Interp.result
  in
  check_float "finite-math: branches taken" 3.0 v

let test_interp_array_writes () =
  check_float "writeback" 9.0
    (run_strict {|
void compute(double* a) {
  double comp = 0.0;
  a[0] = a[0] * 2.0;
  a[1] += a[0];
  comp = a[0] + a[1];
}
|} Irsim.Inputs.[ Arr [| 2.0; 1.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |] ])

let test_interp_ftz () =
  let src = "void compute(double x) { double comp = 0.0; comp = x * 0.5; }" in
  let ir = Irsim.Lower.program (parse src) in
  let tiny = ldexp 1.0 (-1060) in (* x*0.5 is subnormal *)
  let normal =
    (Irsim.Interp.run strict_rt ir Irsim.Inputs.[ Fp tiny ]).Irsim.Interp.result
  in
  let flushed =
    (Irsim.Interp.run { strict_rt with Irsim.Interp.ftz = true } ir
       Irsim.Inputs.[ Fp tiny ]).Irsim.Interp.result
  in
  check_bool "kept subnormal" true (normal <> 0.0);
  check_float "flushed to zero" 0.0 flushed

let test_interp_f32_rounding () =
  let src = "void compute(float x) { float comp = 0.0; comp = x + 1e-9; }" in
  let v = run_strict src Irsim.Inputs.[ Fp 1.0 ] in
  (* in float32, 1 + 1e-9 rounds back to 1 *)
  check_float "f32 absorbs" 1.0 v

let test_interp_ops_counted () =
  let ir = Irsim.Lower.program (parse {|
void compute(double x) {
  double comp = 0.0;
  for (int i = 0; i < 10; ++i) {
    comp += x * 2.0;
  }
}
|}) in
  let out = Irsim.Interp.run strict_rt ir Irsim.Inputs.[ Fp 1.0 ] in
  check_int "2 ops x 10 iterations" 20 out.Irsim.Interp.fp_ops

let test_interp_input_mismatch () =
  let ir = Irsim.Lower.program (parse "void compute(double x) { double comp = 0.0; comp = x; }") in
  check_bool "arity check" true
    (try ignore (Irsim.Interp.run strict_rt ir []); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The flattened register VM against the tree interpreter *)

let same_outcome name (a : Irsim.Interp.outcome) (b : Irsim.Interp.outcome) =
  check_bool (name ^ ": result bits") true
    (Int64.bits_of_float a.Irsim.Interp.result
    = Int64.bits_of_float b.Irsim.Interp.result);
  check_int (name ^ ": fp_ops") a.Irsim.Interp.fp_ops b.Irsim.Interp.fp_ops

let vm_runtimes =
  [ ("strict", strict_rt);
    ("ftz", { strict_rt with Irsim.Interp.ftz = true });
    ("finite-math", { strict_rt with Irsim.Interp.nan_cmp_taken = true });
    ( "fast-libm+ftz",
      { Irsim.Interp.libm = Mathlib.Libm.Gcc_fast;
        ftz = true;
        nan_cmp_taken = true } ) ]

(* loops, array read/write, divergent branches, a libm call, a
   division fast math turns into a reciprocal, and a subnormal constant
   so FTZ runtimes exercise the flush paths *)
let vm_rich_src = {|
void compute(double x, double* a) {
  double comp = 0.0;
  double t = x;
  for (int i = 0; i < 6; ++i) {
    a[i] = a[i] * t + 1e-310;
    if (a[i] > 0.5) {
      t = t - a[i] / 3.0;
    }
    comp += sin(a[i] + t);
  }
  comp = comp * x - t / x;
}
|}

let vm_rich_inputs k =
  Irsim.Inputs.
    [ Fp (0.25 +. (0.5 *. float_of_int k));
      Arr (Array.init 8 (fun i -> float_of_int ((i + k) mod 5) /. 3.0)) ]

(* Each runtime over the lowered program and two optimized forms, so
   both VM loops meet FMA and reciprocal instructions: the plain loop
   (strict and finite-math runtimes, FP64) and the flushing one. *)
let test_vm_matches_tree_all_runtimes () =
  let lowered = Irsim.Lower.program (parse vm_rich_src) in
  let contracted = Irsim.Contract.run Irsim.Contract.Syntactic lowered in
  let forms =
    [ ("lowered", lowered);
      ("contracted", contracted);
      ("fast-math", Irsim.Fastmath.run Irsim.Fastmath.gcc contracted) ]
  in
  List.iter
    (fun (form, ir) ->
      List.iter
        (fun (rt_name, rt) ->
          let name = form ^ "/" ^ rt_name in
          let vm = Irsim.Vm.flatten rt ir in
          check_bool (name ^ ": nonempty code") true (Irsim.Vm.code_size vm > 0);
          check_int (name ^ ": disasm covers code")
            (Irsim.Vm.code_size vm)
            (List.length (Irsim.Vm.disasm vm));
          for k = 0 to 4 do
            let inputs = vm_rich_inputs k in
            same_outcome
              (Printf.sprintf "%s[%d]" name k)
              (Irsim.Interp.run rt ir inputs)
              (Irsim.Vm.run vm inputs)
          done)
        vm_runtimes)
    forms;
  let has op ir =
    List.exists
      (fun line -> Util.Text.contains_sub line op)
      (Irsim.Vm.disasm (Irsim.Vm.flatten strict_rt ir))
  in
  check_bool "an fma to execute" true (has " fma " contracted);
  check_bool "a reciprocal to execute" true
    (has " recip " (List.assoc "fast-math" forms))

let test_vm_divergent_branches () =
  (* inputs fall on both sides of the branch (and some hit the NaN
     comparison path through 0/0) yet stay bit-identical to the tree *)
  let src = {|
void compute(double x) {
  double comp = 0.0;
  double bad = x / x;
  if (bad < 1.0) {
    comp = comp + x * 3.0;
  }
  if (x >= 2.0) {
    comp = comp - 1.0 / x;
  }
}
|} in
  let ir = Irsim.Lower.program (parse src) in
  let inputs =
    List.map (fun v -> Irsim.Inputs.[ Fp v ]) [ 0.0; 0.5; 2.0; -3.0; 7.5 ]
  in
  List.iter
    (fun (name, rt) ->
      let vm = Irsim.Vm.flatten rt ir in
      List.iteri
        (fun k inputs ->
          same_outcome
            (Printf.sprintf "%s input %d" name k)
            (Irsim.Interp.run rt ir inputs)
            (Irsim.Vm.run vm inputs))
        inputs)
    vm_runtimes

let test_vm_loop_residual_counter () =
  (* the counter slot keeps bound-1 after the loop, and a zero-trip
     loop leaves it untouched — in both engines *)
  let body bound =
    [ Irsim.Ir.For
        { islot = 0; bound; body = [ Irsim.Ir.Store (0, Irsim.Ir.Const 1.0) ] };
      Irsim.Ir.Store (0, Irsim.Ir.Itof (Irsim.Ir.Iload 0)) ]
  in
  let ir bound =
    { Irsim.Ir.precision = Ast.F64; n_fslots = 1; n_islots = 1;
      arr_lens = [||]; bindings = []; body = body bound; comp_slot = 0 }
  in
  List.iter
    (fun bound ->
      let ir = ir bound in
      let tree = Irsim.Interp.run strict_rt ir [] in
      let vm = Irsim.Vm.run (Irsim.Vm.flatten strict_rt ir) [] in
      same_outcome (Printf.sprintf "bound %d" bound) tree vm)
    [ 5; 1; 0 ]

let oob_ir =
  (* comp = a[n]: traps when n is out of [0, 8) *)
  { Irsim.Ir.precision = Ast.F64; n_fslots = 1; n_islots = 1;
    arr_lens = [| 8 |];
    bindings = [ Irsim.Ir.Bind_arr (0, 8); Irsim.Ir.Bind_int 0 ];
    body = [ Irsim.Ir.Store (0, Irsim.Ir.Load_arr (0, Irsim.Ir.Iload 0)) ];
    comp_slot = 0 }

let oob_inputs n = Irsim.Inputs.[ Arr (Array.make 8 1.5); Int n ]

let trap_of f =
  match f () with
  | exception Irsim.Interp.Trap t -> Some t
  | _ -> None

let test_vm_trap_matches_tree () =
  let vm = Irsim.Vm.flatten strict_rt oob_ir in
  List.iter
    (fun n ->
      let tree = trap_of (fun () -> Irsim.Interp.run strict_rt oob_ir (oob_inputs n)) in
      let reg = trap_of (fun () -> Irsim.Vm.run vm (oob_inputs n)) in
      check_bool (Printf.sprintf "same trap for n=%d" n) true (tree = reg))
    [ 0; 7; 8; -1; 100 ]

let test_vm_flatten_rejects_bad_ir () =
  let bad =
    { Irsim.Ir.precision = Ast.F64; n_fslots = 1; n_islots = 0;
      arr_lens = [||]; bindings = [];
      body = [ Irsim.Ir.Store (0, Irsim.Ir.Load 99) ]; comp_slot = 0 }
  in
  check_bool "slot out of range" true
    (try ignore (Irsim.Vm.flatten strict_rt bad); false
     with Invalid_argument _ -> true);
  let bad_binding =
    { oob_ir with Irsim.Ir.bindings = [ Irsim.Ir.Bind_arr (0, 4) ] }
  in
  check_bool "binding length mismatch" true
    (try ignore (Irsim.Vm.flatten strict_rt bad_binding); false
     with Invalid_argument _ -> true);
  (* a call whose argument count does not match the function is
     refused when flattened, not when the instruction runs *)
  let bad_call =
    { bad with
      Irsim.Ir.body =
        [ Irsim.Ir.Store
            (0, Irsim.Ir.Call (Ast.Sin, [ Irsim.Ir.Const 1.0; Irsim.Ir.Const 2.0 ])) ] }
  in
  check_bool "wrong-arity call" true
    (try ignore (Irsim.Vm.flatten strict_rt bad_call); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fold *)

let test_fold_arith () =
  let ir = Irsim.Lower.program
      (parse "void compute(double x) { double comp = 0.0; comp = x + 2.0 * 3.0; }") in
  let folded = Irsim.Fold.run { fold_arith = true; fold_calls = None } ir in
  match folded.Irsim.Ir.body with
  | [ Irsim.Ir.Store (0, Irsim.Ir.Bin (Ast.Add, Irsim.Ir.Load 1, Irsim.Ir.Const 6.0)) ] -> ()
  | _ -> Alcotest.fail "constant not folded"

let test_fold_calls_only_on_consts () =
  let src = "void compute(double x) { double comp = 0.0; comp = sin(2.0) + sin(x); }" in
  let ir = Irsim.Lower.program (parse src) in
  let folded =
    Irsim.Fold.run { fold_arith = true; fold_calls = Some Mathlib.Libm.Glibc } ir
  in
  let count_calls body =
    let c = ref 0 in
    let rec go (e : Irsim.Ir.expr) =
      match e with
      | Irsim.Ir.Call (_, args) -> incr c; List.iter go args
      | Irsim.Ir.Bin (_, a, b) -> go a; go b
      | Irsim.Ir.Neg a | Irsim.Ir.Recip a -> go a
      | Irsim.Ir.Fma (a, b, c2) -> go a; go b; go c2
      | _ -> ()
    in
    ignore (Irsim.Ir.map_body (fun e -> go e; e) body);
    !c
  in
  check_int "only the variable call remains" 1 (count_calls folded.Irsim.Ir.body)

let qcheck_fold_arith_transparent =
  QCheck.Test.make ~name:"arith folding preserves results exactly" ~count:200
    arbitrary_case (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let folded = Irsim.Fold.run { fold_arith = true; fold_calls = None } ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt folded inputs).Irsim.Interp.result in
      Int64.bits_of_float a = Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Contraction *)

let test_contract_syntactic_patterns () =
  let lower_expr src =
    let ir = Irsim.Lower.program (parse ("void compute(double a, double b, double c) { double comp = 0.0; comp = " ^ src ^ "; }")) in
    match (Irsim.Contract.run Irsim.Contract.Syntactic ir).Irsim.Ir.body with
    | [ Irsim.Ir.Store (0, e) ] -> e
    | _ -> Alcotest.fail "unexpected shape"
  in
  (match lower_expr "a * b + c" with
   | Irsim.Ir.Fma (Irsim.Ir.Load 1, Irsim.Ir.Load 2, Irsim.Ir.Load 3) -> ()
   | _ -> Alcotest.fail "mul+add not fused");
  (match lower_expr "c + a * b" with
   | Irsim.Ir.Fma (Irsim.Ir.Load 1, Irsim.Ir.Load 2, Irsim.Ir.Load 3) -> ()
   | _ -> Alcotest.fail "add+mul not fused");
  (match lower_expr "a * b - c" with
   | Irsim.Ir.Fma (_, _, Irsim.Ir.Neg _) -> ()
   | _ -> Alcotest.fail "mul-sub not fused");
  (match lower_expr "c - a * b" with
   | Irsim.Ir.Fma (Irsim.Ir.Neg _, _, _) -> ()
   | _ -> Alcotest.fail "sub-mul not fused")

let test_contract_changes_rounding () =
  (* squaring 1+2^-27 and subtracting 1: fused keeps the cross term *)
  let src = "void compute(double a) { double comp = 0.0; comp = a * a - 1.0; }" in
  let ir = Irsim.Lower.program (parse src) in
  let contracted = Irsim.Contract.run Irsim.Contract.Syntactic ir in
  let x = Irsim.Inputs.[ Fp (1.0 +. 0x1p-27) ] in
  let plain = (Irsim.Interp.run strict_rt ir x).Irsim.Interp.result in
  let fused = (Irsim.Interp.run strict_rt contracted x).Irsim.Interp.result in
  check_bool "different rounding" true (plain <> fused)

let test_cross_stmt_contraction () =
  let src = {|
void compute(double a, double* xs, double* ys) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    double t = a * xs[i];
    comp += t + ys[i];
  }
}
|} in
  let ir = Irsim.Lower.program (parse src) in
  let gcc = Irsim.Dce.run (Irsim.Contract.run Irsim.Contract.Cross_stmt ir) in
  let clang = Irsim.Dce.run (Irsim.Contract.run Irsim.Contract.Syntactic ir) in
  let has_fma ir =
    let found = ref false in
    let rec go (e : Irsim.Ir.expr) =
      match e with
      | Irsim.Ir.Fma _ -> found := true
      | Irsim.Ir.Bin (_, a, b) -> go a; go b
      | Irsim.Ir.Neg a | Irsim.Ir.Recip a -> go a
      | Irsim.Ir.Call (_, args) -> List.iter go args
      | _ -> ()
    in
    ignore (Irsim.Ir.map_body (fun e -> go e; e) ir.Irsim.Ir.body);
    !found
  in
  check_bool "gcc fuses across statements" true (has_fma gcc);
  check_bool "clang does not" false (has_fma clang)

let test_forward_blocked_by_redefinition () =
  (* the multiplicand is redefined between def and use: no forwarding *)
  let src = {|
void compute(double a, double b) {
  double comp = 0.0;
  double t = a * b;
  a = 5.0;
  comp = t + 1.0;
}
|} in
  (* note: parameters are assignable scalars in the language *)
  let ir = Irsim.Lower.program (parse src) in
  let forwarded = Irsim.Contract.run Irsim.Contract.Cross_stmt ir in
  let inputs = Irsim.Inputs.[ Fp (1.0 +. 0x1p-27); Fp (1.0 +. 0x1p-27) ] in
  let before = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
  let after = (Irsim.Interp.run strict_rt forwarded inputs).Irsim.Interp.result in
  check_bool "semantics preserved despite barrier" true
    (Int64.bits_of_float before = Int64.bits_of_float after)

let qcheck_forwarding_value_preserving =
  (* forwarding alone (without contraction) must never change results *)
  QCheck.Test.make ~name:"Forward.run preserves results exactly" ~count:200
    arbitrary_case (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let fwd = Irsim.Forward.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt fwd inputs).Irsim.Interp.result in
      Int64.bits_of_float a = Int64.bits_of_float b
      || (Float.is_nan a && Float.is_nan b))

(* ------------------------------------------------------------------ *)
(* Fastmath *)

let test_simplify_sub_self_nan () =
  let src = "void compute(double x) { double comp = 0.0; double bad = x / x; comp = bad - bad; }" in
  let ir = Irsim.Lower.program (parse src) in
  let fm = Irsim.Fastmath.run Irsim.Fastmath.gcc ir in
  let inputs = Irsim.Inputs.[ Fp 0.0 ] in
  let plain = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
  let fast = (Irsim.Interp.run strict_rt fm inputs).Irsim.Interp.result in
  check_bool "strict: NaN" true (Float.is_nan plain);
  check_float "fastmath folds x-x to 0" 0.0 fast

let test_simplify_div_self_differs_by_compiler () =
  let src = "void compute(double x) { double comp = 0.0; comp = x / x; }" in
  let ir = Irsim.Lower.program (parse src) in
  let gcc = Irsim.Fastmath.run Irsim.Fastmath.gcc ir in
  let clang = Irsim.Fastmath.run Irsim.Fastmath.clang ir in
  let inputs = Irsim.Inputs.[ Fp 0.0 ] in
  let g = (Irsim.Interp.run strict_rt gcc inputs).Irsim.Interp.result in
  let c = (Irsim.Interp.run strict_rt clang inputs).Irsim.Interp.result in
  check_float "gcc folds to 1" 1.0 g;
  check_bool "clang keeps the NaN" true (Float.is_nan c)

let test_recip_division () =
  let src = "void compute(double x, double y) { double comp = 0.0; comp = x / y; }" in
  let ir = Irsim.Lower.program (parse src) in
  let fm = Irsim.Fastmath.run Irsim.Fastmath.gcc ir in
  (* find a pair where x/y and x*(1/y) round differently *)
  let rng = Util.Rng.of_int 7 in
  let found = ref false in
  for _ = 1 to 200 do
    let x = Util.Rng.float_in rng 1.0 10.0 and y = Util.Rng.float_in rng 1.0 10.0 in
    let a = (Irsim.Interp.run strict_rt ir Irsim.Inputs.[ Fp x; Fp y ]).Irsim.Interp.result in
    let b = (Irsim.Interp.run strict_rt fm Irsim.Inputs.[ Fp x; Fp y ]).Irsim.Interp.result in
    if a <> b then found := true
  done;
  check_bool "reciprocal changes rounding somewhere" true !found

let test_reassoc_shapes_differ () =
  let src = "void compute(double a, double b, double c, double d, double e) { double comp = 0.0; comp = a + b + c + d + e; }" in
  let ir = Irsim.Lower.program (parse src) in
  let gcc = Irsim.Fastmath.run Irsim.Fastmath.gcc ir in
  let clang = Irsim.Fastmath.run Irsim.Fastmath.clang ir in
  let nvcc = Irsim.Fastmath.run Irsim.Fastmath.nvcc ir in
  let inputs =
    Irsim.Inputs.[ Fp 1.0; Fp 1e-16; Fp 1e-16; Fp 1e-16; Fp 1e-16 ]
  in
  let run ir = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
  let vals = [ run ir; run gcc; run clang; run nvcc ] in
  check_bool "at least two distinct sums" true
    (List.length (List.sort_uniq compare (List.map Int64.bits_of_float vals)) >= 2);
  (* nvcc keeps source order: identical to strict *)
  check_bool "nvcc flat = strict" true
    (Int64.bits_of_float (run ir) = Int64.bits_of_float (run nvcc))

let test_reassoc_overflow_crossing () =
  (* (huge + huge) + (-huge): balanced tree overflows, flat order survives *)
  let src = "void compute(double a, double b, double c, double d) { double comp = 0.0; comp = a + b + c + d; }" in
  let ir = Irsim.Lower.program (parse src) in
  let gcc = Irsim.Fastmath.run Irsim.Fastmath.gcc ir in
  let big = 1.2e308 in
  let inputs = Irsim.Inputs.[ Fp big; Fp big; Fp (-.big); Fp (-.big) ] in
  let strict = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
  let balanced = (Irsim.Interp.run strict_rt gcc inputs).Irsim.Interp.result in
  (* strict left-assoc: (((big+big) - big) - big) saturates at +inf and
     stays there; the balanced tree computes inf + (-inf) = NaN *)
  check_bool "strict saturates to +inf" true (strict = Float.infinity);
  check_bool "balanced reassociation yields NaN" true (Float.is_nan balanced)

(* ------------------------------------------------------------------ *)
(* DCE *)

let test_dce_removes_dead () =
  let src = {|
void compute(double x) {
  double comp = 0.0;
  double dead = x * 3.0;
  comp = x + 1.0;
}
|} in
  let ir = Irsim.Lower.program (parse src) in
  let swept = Irsim.Dce.run ir in
  check_int "store removed" 1 (List.length swept.Irsim.Ir.body)

let test_dce_keeps_live_chain () =
  let src = {|
void compute(double x) {
  double comp = 0.0;
  double a = x * 2.0;
  double b = a + 1.0;
  comp = b;
}
|} in
  let swept = Irsim.Dce.run (Irsim.Lower.program (parse src)) in
  check_int "all live" 3 (List.length swept.Irsim.Ir.body)

let test_dce_transitive () =
  (* a feeds b; both dead once b is unused *)
  let src = {|
void compute(double x) {
  double comp = 0.0;
  double a = x * 2.0;
  double b = a + 1.0;
  comp = x;
}
|} in
  let swept = Irsim.Dce.run (Irsim.Lower.program (parse src)) in
  check_int "chain removed transitively" 1 (List.length swept.Irsim.Ir.body)

let test_dce_terminates_on_nan_consts () =
  (* regression: NaN constants broke the structural-equality fixpoint *)
  let ir =
    { Irsim.Ir.precision = Ast.F64;
      n_fslots = 2;
      n_islots = 0;
      arr_lens = [||];
      bindings = [];
      body =
        [ Irsim.Ir.Store (1, Irsim.Ir.Const Float.nan);
          Irsim.Ir.Store (0, Irsim.Ir.Const Float.nan) ];
      comp_slot = 0 }
  in
  let swept = Irsim.Dce.run ir in
  check_int "dead NaN store removed, comp kept" 1 (List.length swept.Irsim.Ir.body)

(* When nothing is dead the pass hands back its input itself, so a
   pipeline that runs it allocates nothing for a clean program. *)
let test_dce_returns_input_when_clean () =
  let ir = Irsim.Lower.program (parse {|
void compute(double x) {
  double comp = 0.0;
  double a = x * 2.0;
  comp = a;
}
|}) in
  check_bool "clean program returned as is" true (Irsim.Dce.run ir == ir);
  let dirty = Irsim.Lower.program (parse {|
void compute(double x) {
  double comp = 0.0;
  double dead = x * 3.0;
  comp = x;
}
|}) in
  let swept = Irsim.Dce.run dirty in
  check_bool "a swept program is a new value" true (swept != dirty);
  check_bool "sweeping it again returns it" true (Irsim.Dce.run swept == swept)

let qcheck_dce_value_preserving =
  QCheck.Test.make ~name:"DCE preserves the printed result" ~count:200
    arbitrary_case (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let swept = Irsim.Dce.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt swept inputs).Irsim.Interp.result in
      Int64.bits_of_float a = Int64.bits_of_float b
      || (Float.is_nan a && Float.is_nan b))

(* The full pipeline at strict settings is the identity on semantics:
   compiling at gcc O0_nofma must equal direct interpretation of the
   lowered program for any generated case. *)
let qcheck_strict_pipeline_is_identity =
  QCheck.Test.make ~name:"gcc 00_nofma semantics = plain interpretation"
    ~count:150 arbitrary_case (fun (p, inputs) ->
      let direct =
        (Irsim.Interp.run strict_rt (Irsim.Lower.program p) inputs)
          .Irsim.Interp.result
      in
      match
        Compiler.Driver.compile
          (Compiler.Config.make Compiler.Personality.Gcc
             Compiler.Optlevel.O0_nofma)
          p
      with
      | Error _ -> false
      | Ok bin ->
        let out = (Compiler.Driver.run bin inputs).Irsim.Interp.result in
        (* gcc folds const math calls even at 00_nofma; restrict the claim
           to bitwise equality OR both NaN when no const-call fold fired *)
        Int64.bits_of_float direct = Int64.bits_of_float out
        || (Float.is_nan direct && Float.is_nan out)
        || Lang.Ast.call_count p > 0)

let qcheck_contract_then_fastmath_stable =
  (* applying the same pass twice changes nothing the second time *)
  QCheck.Test.make ~name:"contraction is idempotent on results" ~count:150
    arbitrary_case (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let once = Irsim.Contract.run Irsim.Contract.Syntactic ir in
      let twice = Irsim.Contract.run Irsim.Contract.Syntactic once in
      let r1 = (Irsim.Interp.run strict_rt once inputs).Irsim.Interp.result in
      let r2 = (Irsim.Interp.run strict_rt twice inputs).Irsim.Interp.result in
      Int64.bits_of_float r1 = Int64.bits_of_float r2
      || (Float.is_nan r1 && Float.is_nan r2))

(* ------------------------------------------------------------------ *)
(* Likeness *)

let one_store v =
  { Irsim.Ir.precision = Ast.F64;
    n_fslots = 1;
    n_islots = 0;
    arr_lens = [||];
    bindings = [];
    body = [ Irsim.Ir.Store (0, Irsim.Ir.Const v) ];
    comp_slot = 0 }

let test_likeness_floats () =
  let verdict a b = Irsim.Ir.likeness (one_store a) (one_store b) in
  let check label want got = check_bool label true (want = got) in
  check "same constant" Irsim.Ir.Identical (verdict 1.5 1.5);
  check "same NaN" Irsim.Ir.Identical (verdict Float.nan Float.nan);
  check "NaN signs" Irsim.Ir.Compare_equal (verdict Float.nan (-.Float.nan));
  check "zero signs" Irsim.Ir.Compare_equal (verdict 0.0 (-0.0));
  check "values" Irsim.Ir.Different (verdict 1.0 2.0);
  check "NaN and a number" Irsim.Ir.Different (verdict Float.nan 0.0);
  check "longer body" Irsim.Ir.Different
    (Irsim.Ir.likeness (one_store 1.0)
       { (one_store 1.0) with
         body = (one_store 1.0).body @ (one_store 2.0).body })

(* Against [Stdlib.compare] on the outputs of different pipelines of one
   program, which are often equal and often differ deep inside. *)
let qcheck_likeness_is_compare =
  QCheck.Test.make ~name:"likeness agrees with Stdlib.compare" ~count:150
    arbitrary_case (fun (p, _) ->
      let ir = Irsim.Lower.program p in
      let fold calls =
        Irsim.Fold.run { Irsim.Fold.fold_arith = true; fold_calls = calls }
      in
      let variants =
        [ ir; fold None ir; fold (Some Mathlib.Libm.Mpfr_fold) ir;
          Irsim.Contract.run Irsim.Contract.Syntactic ir;
          Irsim.Contract.run Irsim.Contract.Cross_stmt ir;
          Irsim.Dce.run (Irsim.Contract.run Irsim.Contract.Syntactic ir);
          Irsim.Fastmath.run Irsim.Fastmath.gcc ir ]
      in
      List.for_all
        (fun a ->
          Irsim.Ir.likeness a a = Irsim.Ir.Identical
          && List.for_all
               (fun b ->
                 let l = Irsim.Ir.likeness a b in
                 (l <> Irsim.Ir.Different) = (compare a b = 0)
                 && (l = Irsim.Ir.Identical) = (Irsim.Ir.likeness b a = Irsim.Ir.Identical))
               variants)
        variants)

let () =
  Alcotest.run "irsim"
    [
      ( "lowering",
        [
          Alcotest.test_case "slot allocation" `Quick test_lower_slots;
          Alcotest.test_case "compound assign" `Quick test_lower_compound_assign;
          Alcotest.test_case "int promotion" `Quick test_lower_int_promotion;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arithmetic;
          Alcotest.test_case "loop accumulation" `Quick test_interp_loop_accumulation;
          Alcotest.test_case "branches" `Quick test_interp_branch;
          Alcotest.test_case "NaN comparisons" `Quick test_interp_nan_comparison;
          Alcotest.test_case "array writes" `Quick test_interp_array_writes;
          Alcotest.test_case "FTZ" `Quick test_interp_ftz;
          Alcotest.test_case "F32 rounding" `Quick test_interp_f32_rounding;
          Alcotest.test_case "op counting" `Quick test_interp_ops_counted;
          Alcotest.test_case "input mismatch" `Quick test_interp_input_mismatch;
        ] );
      ( "vm",
        [
          Alcotest.test_case "matches tree across runtimes" `Quick
            test_vm_matches_tree_all_runtimes;
          Alcotest.test_case "divergent branches and NaN compare" `Quick
            test_vm_divergent_branches;
          Alcotest.test_case "loop residual counter" `Quick
            test_vm_loop_residual_counter;
          Alcotest.test_case "trap matches tree" `Quick
            test_vm_trap_matches_tree;
          Alcotest.test_case "flatten rejects bad IR" `Quick
            test_vm_flatten_rejects_bad_ir;
        ] );
      ( "fold",
        [
          Alcotest.test_case "arith folding" `Quick test_fold_arith;
          Alcotest.test_case "call folding on consts only" `Quick
            test_fold_calls_only_on_consts;
          QCheck_alcotest.to_alcotest qcheck_fold_arith_transparent;
        ] );
      ( "contract",
        [
          Alcotest.test_case "syntactic patterns" `Quick test_contract_syntactic_patterns;
          Alcotest.test_case "changes rounding" `Quick test_contract_changes_rounding;
          Alcotest.test_case "cross-statement (gcc vs clang)" `Quick
            test_cross_stmt_contraction;
          Alcotest.test_case "barrier respected" `Quick test_forward_blocked_by_redefinition;
          QCheck_alcotest.to_alcotest qcheck_forwarding_value_preserving;
        ] );
      ( "fastmath",
        [
          Alcotest.test_case "x-x with NaN" `Quick test_simplify_sub_self_nan;
          Alcotest.test_case "x/x per compiler" `Quick test_simplify_div_self_differs_by_compiler;
          Alcotest.test_case "reciprocal division" `Quick test_recip_division;
          Alcotest.test_case "reassociation shapes" `Quick test_reassoc_shapes_differ;
          Alcotest.test_case "overflow crossing" `Quick test_reassoc_overflow_crossing;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "keeps live chain" `Quick test_dce_keeps_live_chain;
          Alcotest.test_case "transitive" `Quick test_dce_transitive;
          Alcotest.test_case "NaN fixpoint regression" `Quick test_dce_terminates_on_nan_consts;
          Alcotest.test_case "returns its input when clean" `Quick
            test_dce_returns_input_when_clean;
          QCheck_alcotest.to_alcotest qcheck_dce_value_preserving;
        ] );
      ( "likeness",
        [
          Alcotest.test_case "float constants" `Quick test_likeness_floats;
          QCheck_alcotest.to_alcotest qcheck_likeness_is_compare;
        ] );
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest qcheck_strict_pipeline_is_identity;
          QCheck_alcotest.to_alcotest qcheck_contract_then_fastmath_stable;
        ] );
    ]
