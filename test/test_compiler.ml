(* Tests for lib/compiler: policy matrix, driver, execution. *)

open Helpers

let all_configs = Compiler.Config.all ()

let arbitrary_case =
  QCheck.make
    ~print:(fun (p, _) -> Lang.Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.gen_case (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Policy matrix (the DESIGN.md table) *)

let test_matrix_size () =
  check_int "3 compilers x 6 levels" 18 (List.length all_configs)

let test_nofma_never_contracts () =
  Array.iter
    (fun p ->
      let cfg = Compiler.Config.make p Compiler.Optlevel.O0_nofma in
      check_bool "no contraction at 00_nofma" true
        (cfg.Compiler.Config.contract = Irsim.Contract.No_contract))
    Compiler.Personality.all

let test_nvcc_contracts_by_default () =
  List.iter
    (fun level ->
      let cfg = Compiler.Config.make Compiler.Personality.Nvcc level in
      check_bool "nvcc -fmad=true" true
        (cfg.Compiler.Config.contract = Irsim.Contract.Syntactic))
    [ Compiler.Optlevel.O0; Compiler.Optlevel.O1; Compiler.Optlevel.O2;
      Compiler.Optlevel.O3; Compiler.Optlevel.O3_fastmath ]

let test_host_contraction_policies () =
  let gcc = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O2 in
  let clang = Compiler.Config.make Compiler.Personality.Clang Compiler.Optlevel.O2 in
  let gcc_o0 = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0 in
  check_bool "gcc cross-statement" true
    (gcc.Compiler.Config.contract = Irsim.Contract.Cross_stmt);
  check_bool "clang syntactic" true
    (clang.Compiler.Config.contract = Irsim.Contract.Syntactic);
  check_bool "no host contraction at O0" true
    (gcc_o0.Compiler.Config.contract = Irsim.Contract.No_contract)

let test_fold_policies () =
  let fold p level =
    (Compiler.Config.make p level).Compiler.Config.fold.Irsim.Fold.fold_calls
  in
  check_bool "gcc folds with mpfr at every level" true
    (List.for_all
       (fun l -> fold Compiler.Personality.Gcc l = Some Mathlib.Libm.Mpfr_fold)
       (Array.to_list Compiler.Optlevel.all));
  check_bool "clang folds only when optimizing" true
    (fold Compiler.Personality.Clang Compiler.Optlevel.O0 = None
    && fold Compiler.Personality.Clang Compiler.Optlevel.O1
       = Some Mathlib.Libm.Llvm_fold);
  check_bool "nvcc never folds divergently" true
    (List.for_all
       (fun l -> fold Compiler.Personality.Nvcc l = None)
       (Array.to_list Compiler.Optlevel.all))

let test_fastmath_configs () =
  List.iter
    (fun (cfg : Compiler.Config.t) ->
      let is_fm = cfg.level = Compiler.Optlevel.O3_fastmath in
      check_bool "fastmath iff ftz" true (is_fm = cfg.ftz);
      check_bool "fastmath iff rewrites" true (is_fm = (cfg.fastmath <> None)))
    all_configs

let test_fastmath_libm_flavors () =
  let libm p = (Compiler.Config.make p Compiler.Optlevel.O3_fastmath).Compiler.Config.libm in
  check_bool "gcc fast libm" true (libm Compiler.Personality.Gcc = Mathlib.Libm.Gcc_fast);
  check_bool "clang fast libm" true (libm Compiler.Personality.Clang = Mathlib.Libm.Clang_fast);
  check_bool "cuda fast libm" true (libm Compiler.Personality.Nvcc = Mathlib.Libm.Cuda_fast)

let test_precise_libm_flavors () =
  let libm p = (Compiler.Config.make p Compiler.Optlevel.O2).Compiler.Config.libm in
  check_bool "hosts share glibc" true
    (libm Compiler.Personality.Gcc = Mathlib.Libm.Glibc
    && libm Compiler.Personality.Clang = Mathlib.Libm.Glibc);
  check_bool "device links cuda libm" true
    (libm Compiler.Personality.Nvcc = Mathlib.Libm.Cuda)

let test_nan_cmp_policy () =
  let taken p = (Compiler.Config.make p Compiler.Optlevel.O3_fastmath).Compiler.Config.nan_cmp_taken in
  check_bool "gcc flips" true (taken Compiler.Personality.Gcc);
  check_bool "nvcc flips" true (taken Compiler.Personality.Nvcc);
  check_bool "clang keeps IEEE" false (taken Compiler.Personality.Clang);
  check_bool "never outside fastmath" true
    (List.for_all
       (fun (cfg : Compiler.Config.t) ->
         cfg.Compiler.Config.level = Compiler.Optlevel.O3_fastmath
         || not cfg.Compiler.Config.nan_cmp_taken)
       all_configs)

let test_config_names () =
  let cfg = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O3_fastmath in
  Alcotest.(check string) "flag rendering" "gcc -O3 -ffast-math" (Compiler.Config.name cfg);
  let cfg = Compiler.Config.make Compiler.Personality.Nvcc Compiler.Optlevel.O0_nofma in
  Alcotest.(check string) "nvcc flags" "nvcc -O0 -fmad=false" (Compiler.Config.name cfg)

(* ------------------------------------------------------------------ *)
(* Driver *)

let simple = {|
void compute(double x, double y) {
  double comp = 0.0;
  comp = x * y + 1.0;
}
|}

let test_compile_succeeds_everywhere () =
  let p = parse simple in
  List.iter
    (fun cfg ->
      match Compiler.Driver.compile cfg p with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "compile failed: %s" msg)
    all_configs

let test_device_path_is_cuda () =
  let p = parse simple in
  let cfg = Compiler.Config.make Compiler.Personality.Nvcc Compiler.Optlevel.O0 in
  match Compiler.Driver.compile cfg p with
  | Ok bin ->
    check_bool "kernel marker" true
      (Util.Text.contains_sub bin.Compiler.Driver.source "__global__");
    check_bool "launch syntax" true
      (Util.Text.contains_sub bin.Compiler.Driver.source "<<<1, 1>>>")
  | Error msg -> Alcotest.fail msg

let test_host_path_is_c () =
  let p = parse simple in
  let cfg = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0 in
  match Compiler.Driver.compile cfg p with
  | Ok bin ->
    check_bool "no kernel marker" false
      (Util.Text.contains_sub bin.Compiler.Driver.source "__global__")
  | Error msg -> Alcotest.fail msg

let test_compile_rejects_invalid () =
  let invalid = "void compute(double x) { double comp = 0.0; comp = y; }" in
  match Cparse.Parse.program invalid with
  | Error _ -> Alcotest.fail "should parse"
  | Ok p ->
    let cfg = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0 in
    check_bool "validator rejects" true (Result.is_error (Compiler.Driver.compile cfg p))

let test_run_deterministic () =
  let p = parse simple in
  let cfg = Compiler.Config.make Compiler.Personality.Nvcc Compiler.Optlevel.O3_fastmath in
  match Compiler.Driver.compile cfg p with
  | Error m -> Alcotest.fail m
  | Ok bin ->
    let inputs = Irsim.Inputs.[ Fp 1.25; Fp (-0.75) ] in
    Alcotest.(check string) "same hex twice"
      (Compiler.Driver.run_hex bin inputs)
      (Compiler.Driver.run_hex bin inputs)

let test_o2_equals_o3 () =
  (* our model adds no FP-visible transform between O2 and O3 *)
  let rng = Util.Rng.of_int 31337 in
  for _ = 1 to 30 do
    let p, inputs = Gen.Varity.gen_case rng in
    Array.iter
      (fun personality ->
        let c2 = Compiler.Config.make personality Compiler.Optlevel.O2 in
        let c3 = Compiler.Config.make personality Compiler.Optlevel.O3 in
        match (Compiler.Driver.compile c2 p, Compiler.Driver.compile c3 p) with
        | Ok b2, Ok b3 ->
          Alcotest.(check string) "O2 = O3"
            (Compiler.Driver.run_hex b2 inputs)
            (Compiler.Driver.run_hex b3 inputs)
        | _ -> Alcotest.fail "compile failed")
      Compiler.Personality.all
  done

let test_hosts_agree_without_calls_and_consts () =
  (* a call-free, constant-fold-free program must agree between gcc and
     clang at the strictest level *)
  let src = {|
void compute(double x, double y) {
  double comp = 0.0;
  comp = x * y + x / y - x;
}
|} in
  let p = parse src in
  let gcc = Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0_nofma in
  let clang = Compiler.Config.make Compiler.Personality.Clang Compiler.Optlevel.O0_nofma in
  match (Compiler.Driver.compile gcc p, Compiler.Driver.compile clang p) with
  | Ok bg, Ok bc ->
    let inputs = Irsim.Inputs.[ Fp 3.7; Fp (-0.2) ] in
    Alcotest.(check string) "bitwise equal"
      (Compiler.Driver.run_hex bg inputs)
      (Compiler.Driver.run_hex bc inputs)
  | _ -> Alcotest.fail "compile failed"

let test_nvcc_fastmath_precision_dependent () =
  (* -use_fast_math's extra flags are single-precision-only: for an FP64
     program nvcc's fastmath build equals its -O3 build, while for FP32
     the intrinsics genuinely apply *)
  let src64 = {|
void compute(double x) {
  double comp = 0.0;
  comp = sin(x) / (1.0 + x * x);
}
|} in
  let src32 = {|
void compute(float x) {
  float comp = 0.0;
  comp = sinf(x) / (1.0 + x * x);
}
|} in
  let nvcc level = Compiler.Config.make Compiler.Personality.Nvcc level in
  let hex src level inputs =
    match Compiler.Driver.compile (nvcc level) (parse src) with
    | Ok bin -> Compiler.Driver.run_hex bin inputs
    | Error m -> Alcotest.fail m
  in
  (* FP64: fastmath == O3 on every input we try *)
  let rng = Util.Rng.of_int 404 in
  for _ = 1 to 50 do
    let x = Util.Rng.float_in rng (-10.0) 10.0 in
    Alcotest.(check string) "fp64 fastmath = O3"
      (hex src64 Compiler.Optlevel.O3 Irsim.Inputs.[ Fp x ])
      (hex src64 Compiler.Optlevel.O3_fastmath Irsim.Inputs.[ Fp x ])
  done;
  (* FP32: the intrinsics diverge somewhere *)
  let differs = ref false in
  for _ = 1 to 50 do
    let x = Util.Rng.float_in rng (-10.0) 10.0 in
    if
      hex src32 Compiler.Optlevel.O3 Irsim.Inputs.[ Fp x ]
      <> hex src32 Compiler.Optlevel.O3_fastmath Irsim.Inputs.[ Fp x ]
    then differs := true
  done;
  check_bool "fp32 fastmath uses intrinsics" true !differs

let test_matrix_matches_independent_compiles () =
  (* The shared front-end cache must be invisible: a [matrix] over the
     full 18-configuration list produces binaries byte-identical to 18
     independent [compile] calls. *)
  let p = parse simple in
  let independent =
    List.map
      (fun cfg ->
        match Compiler.Driver.compile cfg p with
        | Ok bin -> bin
        | Error msg -> Alcotest.failf "compile failed: %s" msg)
      all_configs
  in
  let via_matrix =
    List.map
      (function
        | Either.Left (_, bin) -> bin
        | Either.Right (cfg, msg) ->
          Alcotest.failf "matrix failed at %s: %s" (Compiler.Config.name cfg) msg)
      (Compiler.Driver.matrix p)
  in
  List.iter2
    (fun (a : Compiler.Driver.binary) (b : Compiler.Driver.binary) ->
      Alcotest.(check string) "same config"
        (Compiler.Config.name a.config) (Compiler.Config.name b.config);
      Alcotest.(check string) "same translation unit" a.source b.source;
      check_bool "same optimized IR" true (Irsim.Ir.equal a.ir b.ir);
      check_int "same work" a.work b.work)
    independent via_matrix

let test_frontend_cache_two_runs () =
  (* 18 configurations touch exactly two translation units (host C,
     device CUDA): 2 front-end runs, 16 cache hits. *)
  let runs = Obs.Metrics.counter "compiler.frontend.runs" in
  let hits = Obs.Metrics.counter "compiler.frontend.cache_hits" in
  let p = parse simple in
  let runs0 = Obs.Metrics.counter_value runs in
  let hits0 = Obs.Metrics.counter_value hits in
  ignore (Compiler.Driver.matrix p);
  check_int "front end ran twice" 2 (Obs.Metrics.counter_value runs - runs0);
  check_int "16 cache hits" 16 (Obs.Metrics.counter_value hits - hits0)

(* One flattened program per distinct binary: two binaries of a program
   share a [vm] exactly when their (optimized IR, runtime) pairs are
   structurally equal, on either target, and every binary keeps its own
   configuration. [predicted] names each
   configuration's pipeline (9 at FP64, 10 at FP32 where nvcc's
   -use_fast_math is no longer -O3): at -O0 gcc and clang ignore
   -ffp-contract=off (they contract nothing unoptimized) while nvcc's
   -fmad=false does not; -O1/-O2/-O3 share one pipeline per compiler.
   One pipeline always means one program. On [simple] the -O0 units of
   gcc and clang lower alike, and so do their contracted -O1 units, so
   6 programs serve FP64 and 7 FP32. The unit has no NaN constant, so
   structural equality is [Stdlib.compare]. *)
let test_backend_sharing () =
  let predicted precision (c : Compiler.Config.t) =
    let group =
      match (c.personality, c.level) with
      | Compiler.Personality.Nvcc, Compiler.Optlevel.O0_nofma -> 0
      | _, (Compiler.Optlevel.O0_nofma | Compiler.Optlevel.O0) -> 1
      | _, (Compiler.Optlevel.O1 | Compiler.Optlevel.O2 | Compiler.Optlevel.O3) -> 2
      | Compiler.Personality.Nvcc, Compiler.Optlevel.O3_fastmath
        when precision = Lang.Ast.F64 ->
        2
      | _, Compiler.Optlevel.O3_fastmath -> 3
    in
    (c.personality, group)
  in
  List.iter
    (fun (precision, distinct) ->
      let label =
        match precision with Lang.Ast.F64 -> "fp64" | Lang.Ast.F32 -> "fp32"
      in
      let p = { (parse simple) with Lang.Ast.precision } in
      let binaries =
        List.map
          (function
            | Either.Left (c, (b : Compiler.Driver.binary)) ->
              check_string (label ^ ": own config") (Compiler.Config.name c)
                (Compiler.Config.name b.config);
              (c, b)
            | Either.Right (_, msg) -> Alcotest.fail msg)
          (Compiler.Driver.matrix p)
      in
      check_int (label ^ ": 18 binaries") 18 (List.length binaries);
      let vms =
        List.fold_left
          (fun acc (_, (b : Compiler.Driver.binary)) ->
            if List.memq b.vm acc then acc else b.vm :: acc)
          [] binaries
      in
      check_int (label ^ ": distinct programs") distinct (List.length vms);
      let pair (b : Compiler.Driver.binary) =
        (b.ir, Compiler.Config.runtime b.config)
      in
      List.iter
        (fun (c1, (b1 : Compiler.Driver.binary)) ->
          List.iter
            (fun (c2, (b2 : Compiler.Driver.binary)) ->
              let what =
                Printf.sprintf "%s: %s / %s" label (Compiler.Config.name c1)
                  (Compiler.Config.name c2)
              in
              check_bool what (compare (pair b1) (pair b2) = 0)
                (b1.vm == b2.vm);
              if predicted precision c1 = predicted precision c2 then
                check_bool (what ^ ": one pipeline, one program") true
                  (b1.vm == b2.vm))
            binaries)
        binaries)
    [ (Lang.Ast.F64, 6); (Lang.Ast.F32, 7) ]

(* Fault injection stays per configuration: all 18 configurations reach
   the back-end site, shared or not, so the 18th hit exists and fails
   once (one retry) and a 19th never happens. *)
let test_backend_faults_per_config () =
  let retries = Obs.Metrics.counter "retry.compiler.retries" in
  List.iter
    (fun (spec, expected) ->
      match Exec.Faults.parse spec with
      | Error msg -> Alcotest.fail msg
      | Ok plan ->
        Fun.protect ~finally:Exec.Faults.disarm (fun () ->
            Exec.Faults.arm plan;
            let before = Obs.Metrics.counter_value retries in
            ignore (Compiler.Driver.matrix (parse simple));
            check_int (spec ^ ": retries") expected
              (Obs.Metrics.counter_value retries - before)))
    [ ("backend@18:fail", 1); ("backend@19:fail", 0) ]

(* A retried stage's backoff advances the attached clock once, inside
   the stage's own span, so [compiler.back_end] and the spans around it
   record it. *)
let test_backend_backoff_in_stage_span () =
  let sim label =
    match
      List.find_opt
        (fun (r : Obs.Span.row) -> r.Obs.Span.label = label)
        (Obs.Span.summary ())
    with
    | Some r -> r.Obs.Span.sim_s
    | None -> 0.0
  in
  let backoff = Exec.Faults.backoff ~attempt:1 in
  match Exec.Faults.parse "backend@1:fail" with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    Exec.Faults.arm plan;
    Fun.protect
      ~finally:(fun () ->
        Exec.Faults.disarm ();
        Obs.Span.set_enabled false;
        Obs.Span.reset ())
      (fun () ->
        let clock = Util.Sim_clock.create () in
        Obs.Span.with_clock clock (fun () ->
            Obs.Span.with_span "outer" (fun () ->
                ignore (Compiler.Driver.matrix (parse simple))));
        check_bool "clock charged once" true
          (Util.Sim_clock.elapsed clock = backoff);
        check_bool "back-end span holds the charge" true
          (sim "compiler.back_end" = backoff);
        check_bool "enclosing span holds it too" true (sim "outer" = backoff);
        check_bool "front-end span saw none" true
          (sim "compiler.front_end" = 0.0))

let qcheck_matrix_compiles_varity =
  QCheck.Test.make ~name:"every Varity program compiles everywhere" ~count:100
    arbitrary_case (fun (p, _) ->
      List.for_all
        (fun r -> match r with Either.Left _ -> true | Either.Right _ -> false)
        (Compiler.Driver.matrix p))

let qcheck_work_positive =
  QCheck.Test.make ~name:"binaries carry positive work estimates" ~count:50
    arbitrary_case (fun (p, _) ->
      List.for_all
        (function
          | Either.Left (_, (b : Compiler.Driver.binary)) -> b.work > 0
          | Either.Right _ -> false)
        (Compiler.Driver.matrix p))

let () =
  Alcotest.run "compiler"
    [
      ( "policy",
        [
          Alcotest.test_case "matrix size" `Quick test_matrix_size;
          Alcotest.test_case "00_nofma no contraction" `Quick test_nofma_never_contracts;
          Alcotest.test_case "nvcc default fmad" `Quick test_nvcc_contracts_by_default;
          Alcotest.test_case "host contraction" `Quick test_host_contraction_policies;
          Alcotest.test_case "fold policies" `Quick test_fold_policies;
          Alcotest.test_case "fastmath configs" `Quick test_fastmath_configs;
          Alcotest.test_case "fastmath libm" `Quick test_fastmath_libm_flavors;
          Alcotest.test_case "precise libm" `Quick test_precise_libm_flavors;
          Alcotest.test_case "nan compare policy" `Quick test_nan_cmp_policy;
          Alcotest.test_case "config names" `Quick test_config_names;
        ] );
      ( "driver",
        [
          Alcotest.test_case "compiles everywhere" `Quick test_compile_succeeds_everywhere;
          Alcotest.test_case "device path is CUDA" `Quick test_device_path_is_cuda;
          Alcotest.test_case "host path is C" `Quick test_host_path_is_c;
          Alcotest.test_case "rejects invalid" `Quick test_compile_rejects_invalid;
          Alcotest.test_case "deterministic runs" `Quick test_run_deterministic;
          Alcotest.test_case "O2 equals O3" `Quick test_o2_equals_o3;
          Alcotest.test_case "hosts agree on pure arithmetic" `Quick
            test_hosts_agree_without_calls_and_consts;
          Alcotest.test_case "nvcc fastmath precision" `Quick
            test_nvcc_fastmath_precision_dependent;
          Alcotest.test_case "matrix matches independent compiles" `Quick
            test_matrix_matches_independent_compiles;
          Alcotest.test_case "front-end cache: 2 runs, 16 hits" `Quick
            test_frontend_cache_two_runs;
          Alcotest.test_case "back ends shared per distinct pipeline" `Quick
            test_backend_sharing;
          Alcotest.test_case "back-end faults per configuration" `Quick
            test_backend_faults_per_config;
          Alcotest.test_case "back-end backoff in stage span" `Quick
            test_backend_backoff_in_stage_span;
          QCheck_alcotest.to_alcotest qcheck_matrix_compiles_varity;
          QCheck_alcotest.to_alcotest qcheck_work_positive;
        ] );
    ]
