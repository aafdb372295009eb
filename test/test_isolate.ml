(* Tests for lib/isolate: pLiner-style statement isolation. *)

open Helpers

let gcc level = Compiler.Config.make Compiler.Personality.Gcc level
let nvcc level = Compiler.Config.make Compiler.Personality.Nvcc level

(* A program with exactly one contraction-sensitive statement among inert
   ones: statement 1 computes a*a - 1 with a near 1, which gcc's O2
   contraction fuses. Statements 0 and 2 are contraction-free. *)
let culprit_program = parse {|
void compute(double a, double b) {
  double safe = a + b;
  double sensitive = a * a - 1.0;
  comp = sensitive * safe;
}
|}

let culprit_inputs = Irsim.Inputs.[ Fp (1.0 +. 0x1p-27); Fp 0.25 ]

let test_no_inconsistency () =
  match
    Isolate.isolate ~program:culprit_program ~inputs:culprit_inputs
      ~suspect:(gcc Compiler.Optlevel.O0) ~reference:(gcc Compiler.Optlevel.O0_nofma)
  with
  | Ok Isolate.No_inconsistency -> ()
  | Ok _ -> Alcotest.fail "expected agreement at O0 (no host contraction)"
  | Error m -> Alcotest.fail m

let test_isolates_contraction () =
  match
    Isolate.isolate ~program:culprit_program ~inputs:culprit_inputs
      ~suspect:(gcc Compiler.Optlevel.O2) ~reference:(gcc Compiler.Optlevel.O0_nofma)
  with
  | Ok (Isolate.Isolated [ 1 ]) -> ()
  | Ok v ->
    Alcotest.failf "expected statement 1, got: %s"
      (Isolate.verdict_to_string culprit_program v)
  | Error m -> Alcotest.fail m

let test_runtime_divergence_detected () =
  (* a bare libm call difference between host and device cannot be fixed
     by strictifying statements: the libraries themselves disagree *)
  let program = parse {|
void compute(double x) {
  double comp = 0.0;
  comp = sin(x);
}
|} in
  (* find an input where the CUDA libm nudges sin *)
  let rng = Util.Rng.of_int 5 in
  let rec hunt k =
    if k = 0 then None
    else
      let x = Util.Rng.float_in rng (-3.0) 3.0 in
      if
        Mathlib.Libm.kernel1 Mathlib.Libm.Cuda Lang.Ast.Sin x
        <> Mathlib.Libm.kernel1 Mathlib.Libm.Glibc Lang.Ast.Sin x
      then Some x
      else hunt (k - 1)
  in
  match hunt 100 with
  | None -> Alcotest.fail "no divergent sin argument found"
  | Some x -> begin
    match
      Isolate.isolate ~program ~inputs:Irsim.Inputs.[ Fp x ]
        ~suspect:(nvcc Compiler.Optlevel.O0_nofma)
        ~reference:(gcc Compiler.Optlevel.O0_nofma)
    with
    | Ok Isolate.Runtime_divergence -> ()
    | Ok v ->
      Alcotest.failf "expected runtime divergence, got: %s"
        (Isolate.verdict_to_string program v)
    | Error m -> Alcotest.fail m
  end

let test_hybrid_all_strict_equals_baseline () =
  (* with every statement strict and no fast-math runtime, the hybrid
     behaves like the unoptimized build *)
  let program = culprit_program in
  match
    ( Isolate.hybrid_compile (gcc Compiler.Optlevel.O2) program
        ~strict:(fun _ -> true),
      Compiler.Driver.compile (gcc Compiler.Optlevel.O0_nofma) program )
  with
  | Ok hybrid, Ok baseline ->
    Alcotest.(check string) "bitwise equal"
      (Compiler.Driver.run_hex baseline culprit_inputs)
      (Compiler.Driver.run_hex hybrid culprit_inputs)
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_hybrid_none_strict_equals_optimized () =
  let program = culprit_program in
  match
    ( Isolate.hybrid_compile (gcc Compiler.Optlevel.O2) program
        ~strict:(fun _ -> false),
      Compiler.Driver.compile (gcc Compiler.Optlevel.O2) program )
  with
  | Ok hybrid, Ok optimized ->
    Alcotest.(check string) "bitwise equal"
      (Compiler.Driver.run_hex optimized culprit_inputs)
      (Compiler.Driver.run_hex hybrid culprit_inputs)
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_minimality_with_two_culprits () =
  (* two independent contraction-sensitive statements both feed comp:
     both must be reported *)
  let program = parse {|
void compute(double a, double b) {
  double s1 = a * a - 1.0;
  double mid = a + b;
  double s2 = b * b - 1.0;
  comp = s1 * s2 * mid;
}
|} in
  let inputs = Irsim.Inputs.[ Fp (1.0 +. 0x1p-27); Fp (1.0 +. 0x1p-28) ] in
  match
    Isolate.isolate ~program ~inputs
      ~suspect:(gcc Compiler.Optlevel.O2)
      ~reference:(gcc Compiler.Optlevel.O0_nofma)
  with
  | Ok (Isolate.Isolated indices) ->
    check_bool "both culprits, nothing else" true
      (List.sort compare indices = [ 0; 2 ])
  | Ok v -> Alcotest.failf "unexpected: %s" (Isolate.verdict_to_string program v)
  | Error m -> Alcotest.fail m

let test_verdict_strings () =
  check_bool "no inconsistency" true
    (Isolate.verdict_to_string culprit_program Isolate.No_inconsistency
    = "no inconsistency on these inputs");
  check_bool "runtime mentions library" true
    (Util.Text.contains_sub
       (Isolate.verdict_to_string culprit_program Isolate.Runtime_divergence)
       "math library");
  check_bool "isolated quotes statements" true
    (Util.Text.contains_sub
       (Isolate.verdict_to_string culprit_program (Isolate.Isolated [ 1 ]))
       "sensitive")

let qcheck_hybrid_is_total =
  QCheck.Test.make ~name:"hybrid compile works on random programs/subsets"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Util.Rng.of_int seed in
      let p, inputs = Gen.Varity.gen_case rng in
      let n = List.length p.Lang.Ast.body in
      let strict i = (i + seed) mod 2 = 0 in
      ignore n;
      match Isolate.hybrid_compile (gcc Compiler.Optlevel.O3_fastmath) p ~strict with
      | Ok bin ->
        ignore (Compiler.Driver.run bin inputs);
        true
      | Error _ -> false)

let test_classify_corpus () =
  let outcome = Harness.Campaign.run ~budget:25 ~seed:99 Harness.Approach.Llm4fp in
  let c =
    Isolate.classify ~suspect:(gcc Compiler.Optlevel.O2)
      ~reference:(gcc Compiler.Optlevel.O0_nofma)
      outcome.Harness.Campaign.cases
  in
  let total =
    c.Isolate.agree + c.Isolate.isolated_one + c.Isolate.isolated_many
    + c.Isolate.runtime + c.Isolate.failed
  in
  Alcotest.(check int) "every case classified"
    (List.length outcome.Harness.Campaign.cases) total;
  check_bool "report renders" true
    (String.length (Isolate.classification_to_string c) > 20)

let () =
  Alcotest.run "isolate"
    [
      ( "isolate",
        [
          Alcotest.test_case "no inconsistency" `Quick test_no_inconsistency;
          Alcotest.test_case "isolates contraction" `Quick test_isolates_contraction;
          Alcotest.test_case "runtime divergence" `Quick test_runtime_divergence_detected;
          Alcotest.test_case "hybrid all strict" `Quick test_hybrid_all_strict_equals_baseline;
          Alcotest.test_case "hybrid none strict" `Quick test_hybrid_none_strict_equals_optimized;
          Alcotest.test_case "minimal two culprits" `Quick test_minimality_with_two_culprits;
          Alcotest.test_case "verdict strings" `Quick test_verdict_strings;
          QCheck_alcotest.to_alcotest qcheck_hybrid_is_total;
          Alcotest.test_case "corpus classification" `Slow test_classify_corpus;
        ] );
    ]
