(* Tests for lib/analysis: validator, features, dataflow. *)

open Lang
open Helpers

let has_issue issue_pred p =
  match Analysis.Validate.check p with
  | Ok () -> false
  | Error issues -> List.exists issue_pred issues

(* ------------------------------------------------------------------ *)
(* Validator: positive cases *)

let test_valid_program () =
  let p = parse {|
void compute(double x, double* a, int n) {
  double comp = 0.0;
  double t = x * 0.5;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * t;
  }
  if (comp > 1.0) {
    comp /= 2.0;
  }
}
|} in
  check_bool "valid" true (Analysis.Validate.is_valid p)

let test_sibling_scopes_ok () =
  let p = parse {|
void compute(double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    double t = a[i];
    comp += t;
  }
  for (int i = 0; i < 8; ++i) {
    double t = a[i] * 2.0;
    comp += t;
  }
}
|} in
  check_bool "sibling scope reuse allowed" true (Analysis.Validate.is_valid p)

(* ------------------------------------------------------------------ *)
(* Validator: each issue kind *)

let test_unbound_variable () =
  let p = parse "void compute(double x) { double comp = 0.0; comp = y; }" in
  check_bool "unbound" true
    (has_issue (function Analysis.Validate.Unbound_variable "y" -> true | _ -> false) p)

let test_out_of_scope_temp () =
  let p = parse {|
void compute(double x) {
  double comp = 0.0;
  if (x > 0.0) {
    double t = x;
    comp += t;
  }
  comp += t;
}
|} in
  check_bool "block-local temp out of scope" true
    (has_issue (function Analysis.Validate.Unbound_variable "t" -> true | _ -> false) p)

let test_redeclaration () =
  let p = parse "void compute(double x) { double comp = 0.0; double x = 1.0; comp = x; }" in
  check_bool "shadowing rejected" true
    (has_issue (function Analysis.Validate.Redeclared_variable "x" -> true | _ -> false) p)

let test_index_out_of_bounds () =
  let p = parse {|
void compute(double* a) {
  double comp = 0.0;
  for (int i = 0; i < 9; ++i) {
    comp += a[i];
  }
}
|} in
  check_bool "counter can exceed length 8" true
    (has_issue
       (function Analysis.Validate.Array_index_out_of_bounds ("a", 8, 8) -> true | _ -> false)
       p)

let test_index_offset_in_bounds () =
  let p = parse {|
void compute(double* a) {
  double comp = 0.0;
  for (int i = 0; i < 6; ++i) {
    comp += a[i + 2];
  }
}
|} in
  check_bool "i+2 with bound 6 fits length 8" true (Analysis.Validate.is_valid p)

let test_index_unbounded () =
  let p = parse "void compute(double* a, int n) { double comp = 0.0; comp += a[n]; }" in
  check_bool "free int param has no bound" true
    (has_issue (function Analysis.Validate.Array_index_unbounded "a" -> true | _ -> false) p)

let test_non_array_indexed () =
  let p = parse "void compute(double x) { double comp = 0.0; comp += x[0]; }" in
  check_bool "scalar indexed" true
    (has_issue (function Analysis.Validate.Non_array_indexed "x" -> true | _ -> false) p)

let test_array_as_scalar () =
  let p = parse "void compute(double* a) { double comp = 0.0; comp += a; }" in
  check_bool "array as scalar" true
    (has_issue (function Analysis.Validate.Array_used_as_scalar "a" -> true | _ -> false) p)

let test_assign_to_counter () =
  let p = parse {|
void compute(double x) {
  double comp = 0.0;
  for (int i = 0; i < 4; ++i) {
    i = x;
    comp += x;
  }
}
|} in
  check_bool "counter write" true
    (has_issue (function Analysis.Validate.Assign_to_counter "i" -> true | _ -> false) p)

let test_loop_bound_invalid () =
  let p = parse {|
void compute(double x) {
  double comp = 0.0;
  for (int i = 0; i < 100000; ++i) {
    comp += x;
  }
}
|} in
  check_bool "bound too large" true
    (has_issue (function Analysis.Validate.Loop_bound_invalid 100000 -> true | _ -> false) p)

let test_div_by_literal_zero () =
  let p = parse "void compute(double x) { double comp = 0.0; comp = x / 0.0; }" in
  check_bool "division by zero literal" true
    (has_issue (function Analysis.Validate.Division_by_literal_zero -> true | _ -> false) p)

let test_comp_never_assigned () =
  let p = parse "void compute(double x) { double comp = 0.0; double t = x; }" in
  check_bool "comp unassigned" true
    (has_issue (function Analysis.Validate.Comp_never_assigned -> true | _ -> false) p)

let test_issue_messages () =
  List.iter
    (fun issue ->
      check_bool "non-empty message" true
        (String.length (Analysis.Validate.issue_to_string issue) > 0))
    [ Analysis.Validate.Unbound_variable "v";
      Analysis.Validate.Redeclared_variable "v";
      Analysis.Validate.Array_index_out_of_bounds ("a", 9, 8);
      Analysis.Validate.Array_index_unbounded "a";
      Analysis.Validate.Non_array_indexed "v";
      Analysis.Validate.Array_used_as_scalar "a";
      Analysis.Validate.Assign_to_counter "i";
      Analysis.Validate.Loop_bound_invalid 0;
      Analysis.Validate.Division_by_literal_zero;
      Analysis.Validate.Comp_never_assigned;
      Analysis.Validate.Bad_arity "pow" ]

(* ------------------------------------------------------------------ *)
(* Features *)

let featured = {|
void compute(double a, double* xs, int n) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    double t = a * xs[i];
    comp += t + xs[i];
  }
  if (comp > 10.0) {
    comp = comp - sin(a) * 0.5;
  }
}
|}

let test_features () =
  let f = Analysis.Features.of_program (parse featured) in
  check_int "loops" 1 f.Analysis.Features.loop_count;
  check_int "ifs" 1 f.Analysis.Features.if_count;
  check_int "temps" 1 f.Analysis.Features.temp_count;
  check_int "array params" 1 f.Analysis.Features.array_param_count;
  check_int "scalar params" 1 f.Analysis.Features.scalar_param_count;
  check_int "int params" 1 f.Analysis.Features.int_param_count;
  check_bool "sin listed" true (List.mem "sin" f.Analysis.Features.distinct_math_fns);
  check_bool "split mul-add found" true (f.Analysis.Features.split_mul_add_patterns >= 1);
  check_bool "mul-add found" true (f.Analysis.Features.mul_add_patterns >= 1);
  check_int "accumulation loops" 1 f.Analysis.Features.accumulation_loops

(* ------------------------------------------------------------------ *)
(* Dataflow *)

let test_dataflow_edges () =
  let p = parse {|
void compute(double x, double y) {
  double comp = 0.0;
  double t = x * y;
  comp = t + x;
}
|} in
  let edges = Analysis.Dataflow.edges p in
  (* alpha-normalized: x -> p0, y -> p1, t -> v0 *)
  let has def use =
    List.exists
      (fun (e : Analysis.Dataflow.edge) -> e.def = def && e.use = use)
      edges
  in
  check_bool "t reads x" true (has "v0" "p0");
  check_bool "t reads y" true (has "v0" "p1");
  check_bool "comp reads t" true (has "comp" "v0")

let test_dataflow_rename_invariant () =
  let p = parse featured in
  let renamed = Ast.rename (fun n -> n ^ "_zz") p in
  check_bool "has edges" true (Analysis.Dataflow.edges p <> []);
  check_bool "renamed program has equal edges" true
    (Analysis.Dataflow.edges p = Analysis.Dataflow.edges renamed)

(* ------------------------------------------------------------------ *)
(* Generators always valid *)

let qcheck_varity_valid =
  QCheck.Test.make ~name:"Varity generator emits valid programs" ~count:300
    QCheck.small_int (fun seed ->
      Analysis.Validate.is_valid (Gen.Varity.generate (Util.Rng.of_int seed)))

let qcheck_llm_config_valid =
  QCheck.Test.make ~name:"grammar generator emits valid programs (LLM regime)"
    ~count:300 QCheck.small_int (fun seed ->
      Analysis.Validate.is_valid
        (Gen.Generate.generate (Util.Rng.of_int seed) Llm.Client.generation_config
           Gen.Generate.human_naming))

let () =
  Alcotest.run "analysis"
    [
      ( "validator",
        [
          Alcotest.test_case "valid program" `Quick test_valid_program;
          Alcotest.test_case "sibling scopes" `Quick test_sibling_scopes_ok;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
          Alcotest.test_case "out-of-scope temp" `Quick test_out_of_scope_temp;
          Alcotest.test_case "redeclaration" `Quick test_redeclaration;
          Alcotest.test_case "index out of bounds" `Quick test_index_out_of_bounds;
          Alcotest.test_case "offset index in bounds" `Quick test_index_offset_in_bounds;
          Alcotest.test_case "unbounded index" `Quick test_index_unbounded;
          Alcotest.test_case "non-array indexed" `Quick test_non_array_indexed;
          Alcotest.test_case "array as scalar" `Quick test_array_as_scalar;
          Alcotest.test_case "assign to counter" `Quick test_assign_to_counter;
          Alcotest.test_case "loop bound invalid" `Quick test_loop_bound_invalid;
          Alcotest.test_case "div by literal zero" `Quick test_div_by_literal_zero;
          Alcotest.test_case "comp never assigned" `Quick test_comp_never_assigned;
          Alcotest.test_case "issue messages" `Quick test_issue_messages;
        ] );
      ( "features",
        [ Alcotest.test_case "feature extraction" `Quick test_features ] );
      ( "dataflow",
        [
          Alcotest.test_case "edges" `Quick test_dataflow_edges;
          Alcotest.test_case "rename invariance" `Quick test_dataflow_rename_invariant;
        ] );
      ( "generators",
        [
          QCheck_alcotest.to_alcotest qcheck_varity_valid;
          QCheck_alcotest.to_alcotest qcheck_llm_config_valid;
        ] );
    ]
