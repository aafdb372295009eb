(* Tests for lib/lang: AST utilities, metrics, renaming, printing. *)

open Lang
open Helpers

(* A hand-built reference program used across cases. *)
let sample : Ast.program =
  {
    precision = Ast.F64;
    params = [ Ast.P_fp "x"; Ast.P_fp_array ("arr", 4); Ast.P_int "n" ];
    body =
      [
        Ast.Decl { name = "t"; init = Ast.Bin (Ast.Mul, Ast.Var "x", Ast.Lit 0.5) };
        Ast.For
          {
            var = "i";
            bound = 4;
            body =
              [
                Ast.Assign
                  {
                    lhs = Ast.Lv_var "comp";
                    op = Ast.Add_eq;
                    rhs =
                      Ast.Bin
                        (Ast.Add,
                         Ast.Index ("arr", Ast.Var "i"),
                         Ast.Call (Ast.Sin, [ Ast.Var "t" ]));
                  };
              ];
          };
        Ast.If
          {
            lhs = Ast.Var "comp";
            cmp = Ast.Gt;
            rhs = Ast.Lit 1.0;
            body =
              [ Ast.Assign
                  { lhs = Ast.Lv_var "comp"; op = Ast.Mul_eq; rhs = Ast.Var "x" } ];
          };
      ];
  }

(* Random programs via the Varity generator (valid by construction). *)
let arbitrary_program =
  QCheck.make
    ~print:(fun p -> Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.generate (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* math_fn metadata *)

let test_math_fn_names_roundtrip () =
  Array.iter
    (fun fn ->
      check_bool "name roundtrips" true
        (Ast.math_fn_of_name (Ast.math_fn_name fn) = Some fn))
    Ast.all_math_fns

let test_math_fn_arity () =
  check_int "sin unary" 1 (Ast.math_fn_arity Ast.Sin);
  check_int "pow binary" 2 (Ast.math_fn_arity Ast.Pow);
  check_bool "unknown name" true (Ast.math_fn_of_name "erf" = None)

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_sizes () =
  check_int "expr size" 3 (Ast.expr_size (Ast.Bin (Ast.Add, Ast.Var "a", Ast.Lit 1.0)));
  check_int "expr depth" 2 (Ast.expr_depth (Ast.Bin (Ast.Add, Ast.Var "a", Ast.Lit 1.0)));
  check_bool "program size positive" true (Ast.program_size sample > 10)

let test_structure_counts () =
  check_int "loops" 1 (Ast.loop_count sample);
  check_int "calls" 1 (Ast.call_count sample);
  check_int "max bound" 4 (Ast.max_loop_bound sample);
  check_int "depth" 2 (Ast.program_depth sample)

let test_declared_and_used () =
  let declared = Ast.declared_names sample in
  check_bool "params listed" true (List.mem "x" declared && List.mem "arr" declared);
  check_bool "counter captured" true (List.mem "i" declared);
  check_bool "temp captured" true (List.mem "t" declared);
  check_bool "comp not listed" false (List.mem "comp" declared)

let test_fresh_name () =
  check_string "taken name gets suffix" "x_1" (Ast.fresh_name sample "x");
  check_string "free name unchanged" "fresh" (Ast.fresh_name sample "fresh");
  check_bool "comp reserved" true (Ast.fresh_name sample "comp" <> "comp")

(* ------------------------------------------------------------------ *)
(* renaming *)

let test_rename_preserves_comp () =
  let renamed = Ast.rename (fun n -> n ^ "_r") sample in
  let declared = Ast.declared_names renamed in
  check_bool "renamed" true (List.mem "x_r" declared);
  check_bool "comp untouched" true
    (Ast.fold_stmts
       (fun acc s ->
         match s with
         | Ast.Assign { lhs = Ast.Lv_var "comp"; _ } -> true
         | _ -> acc)
       (fun acc _ -> acc)
       false renamed.body)

let test_alpha_normalize_canonical () =
  let n1 = Ast.alpha_normalize sample in
  let renamed = Ast.rename (fun n -> "zz_" ^ n) sample in
  let n2 = Ast.alpha_normalize renamed in
  check_bool "rename-invariant" true (Ast.equal n1 n2)

let qcheck_alpha_idempotent =
  QCheck.Test.make ~name:"alpha_normalize idempotent" ~count:100
    arbitrary_program (fun p ->
      let n = Ast.alpha_normalize p in
      Ast.equal n (Ast.alpha_normalize n))

let qcheck_alpha_hash_invariant =
  QCheck.Test.make ~name:"structural_hash invariant under renaming" ~count:100
    arbitrary_program (fun p ->
      let renamed = Ast.rename (fun n -> n ^ "_q") p in
      Ast.structural_hash p = Ast.structural_hash renamed)

let qcheck_rename_size_preserved =
  QCheck.Test.make ~name:"renaming preserves program size" ~count:100
    arbitrary_program (fun p ->
      Ast.program_size p = Ast.program_size (Ast.rename (fun n -> n ^ "x") p))

(* ------------------------------------------------------------------ *)
(* printing *)

let test_lit_to_string () =
  check_string "integral gets .0" "2.0" (Pp.lit_to_string 2.0);
  check_bool "fraction kept" true
    (float_of_string (Pp.lit_to_string 0.1) = 0.1);
  check_bool "negative" true (float_of_string (Pp.lit_to_string (-3.5)) = -3.5);
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Pp.lit_to_string: non-finite literal") (fun () ->
      ignore (Pp.lit_to_string Float.nan))

(* Pp formats literals through the runtime primitive that
   [Printf.sprintf "%.17g"] calls; both spellings, the ".0" rule
   included, must agree on every float of a grid: signed zeros,
   subnormals, every power of ten, the extremes, integral values that
   need the suffix, and pseudo-random bit patterns. *)
let test_lit_matches_printf () =
  let reference v =
    let s = Printf.sprintf "%.17g" v in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  in
  let state = Random.State.make [| 17 |] in
  let grid =
    [ 0.0; 5e-324; 1e-310; 2.2250738585072009e-308; 2.2250738585072014e-308;
      1e-300; 1e300; Float.max_float; 0.1; 1.0 /. 3.0; Float.pi; 0.5;
      4503599627370496.0; 9007199254740993.0; 1e15; 1e16; 1e17; 1e21; 1e22 ]
    @ List.init 647 (fun i -> 10.0 ** float_of_int (i - 323))
    @ List.init 200 float_of_int
    @ List.init 2000 (fun _ -> Int64.float_of_bits (Random.State.bits64 state))
  in
  List.iter
    (fun v ->
      List.iter
        (fun x ->
          if Float.is_finite x then
            check_string (Printf.sprintf "%h" x) (reference x)
              (Pp.lit_to_string x))
        [ v; -.v ])
    grid

let qcheck_lit_roundtrip =
  QCheck.Test.make ~name:"literal text parses back to same double" ~count:1000
    QCheck.(map (fun (m, e) -> ldexp m (e mod 900))
              (pair (float_bound_exclusive 1.0) small_int))
    (fun v ->
      QCheck.assume (Float.is_finite v);
      float_of_string (Pp.lit_to_string v) = v)

let test_expr_precedence_printing () =
  let e = Ast.Bin (Ast.Mul, Ast.Bin (Ast.Add, Ast.Var "a", Ast.Var "b"), Ast.Var "c") in
  check_string "parens for low-prec child" "(a + b) * c"
    (Pp.expr_to_string Ast.F64 e);
  let e2 = Ast.Bin (Ast.Add, Ast.Var "a", Ast.Bin (Ast.Mul, Ast.Var "b", Ast.Var "c")) in
  check_string "no spurious parens" "a + b * c" (Pp.expr_to_string Ast.F64 e2);
  let e3 = Ast.Bin (Ast.Add, Ast.Var "a", Ast.Bin (Ast.Add, Ast.Var "b", Ast.Var "c")) in
  check_string "right-nesting parenthesized" "a + (b + c)"
    (Pp.expr_to_string Ast.F64 e3)

let test_neg_printing () =
  check_string "neg var" "-x" (Pp.expr_to_string Ast.F64 (Ast.Neg (Ast.Var "x")));
  check_string "neg literal keeps node" "-(3.5)"
    (Pp.expr_to_string Ast.F64 (Ast.Neg (Ast.Lit 3.5)));
  check_string "negative literal plain" "-3.5"
    (Pp.expr_to_string Ast.F64 (Ast.Lit (-3.5)))

let test_f32_spelling () =
  check_string "float type" "float" (Pp.fp_type_name Ast.F32);
  check_string "sinf" "sinf" (Pp.math_call_name Ast.F32 Ast.Sin);
  check_string "sin" "sin" (Pp.math_call_name Ast.F64 Ast.Sin)

let test_to_c_structure () =
  let src = Pp.to_c sample in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (Util.Text.contains_sub src needle))
    [ "#include <math.h>"; "void compute(double x, double* arr, int n)";
      "double comp = 0.0;"; "printf("; "int main(int argc, char* argv[])";
      "atof(argv[1])"; "return 0;" ]

let test_to_cuda_structure () =
  let src = Pp.to_cuda sample in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (Util.Text.contains_sub src needle))
    [ "__global__ void compute"; "compute<<<1, 1>>>"; "cudaMallocManaged";
      "cudaDeviceSynchronize();" ]

(* Golden digest of every rendering the pipeline consumes: the host and
   device translation units, the compute function (both spellings),
   per-statement lines and the Type-2 clone key. The corpora are
   fixed-seed campaigns of every approach at FP64 and FP32 plus 300
   Varity programs at both precisions. Pinned when the printer built
   its text by string concatenation (and re-pinned, with that printer,
   when injected mistakes began to fire at FP32 and so changed the FP32
   campaigns); any byte of output the printer changes changes the
   digest. *)
let test_render_golden_digest () =
  let campaign precision approach =
    (Harness.Campaign.run ~budget:25 ~precision ~seed:4242 approach)
      .Harness.Campaign.programs
  in
  let approaches =
    Array.to_list Harness.Approach.all @ [ Harness.Approach.Bandit ]
  in
  let varity =
    let rng = Util.Rng.of_int 4243 in
    List.init 300 (fun _ -> Gen.Varity.generate rng)
  in
  let corpus =
    List.concat_map
      (fun precision ->
        List.concat_map (campaign precision) approaches
        @ List.map (fun p -> { p with Ast.precision }) varity)
      [ Ast.F64; Ast.F32 ]
  in
  let b = Buffer.create (1 lsl 20) in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\x00'
  in
  List.iter
    (fun (p : Ast.program) ->
      add (Pp.to_c p);
      add (Pp.to_cuda p);
      add (Pp.compute_to_string p);
      add (Pp.compute_to_string ~cuda:true p);
      List.iter
        (fun stmt ->
          List.iter add (Pp.stmt_to_lines p.precision 0 stmt);
          List.iter add (Pp.stmt_to_lines p.precision 2 stmt))
        p.body;
      add (Diversity.Clones.type2_key p))
    corpus;
  check_int "corpus size" 840 (List.length corpus);
  check_string "rendering digest" "1370afe62483f835e18f0b170700968b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let qcheck_map_exprs_identity =
  QCheck.Test.make ~name:"map_exprs with identity preserves body" ~count:100
    arbitrary_program (fun p ->
      Ast.map_exprs (fun e -> e) p.Ast.body = p.Ast.body)

let () =
  Alcotest.run "lang"
    [
      ( "metadata",
        [
          Alcotest.test_case "math_fn names" `Quick test_math_fn_names_roundtrip;
          Alcotest.test_case "math_fn arity" `Quick test_math_fn_arity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "structure counts" `Quick test_structure_counts;
          Alcotest.test_case "declared/used" `Quick test_declared_and_used;
          Alcotest.test_case "fresh_name" `Quick test_fresh_name;
        ] );
      ( "renaming",
        [
          Alcotest.test_case "rename keeps comp" `Quick test_rename_preserves_comp;
          Alcotest.test_case "alpha canonical" `Quick test_alpha_normalize_canonical;
          QCheck_alcotest.to_alcotest qcheck_alpha_idempotent;
          QCheck_alcotest.to_alcotest qcheck_alpha_hash_invariant;
          QCheck_alcotest.to_alcotest qcheck_rename_size_preserved;
        ] );
      ( "printing",
        [
          Alcotest.test_case "literals" `Quick test_lit_to_string;
          Alcotest.test_case "literals match %.17g" `Quick
            test_lit_matches_printf;
          QCheck_alcotest.to_alcotest qcheck_lit_roundtrip;
          Alcotest.test_case "precedence" `Quick test_expr_precedence_printing;
          Alcotest.test_case "negation" `Quick test_neg_printing;
          Alcotest.test_case "f32 spelling" `Quick test_f32_spelling;
          Alcotest.test_case "C structure" `Quick test_to_c_structure;
          Alcotest.test_case "CUDA structure" `Quick test_to_cuda_structure;
          Alcotest.test_case "golden digest" `Quick test_render_golden_digest;
          QCheck_alcotest.to_alcotest qcheck_map_exprs_identity;
        ] );
    ]
