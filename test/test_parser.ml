(* Tests for lib/parser (cparse): lexing and parsing of the mini-C subset. *)

open Lang
open Helpers

let arbitrary_program =
  QCheck.make
    ~print:(fun p -> Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.generate (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_tokens_basic () =
  let toks = Cparse.Lex.tokens "x += 3.5 * y[i];" in
  check_int "token count" 9 (Array.length toks);
  check_bool "first ident" true (toks.(0) = Cparse.Lex.Ident "x")

let test_tokens_numbers () =
  check_bool "int" true (Cparse.Lex.tokens "42" = [| Cparse.Lex.Int_tok 42 |]);
  check_bool "float dot" true (Cparse.Lex.tokens "4.5" = [| Cparse.Lex.Float_tok 4.5 |]);
  check_bool "exponent" true
    (Cparse.Lex.tokens "1e-3" = [| Cparse.Lex.Float_tok 1e-3 |]);
  check_bool "suffix f" true
    (Cparse.Lex.tokens "2.5f" = [| Cparse.Lex.Float_tok 2.5 |]);
  check_bool "leading dot" true
    (Cparse.Lex.tokens ".5" = [| Cparse.Lex.Float_tok 0.5 |])

(* Up to 18 digits an int is read in place; a longer run is an int when
   [int_of_string] takes it and a float otherwise. *)
let test_tokens_long_digit_runs () =
  let open Cparse.Lex in
  List.iter
    (fun (text, expected) ->
      check_bool text true (tokens text = [| expected |]);
      check_string (text ^ " blind") (blind_key text)
        (match expected with Int_tok _ -> "ilit" | _ -> "lit"))
    [ ("999999999999999999", Int_tok 999_999_999_999_999_999);
      ("000000000000000000042", Int_tok 42);
      ("1000000000000000000", Int_tok 1_000_000_000_000_000_000);
      ("4611686018427387903", Int_tok max_int);
      ("4611686018427387904", Float_tok 4611686018427387904.0);
      ("9999999999999999999", Float_tok 9999999999999999999.0);
      ("123456789012345678901234567890", Float_tok 123456789012345678901234567890.0) ]

let test_tokens_comments () =
  check_bool "line comment" true
    (Cparse.Lex.tokens "a // comment\nb" = [| Cparse.Lex.Ident "a"; Cparse.Lex.Ident "b" |]);
  check_bool "block comment" true
    (Cparse.Lex.tokens "a /* x\ny */ b" = [| Cparse.Lex.Ident "a"; Cparse.Lex.Ident "b" |]);
  check_bool "preprocessor" true
    (Cparse.Lex.tokens "#include <stdio.h>\nx" = [| Cparse.Lex.Ident "x" |])

let test_tokens_operators () =
  let open Cparse.Lex in
  check_bool "compound" true (tokens "+= -= *= /=" = [| Plus_eq; Minus_eq; Star_eq; Slash_eq |]);
  check_bool "comparisons" true (tokens "< <= > >= == !=" = [| Lt; Le; Gt; Ge; Eq_eq; Ne |]);
  check_bool "launch" true (tokens "<<<" = [| Lshift; Lt |]);
  check_bool "increment" true (tokens "++i" = [| Plus_plus; Ident "i" |])

let test_tokens_string_literal () =
  match Cparse.Lex.tokens {|printf("%.17g\n", comp);|} with
  | [| Cparse.Lex.Ident "printf"; Cparse.Lex.Lparen; Cparse.Lex.String_lit s;
       Cparse.Lex.Comma; Cparse.Lex.Ident "comp"; Cparse.Lex.Rparen;
       Cparse.Lex.Semi |] ->
    check_bool "escape kept" true (Util.Text.contains_sub s "17g")
  | _ -> Alcotest.fail "unexpected token stream"

(* Float tokens are spelled by the primitive [Printf.sprintf "%.17g"]
   calls; the two spellings agree on ±0, subnormals, powers of ten, the
   extremes, and the infinity an overflowing literal lexes to. *)
let test_float_spelling_matches_printf () =
  let spell v = Cparse.Lex.to_string (Cparse.Lex.Float_tok v) in
  let grid =
    [ 0.0; 5e-324; 1e-310; 2.2250738585072009e-308; 2.2250738585072014e-308;
      1e-300; 1e300; Float.max_float; 0.1; 1.0 /. 3.0; Float.pi; 0.5; 1e15;
      1e16; 1e17; 1e21; 1e22 ]
    @ List.init 647 (fun i -> 10.0 ** float_of_int (i - 323))
  in
  List.iter
    (fun v ->
      List.iter
        (fun x ->
          check_string (Printf.sprintf "%h" x) (Printf.sprintf "%.17g" x) (spell x))
        [ v; -.v ])
    grid;
  match Cparse.Lex.tokens "1e999" with
  | [| Cparse.Lex.Float_tok v |] ->
    check_bool "overflows to inf" true (v = Float.infinity);
    check_string "inf" (Printf.sprintf "%.17g" v) (spell v);
    check_string "-inf" (Printf.sprintf "%.17g" (-.v)) (spell (-.v))
  | _ -> Alcotest.fail "1e999 is not one float token"

let test_lex_error () =
  check_bool "raises" true
    (match Cparse.Lex.tokens "a $ b" with
     | exception Cparse.Lex.Error msg -> Util.Text.contains_sub msg "line 1"
     | _ -> false)

let test_is_keyword () =
  check_bool "double" true (Cparse.Lex.is_keyword "double");
  check_bool "sin" true (Cparse.Lex.is_keyword "sin");
  check_bool "__global__" true (Cparse.Lex.is_keyword "__global__");
  check_bool "every math function" true
    (Array.for_all
       (fun fn -> Cparse.Lex.is_keyword (Ast.math_fn_name fn))
       Ast.all_math_fns);
  List.iter
    (fun s -> check_bool s false (Cparse.Lex.is_keyword s))
    [ "alpha"; ""; "doubl"; "doubles"; "sinf"; "__global__x"; "Main"; "comp" ]

(* ------------------------------------------------------------------ *)
(* Expressions *)

let parse_expr_exn s =
  match Cparse.Parse.expr s with Ok e -> e | Error m -> failwith m

let test_expr_precedence () =
  check_bool "mul binds tighter" true
    (parse_expr_exn "a + b * c"
    = Ast.Bin (Ast.Add, Ast.Var "a", Ast.Bin (Ast.Mul, Ast.Var "b", Ast.Var "c")));
  check_bool "left assoc" true
    (parse_expr_exn "a - b - c"
    = Ast.Bin (Ast.Sub, Ast.Bin (Ast.Sub, Ast.Var "a", Ast.Var "b"), Ast.Var "c"));
  check_bool "parens override" true
    (parse_expr_exn "(a + b) * c"
    = Ast.Bin (Ast.Mul, Ast.Bin (Ast.Add, Ast.Var "a", Ast.Var "b"), Ast.Var "c"))

let test_expr_unary_minus () =
  check_bool "fold into literal" true (parse_expr_exn "-3.5" = Ast.Lit (-3.5));
  check_bool "neg of var" true (parse_expr_exn "-x" = Ast.Neg (Ast.Var "x"));
  check_bool "neg of parens" true
    (parse_expr_exn "-(3.5)" = Ast.Neg (Ast.Lit 3.5));
  check_bool "binds tighter than mul" true
    (parse_expr_exn "-x * y"
    = Ast.Bin (Ast.Mul, Ast.Neg (Ast.Var "x"), Ast.Var "y"))

let test_expr_calls () =
  check_bool "unary call" true
    (parse_expr_exn "sin(x)" = Ast.Call (Ast.Sin, [ Ast.Var "x" ]));
  check_bool "binary call" true
    (parse_expr_exn "pow(x, 2.0)" = Ast.Call (Ast.Pow, [ Ast.Var "x"; Ast.Lit 2.0 ]));
  check_bool "f32 suffix accepted" true
    (parse_expr_exn "sinf(x)" = Ast.Call (Ast.Sin, [ Ast.Var "x" ]));
  check_bool "unknown fn rejected" true (Result.is_error (Cparse.Parse.expr "erf(x)"));
  check_bool "arity enforced" true (Result.is_error (Cparse.Parse.expr "pow(x)"))

let test_expr_index () =
  check_bool "subscript" true
    (parse_expr_exn "a[i + 1]"
    = Ast.Index ("a", Ast.Bin (Ast.Add, Ast.Var "i", Ast.Int_lit 1)))

(* ------------------------------------------------------------------ *)
(* Programs *)

let minimal = {|
void compute(double x) {
  double comp = 0.0;
  comp = x * 2.0;
}
|}

let test_parse_minimal () =
  let p = Cparse.Parse.program_exn minimal in
  check_int "one param" 1 (List.length p.Ast.params);
  check_int "comp decl dropped, one stmt" 1 (List.length p.Ast.body)

let test_parse_skips_printf_and_main () =
  let src = {|
#include <stdio.h>
void compute(double x) {
  double comp = 0.0;
  comp += x;
  printf("%.17g\n", comp);
}
int main(int argc, char* argv[]) {
  double x = atof(argv[1]);
  compute(x);
  return 0;
}
|} in
  let p = Cparse.Parse.program_exn src in
  check_int "printf skipped" 1 (List.length p.Ast.body)

let test_array_length_recovery () =
  let src = {|
void compute(double* buf) {
  double comp = 0.0;
  comp += buf[11];
}
int main(int argc, char* argv[]) {
  double buf[12];
  compute(buf);
  return 0;
}
|} in
  let p = Cparse.Parse.program_exn src in
  check_bool "length 12 recovered" true
    (p.Ast.params = [ Ast.P_fp_array ("buf", 12) ])

let test_array_length_default () =
  let src = "void compute(double* buf) { double comp = 0.0; comp += buf[0]; }" in
  let p = Cparse.Parse.program_exn ~default_array_len:8 src in
  check_bool "default 8" true (p.Ast.params = [ Ast.P_fp_array ("buf", 8) ])

let test_nonzero_comp_init_becomes_assign () =
  let src = "void compute(double x) { double comp = x + 1.0; comp *= 2.0; }" in
  let p = Cparse.Parse.program_exn src in
  check_int "two statements" 2 (List.length p.Ast.body);
  match List.hd p.Ast.body with
  | Ast.Assign { lhs = Ast.Lv_var "comp"; op = Ast.Set; _ } -> ()
  | _ -> Alcotest.fail "expected comp assignment"

let test_f32_detection () =
  let src = "void compute(float x) { float comp = 0.0; comp = sinf(x); }" in
  let p = Cparse.Parse.program_exn src in
  check_bool "precision F32" true (p.Ast.precision = Ast.F32)

(* No fp parameter: the local declaration sets the precision, and the
   program prints back as it was written. *)
let test_f32_from_local () =
  let src = "void compute(int n) { float comp = 0.0; comp += sinf(1.5); }" in
  let p = Cparse.Parse.program_exn src in
  check_bool "precision F32" true (p.Ast.precision = Ast.F32);
  let printed = Pp.to_c p in
  check_bool "prints float" true (Util.Text.contains_sub printed "float comp = 0.0;");
  check_bool "prints sinf" true (Util.Text.contains_sub printed "sinf(1.5)");
  check_bool "round-trips" true (Cparse.Parse.program_exn printed = p)

let test_loop_forms () =
  let src = {|
void compute(double x) {
  double comp = 0.0;
  for (int i = 0; i < 10; i++) {
    comp += x;
  }
}
|} in
  let p = Cparse.Parse.program_exn src in
  check_bool "postfix ++ accepted" true (Ast.loop_count p = 1)

let test_rejections () =
  let rejected src = Result.is_error (Cparse.Parse.program src) in
  check_bool "no compute" true (rejected "int main() { return 0; }");
  check_bool "else rejected" true
    (rejected
       "void compute(double x) { double comp = 0.0; if (x > 0.0) { comp = \
        1.0; } else { comp = 2.0; } }");
  check_bool "nonzero loop start" true
    (rejected
       "void compute(double x) { double comp = 0.0; for (int i = 1; i < 4; \
        ++i) { comp += x; } }");
  check_bool "wrong counter in condition" true
    (rejected
       "void compute(double x) { double comp = 0.0; for (int i = 0; j < 4; \
        ++i) { comp += x; } }");
  check_bool "uninitialized declaration" true
    (rejected "void compute(double x) { double comp = 0.0; double y; comp = x; }");
  check_bool "while rejected" true
    (rejected
       "void compute(double x) { double comp = 0.0; while (x > 0.0) { comp \
        = 1.0; } }")

let test_cuda_roundtrip () =
  let p = Gen.Varity.generate (Util.Rng.of_int 2024) in
  match Cparse.Parse.program (Pp.to_cuda p) with
  | Ok p2 -> check_bool "cuda parses to same program" true (Ast.equal p p2)
  | Error m -> Alcotest.fail m

let qcheck_c_roundtrip =
  QCheck.Test.make ~name:"parse (print p) = p for random programs" ~count:300
    arbitrary_program (fun p ->
      match Cparse.Parse.program (Pp.to_c p) with
      | Ok p2 -> Ast.equal p p2
      | Error _ -> false)

let qcheck_cuda_roundtrip =
  QCheck.Test.make ~name:"CUDA translation parses back to same program"
    ~count:150 arbitrary_program (fun p ->
      match Cparse.Parse.program (Pp.to_cuda p) with
      | Ok p2 -> Ast.equal p p2
      | Error _ -> false)

let qcheck_expr_roundtrip =
  QCheck.Test.make ~name:"expression print/parse roundtrip" ~count:300
    arbitrary_program (fun p ->
      (* take every top-level rhs of the program and round-trip it *)
      let ok = ref true in
      ignore
        (Ast.map_exprs
           (fun e ->
             (match Cparse.Parse.expr (Pp.expr_to_string Ast.F64 e) with
              | Ok e2 when e2 = e -> ()
              | _ -> ok := false);
             e)
           p.Ast.body);
      !ok)

(* ------------------------------------------------------------------ *)
(* Golden digests *)

(* The texts the lexer and parser digests run over (pinned with the
   list-form lexer and the option-peeking parser, and re-pinned with
   them when injected mistakes began to fire at FP32): every corpus
   kernel, as stored and as rendered;
   the host and device units of fixed-seed 25-slot campaigns of every
   approach at both precisions; each mistake injection of the FP64 host
   units; every prefix of 20 host units (unterminated blocks and
   strings, missing expressions, lex errors on every line); and a few
   hand-written error inputs. *)
let golden_sources =
  lazy
    (let campaign precision approach =
       (Harness.Campaign.run ~budget:25 ~precision ~seed:4242 approach)
         .Harness.Campaign.programs
     in
     let approaches =
       Array.to_list Harness.Approach.all @ [ Harness.Approach.Bandit ]
     in
     let corpus =
       Array.to_list Llm.Corpus.entries
       |> List.concat_map (fun (e : Llm.Corpus.entry) ->
              [ e.source; Pp.compute_to_string (Llm.Corpus.program e) ])
     in
     let programs precision =
       List.concat_map (campaign precision) approaches
     in
     let f64 = programs Ast.F64 and f32 = programs Ast.F32 in
     let units =
       List.concat_map (fun p -> [ Pp.to_c p; Pp.to_cuda p ]) (f64 @ f32)
     in
     let flawed =
       List.concat_map
         (fun p ->
           Array.to_list
             (Array.map (fun f -> Llm.Client.apply_flaw Ast.F64 f (Pp.to_c p))
                Llm.Client.flaws))
         f64
     in
     let prefixes =
       List.filteri (fun i _ -> i < 20) (f64 @ f32)
       |> List.concat_map (fun p ->
              let src = Pp.to_c p in
              List.init (String.length src + 1) (fun k -> String.sub src 0 k))
     in
     let handwritten =
       [ ""; "a $ b"; "x\n\n  @"; "a /* open\n"; "printf(\"%d\n"; "1.5e";
         "1e+"; ".5f"; "0x1"; "!"; "a != b"; "<<< >>>"; "2147483648999999999999";
         "void compute(double x) {\n  double comp = 0.0;\n  comp = x +;\n}" ]
     in
     corpus @ units @ flawed @ prefixes @ handwritten)

let golden_digest f =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun src ->
      f b src;
      Buffer.add_char b '\x00')
    (Lazy.force golden_sources);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Numerals carry their kind and exact bits: [to_string] alone spells
   [Int_tok 1] and [Float_tok 1.0] the same. *)
let token_repr = function
  | Cparse.Lex.Int_tok v -> "i" ^ string_of_int v
  | Cparse.Lex.Float_tok v -> Printf.sprintf "f%h" v
  | tok -> Cparse.Lex.to_string tok

let test_lex_golden_digest () =
  check_int "inputs" 31444 (List.length (Lazy.force golden_sources));
  check_string "token digest" "7046a0bd1c5f6546c77c2d0f449656c3"
    (golden_digest (fun b src ->
         match Cparse.Lex.tokens src with
         | toks ->
           Array.iter
             (fun tok ->
               Buffer.add_string b (token_repr tok);
               Buffer.add_char b ' ')
             toks
         | exception Cparse.Lex.Error msg -> Buffer.add_string b ("E " ^ msg)))

let test_parse_golden_digest () =
  check_string "parse digest" "f25d04a12c510c84d155c0d22583d6ab"
    (golden_digest (fun b src ->
         match Cparse.Parse.program src with
         | Ok p ->
           Buffer.add_string b
             (match p.Ast.precision with
              | Ast.F64 -> "f64\n"
              | Ast.F32 -> "f32\n");
           Buffer.add_string b (Pp.to_c p)
         | Error msg -> Buffer.add_string b ("E " ^ msg)))

let () =
  Alcotest.run "parser"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_tokens_basic;
          Alcotest.test_case "numbers" `Quick test_tokens_numbers;
          Alcotest.test_case "long digit runs" `Quick test_tokens_long_digit_runs;
          Alcotest.test_case "comments" `Quick test_tokens_comments;
          Alcotest.test_case "operators" `Quick test_tokens_operators;
          Alcotest.test_case "string literal" `Quick test_tokens_string_literal;
          Alcotest.test_case "float spelling matches %.17g" `Quick
            test_float_spelling_matches_printf;
          Alcotest.test_case "error position" `Quick test_lex_error;
          Alcotest.test_case "keywords" `Quick test_is_keyword;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "unary minus" `Quick test_expr_unary_minus;
          Alcotest.test_case "calls" `Quick test_expr_calls;
          Alcotest.test_case "indexing" `Quick test_expr_index;
        ] );
      ( "programs",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "skips printf/main" `Quick test_parse_skips_printf_and_main;
          Alcotest.test_case "array length recovery" `Quick test_array_length_recovery;
          Alcotest.test_case "array length default" `Quick test_array_length_default;
          Alcotest.test_case "comp init" `Quick test_nonzero_comp_init_becomes_assign;
          Alcotest.test_case "f32 detection" `Quick test_f32_detection;
          Alcotest.test_case "f32 from a local declaration" `Quick
            test_f32_from_local;
          Alcotest.test_case "loop forms" `Quick test_loop_forms;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "cuda roundtrip (single)" `Quick test_cuda_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_c_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_cuda_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_expr_roundtrip;
        ] );
      ( "golden",
        [
          Alcotest.test_case "lexer digest" `Quick test_lex_golden_digest;
          Alcotest.test_case "parser digest" `Quick test_parse_golden_digest;
        ] );
    ]
