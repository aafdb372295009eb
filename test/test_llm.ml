(* Tests for lib/llm: corpus, prompts, sampler, mutations, mock client. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Corpus *)

let test_corpus_size () =
  check_bool "at least 30 kernels" true (Array.length Llm.Corpus.entries >= 30)

let test_corpus_all_parse_and_validate () =
  Array.iter
    (fun (e : Llm.Corpus.entry) ->
      let p = Llm.Corpus.program e in
      check_bool (e.Llm.Corpus.name ^ " valid") true (Analysis.Validate.is_valid p))
    Llm.Corpus.entries

let test_corpus_names_unique () =
  let names = Array.to_list (Array.map (fun (e : Llm.Corpus.entry) -> e.Llm.Corpus.name) Llm.Corpus.entries) in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_corpus_memoized () =
  let e = Llm.Corpus.entries.(0) in
  check_bool "same AST object" true (Llm.Corpus.program e == Llm.Corpus.program e)

let test_corpus_common_subset () =
  let n_common = Array.length Llm.Corpus.common_entries in
  check_bool "non-trivial common subset" true
    (n_common >= 10 && n_common < Array.length Llm.Corpus.entries)

let test_corpus_by_tag () =
  check_bool "reductions exist" true (Array.length (Llm.Corpus.by_tag Llm.Corpus.Reduction) > 0);
  Array.iter
    (fun (e : Llm.Corpus.entry) ->
      check_bool "tag respected" true (List.mem Llm.Corpus.Recurrence e.Llm.Corpus.tags))
    (Llm.Corpus.by_tag Llm.Corpus.Recurrence)

let test_corpus_runs_everywhere () =
  (* every kernel compiles and runs under every configuration *)
  let rng = Util.Rng.of_int 123 in
  Array.iter
    (fun (e : Llm.Corpus.entry) ->
      let p = Llm.Corpus.program e in
      let inputs = Gen.Generate.gen_inputs rng Llm.Client.generation_config p in
      List.iter
        (function
          | Either.Left (_, bin) -> ignore (Compiler.Driver.run bin inputs)
          | Either.Right (_, msg) -> Alcotest.failf "%s: %s" e.Llm.Corpus.name msg)
        (Compiler.Driver.matrix p))
    Llm.Corpus.entries

(* ------------------------------------------------------------------ *)
(* Prompts *)

let test_prompt_render_direct () =
  let text = Llm.Prompt.render (Llm.Prompt.Direct { precision = Lang.Ast.F64 }) in
  check_bool "mentions precision" true (Util.Text.contains_sub text "double");
  check_bool "guideline headers" true (Util.Text.contains_sub text "math.h");
  check_bool "plain code only" true (Util.Text.contains_sub text "plain code")

let test_prompt_render_grammar () =
  let text = Llm.Prompt.render (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }) in
  check_bool "grammar included" true (Util.Text.contains_sub text "<expression>")

let test_prompt_render_mutate () =
  let example = Llm.Corpus.program Llm.Corpus.entries.(0) in
  let text = Llm.Prompt.render (Llm.Prompt.Mutate { precision = Lang.Ast.F64; example }) in
  check_bool "strategies listed" true
    (Util.Text.contains_sub text "intermediate computations");
  check_bool "example embedded" true (Util.Text.contains_sub text "compute");
  check_int "five strategies" 5 (List.length Llm.Prompt.mutation_strategy_names)

let test_token_count () =
  check_int "words" 3 (Llm.Prompt.token_count "a b\nc");
  check_int "empty" 0 (Llm.Prompt.token_count "")

(* Pinned word counts: words are maximal runs of characters other than
   space and newline — a tab is part of a word, not a separator. *)
let test_token_count_separators () =
  List.iter
    (fun (s, n) -> check_int (String.escaped s) n (Llm.Prompt.token_count s))
    [ ("", 0); (" ", 0); ("\n", 0); ("  \n \n\n ", 0); ("word", 1);
      ("a\tb", 1); ("\t", 1); (" \t \n", 1); ("a\t b", 2);
      ("  lead", 1); ("trail  ", 1); ("\n\nlead\nand trail\n\n", 3);
      ("a   b    c", 3); ("a\n\n\nb", 2); ("x \n y\n\tz\t", 3);
      ("void compute(double x) {\n  comp += x;\n}", 8) ]

(* The per-precision counts of the Direct and Grammar prompts are the
   counts of their rendered texts; a Mutate prompt is counted per call. *)
let test_prompt_tokens () =
  let example = Llm.Corpus.program Llm.Corpus.entries.(0) in
  List.iter
    (fun precision ->
      List.iter
        (fun prompt ->
          check_int
            (Llm.Prompt.kind prompt ^ " at " ^ Lang.Pp.fp_type_name precision)
            (Llm.Prompt.token_count (Llm.Prompt.render prompt))
            (Llm.Prompt.tokens prompt))
        [ Llm.Prompt.Direct { precision }; Llm.Prompt.Grammar { precision };
          Llm.Prompt.Mutate { precision; example } ])
    [ Lang.Ast.F64; Lang.Ast.F32 ]

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler_penalties_spread_usage () =
  (* with penalties, a heavily weighted item must not monopolize *)
  let rng = Util.Rng.of_int 321 in
  let s = Llm.Sampler.create Llm.Sampler.paper_params in
  let heavy = ref 0 in
  for _ = 1 to 200 do
    match Llm.Sampler.pick s rng [| ("heavy", 8.0, `H); ("light", 1.0, `L) |] with
    | `H -> incr heavy
    | `L -> ()
  done;
  check_bool "heavy preferred" true (!heavy > 100);
  check_bool "light still sampled" true (!heavy < 195)

let test_sampler_records_usage () =
  let rng = Util.Rng.of_int 322 in
  let s = Llm.Sampler.create Llm.Sampler.paper_params in
  ignore (Llm.Sampler.pick s rng [| ("only", 1.0, ()) |]);
  check_int "usage recorded" 1 (Llm.Sampler.usage s "only")

let test_sampler_rejects_bad_params () =
  check_bool "temperature > 0" true
    (try ignore (Llm.Sampler.create { Llm.Sampler.paper_params with temperature = 0.0 }); false
     with Invalid_argument _ -> true)

let test_paper_params () =
  let p = Llm.Sampler.paper_params in
  check_bool "temperature 1.2" true (p.Llm.Sampler.temperature = 1.2);
  check_bool "frequency 0.5" true (p.Llm.Sampler.frequency_penalty = 0.5);
  check_bool "presence 0.6" true (p.Llm.Sampler.presence_penalty = 0.6)

(* ------------------------------------------------------------------ *)
(* Mutations *)

let corpus_programs =
  Array.to_list (Array.map Llm.Corpus.program Llm.Corpus.entries)

let qcheck_mutations_preserve_validity =
  QCheck.Test.make ~name:"every strategy preserves validity on the corpus"
    ~count:300
    QCheck.(pair small_int (int_bound (List.length corpus_programs - 1)))
    (fun (seed, idx) ->
      let rng = Util.Rng.of_int seed in
      let p = List.nth corpus_programs idx in
      Array.for_all
        (fun strategy ->
          let mutated, _ = Llm.Mutate.apply rng strategy p in
          Analysis.Validate.is_valid mutated)
        Llm.Mutate.all)

let qcheck_mutations_preserve_validity_varity =
  QCheck.Test.make ~name:"every strategy preserves validity on random programs"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Util.Rng.of_int seed in
      let p = Gen.Varity.generate rng in
      Array.for_all
        (fun strategy ->
          let mutated, _ = Llm.Mutate.apply rng strategy p in
          Analysis.Validate.is_valid mutated)
        Llm.Mutate.all)

let test_mutation_reports_change () =
  let rng = Util.Rng.of_int 42 in
  let p = Llm.Corpus.program Llm.Corpus.entries.(0) in
  let changed_count = ref 0 in
  for _ = 1 to 20 do
    Array.iter
      (fun strategy ->
        let mutated, changed = Llm.Mutate.apply rng strategy p in
        if changed then begin
          incr changed_count;
          check_bool "reported change is real" false (Lang.Ast.equal mutated p)
        end)
      Llm.Mutate.all
  done;
  check_bool "strategies usually apply" true (!changed_count > 50)

let test_swap_introduces_call_when_none () =
  let rng = Util.Rng.of_int 43 in
  let p = Cparse.Parse.program_exn
      "void compute(double x, double y) { double comp = 0.0; comp = x * y + x; }" in
  let mutated, changed = Llm.Mutate.apply rng Llm.Mutate.Swap_math_fn p in
  check_bool "applied" true changed;
  check_bool "call added" true (Lang.Ast.call_count mutated = 1)

let test_insert_intermediates_splits () =
  let rng = Util.Rng.of_int 44 in
  let p = Cparse.Parse.program_exn
      "void compute(double x, double y) { double comp = 0.0; comp = x * y + 1.0; }" in
  let mutated, changed = Llm.Mutate.apply rng Llm.Mutate.Insert_intermediates p in
  check_bool "applied" true changed;
  let f = Analysis.Features.of_program mutated in
  check_bool "temp introduced" true (f.Analysis.Features.temp_count = 1)

let test_reorder_symmetric_candidate_advances () =
  (* Regression: the first commutative candidate [x + x] is symmetric, so
     swapping its operands is a no-op. The rewriter must advance to the
     next pre-order candidate [x * y] instead of giving up for the slot —
     it used to return the program unchanged whenever the drawn k landed
     on a symmetric node. *)
  let p = Cparse.Parse.program_exn
      "void compute(double x, double y) { double comp = 0.0; comp = x + x; \
       comp = x * y; }" in
  for seed = 1 to 20 do
    let rng = Util.Rng.of_int seed in
    let mutated, changed = Llm.Mutate.apply rng Llm.Mutate.Reorder_or_nest p in
    check_bool "applied" true changed;
    check_bool "tree differs" false (Lang.Ast.equal mutated p)
  done

let test_add_control_flow_wraps () =
  let rng = Util.Rng.of_int 45 in
  let p = Cparse.Parse.program_exn
      "void compute(double x) { double comp = 0.0; comp = x; }" in
  let mutated, changed = Llm.Mutate.apply rng Llm.Mutate.Add_control_flow p in
  check_bool "applied" true changed;
  let f = Analysis.Features.of_program mutated in
  check_bool "loop or if added" true
    (f.Analysis.Features.loop_count + f.Analysis.Features.if_count = 1)

(* ------------------------------------------------------------------ *)
(* Client *)

let test_client_deterministic () =
  let c1 = Llm.Client.create ~seed:9 () in
  let c2 = Llm.Client.create ~seed:9 () in
  let prompt = Llm.Prompt.Grammar { precision = Lang.Ast.F64 } in
  for _ = 1 to 10 do
    Alcotest.(check string) "same responses"
      (Llm.Client.generate c1 prompt).Llm.Client.source
      (Llm.Client.generate c2 prompt).Llm.Client.source
  done

let test_client_mostly_valid () =
  let client = Llm.Client.create ~seed:10 () in
  let ok = ref 0 and n = 200 in
  for _ = 1 to n do
    let r = Llm.Client.generate client (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }) in
    match Cparse.Parse.program r.Llm.Client.source with
    | Ok p when Analysis.Validate.is_valid p -> incr ok
    | _ -> ()
  done;
  check_bool "validity above 90%" true (!ok > 180)

let test_client_flaws_occur () =
  let client = Llm.Client.create ~seed:11 () in
  let bad = ref 0 and n = 400 in
  for _ = 1 to n do
    let r = Llm.Client.generate client (Llm.Prompt.Direct { precision = Lang.Ast.F64 }) in
    match Cparse.Parse.program r.Llm.Client.source with
    | Ok p when Analysis.Validate.is_valid p -> ()
    | _ -> incr bad
  done;
  check_bool "some invalid outputs" true (!bad > 0);
  check_bool "but rare" true (!bad < n / 5)

let test_client_latency_accounting () =
  let client = Llm.Client.create ~seed:12 () in
  let r = Llm.Client.generate client (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }) in
  check_bool "latency positive" true (r.Llm.Client.latency > 0.0);
  check_bool "tokens counted" true
    (r.Llm.Client.prompt_tokens > 0 && r.Llm.Client.output_tokens > 0);
  check_int "calls counted" 1 (Llm.Client.calls client);
  check_bool "total accumulates" true
    (Llm.Client.total_latency client = r.Llm.Client.latency)

let test_client_mutate_relates_to_example () =
  let client = Llm.Client.create ~seed:13 () in
  let example = Llm.Corpus.program Llm.Corpus.entries.(0) in
  let r = Llm.Client.generate client
      (Llm.Prompt.Mutate { precision = Lang.Ast.F64; example }) in
  match Cparse.Parse.program r.Llm.Client.source with
  | Error m -> Alcotest.fail m
  | Ok p ->
    (* same parameter arity: mutations never touch the signature *)
    check_int "parameter list preserved"
      (List.length example.Lang.Ast.params)
      (List.length p.Lang.Ast.params)

(* A mistake is anchored on the comp declaration of the response's own
   precision, so every kind fires, and is rejected, at FP32 as at FP64;
   a single-precision campaign therefore loses slots to mistakes too. *)
let test_flaws_fire_at_both_precisions () =
  let example = Llm.Corpus.program Llm.Corpus.entries.(0) in
  List.iter
    (fun precision ->
      let source = Lang.Pp.to_c { example with Lang.Ast.precision } in
      Array.iter
        (fun flaw ->
          let flawed = Llm.Client.apply_flaw precision flaw source in
          check_bool "source changed" true (flawed <> source);
          check_bool "admission fails" true
            (Result.is_error (Compiler.Driver.admit flawed)))
        Llm.Client.flaws)
    [ Lang.Ast.F64; Lang.Ast.F32 ];
  let o =
    Harness.Campaign.run ~budget:100 ~precision:Lang.Ast.F32 ~seed:3
      Harness.Approach.Direct_prompt
  in
  check_bool "FP32 generation failures" true
    (o.Harness.Campaign.generation_failures > 0)

let test_flaw_rates_ordered () =
  let d = Llm.Client.flaw_rate (Llm.Prompt.Direct { precision = Lang.Ast.F64 }) in
  let g = Llm.Client.flaw_rate (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }) in
  check_bool "direct most error-prone" true (d > g)

let () =
  Alcotest.run "llm"
    [
      ( "corpus",
        [
          Alcotest.test_case "size" `Quick test_corpus_size;
          Alcotest.test_case "all parse+validate" `Quick test_corpus_all_parse_and_validate;
          Alcotest.test_case "unique names" `Quick test_corpus_names_unique;
          Alcotest.test_case "memoized" `Quick test_corpus_memoized;
          Alcotest.test_case "common subset" `Quick test_corpus_common_subset;
          Alcotest.test_case "by tag" `Quick test_corpus_by_tag;
          Alcotest.test_case "runs everywhere" `Quick test_corpus_runs_everywhere;
        ] );
      ( "prompts",
        [
          Alcotest.test_case "direct" `Quick test_prompt_render_direct;
          Alcotest.test_case "grammar" `Quick test_prompt_render_grammar;
          Alcotest.test_case "mutate" `Quick test_prompt_render_mutate;
          Alcotest.test_case "token count" `Quick test_token_count;
          Alcotest.test_case "token count separators" `Quick
            test_token_count_separators;
          Alcotest.test_case "prompt tokens" `Quick test_prompt_tokens;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "penalties spread" `Quick test_sampler_penalties_spread_usage;
          Alcotest.test_case "usage recorded" `Quick test_sampler_records_usage;
          Alcotest.test_case "bad params" `Quick test_sampler_rejects_bad_params;
          Alcotest.test_case "paper params" `Quick test_paper_params;
        ] );
      ( "mutate",
        [
          QCheck_alcotest.to_alcotest qcheck_mutations_preserve_validity;
          QCheck_alcotest.to_alcotest qcheck_mutations_preserve_validity_varity;
          Alcotest.test_case "reports change" `Quick test_mutation_reports_change;
          Alcotest.test_case "swap introduces call" `Quick test_swap_introduces_call_when_none;
          Alcotest.test_case "insert splits" `Quick test_insert_intermediates_splits;
          Alcotest.test_case "control flow wraps" `Quick test_add_control_flow_wraps;
          Alcotest.test_case "symmetric candidate advances" `Quick
            test_reorder_symmetric_candidate_advances;
        ] );
      ( "client",
        [
          Alcotest.test_case "deterministic" `Quick test_client_deterministic;
          Alcotest.test_case "mostly valid" `Quick test_client_mostly_valid;
          Alcotest.test_case "flaws occur" `Quick test_client_flaws_occur;
          Alcotest.test_case "latency accounting" `Quick test_client_latency_accounting;
          Alcotest.test_case "mutate keeps signature" `Quick test_client_mutate_relates_to_example;
          Alcotest.test_case "flaw rates ordered" `Quick test_flaw_rates_ordered;
          Alcotest.test_case "flaws fire at FP32" `Quick
            test_flaws_fire_at_both_precisions;
        ] );
    ]
