(* Tests for lib/harness: campaigns, time model, experiment rendering. *)

open Helpers

let small_budget = 25

let campaign approach = Harness.Campaign.run ~budget:small_budget ~seed:4242 approach

let test_campaign_accounting () =
  Array.iter
    (fun approach ->
      let o = campaign approach in
      check_int "budget consumed" small_budget
        (Difftest.Stats.n_programs o.Harness.Campaign.stats);
      check_int "programs + failures = budget" small_budget
        (List.length o.Harness.Campaign.programs
        + o.Harness.Campaign.generation_failures);
      check_bool "clock advanced" true (o.Harness.Campaign.sim_seconds > 0.0))
    Harness.Approach.all

let test_campaign_deterministic () =
  let a = campaign Harness.Approach.Llm4fp in
  let b = campaign Harness.Approach.Llm4fp in
  check_int "same inconsistencies"
    (Difftest.Stats.total_inconsistencies a.Harness.Campaign.stats)
    (Difftest.Stats.total_inconsistencies b.Harness.Campaign.stats);
  check_bool "same programs" true
    (List.for_all2 Lang.Ast.equal a.Harness.Campaign.programs
       b.Harness.Campaign.programs);
  check_bool "same simulated time" true
    (a.Harness.Campaign.sim_seconds = b.Harness.Campaign.sim_seconds)

let test_campaign_seed_sensitivity () =
  let a = Harness.Campaign.run ~budget:small_budget ~seed:1 Harness.Approach.Varity in
  let b = Harness.Campaign.run ~budget:small_budget ~seed:2 Harness.Approach.Varity in
  check_bool "different seeds differ" false
    (List.for_all2 Lang.Ast.equal a.Harness.Campaign.programs
       b.Harness.Campaign.programs)

let test_varity_no_llm () =
  let o = campaign Harness.Approach.Varity in
  check_bool "no llm latency" true (o.Harness.Campaign.llm_seconds = 0.0);
  check_int "no generation failures" 0 o.Harness.Campaign.generation_failures

let test_llm_has_latency () =
  let o = campaign Harness.Approach.Grammar_guided in
  check_bool "latency charged" true (o.Harness.Campaign.llm_seconds > 0.0);
  check_bool "llm time within total" true
    (o.Harness.Campaign.llm_seconds <= o.Harness.Campaign.sim_seconds)

let test_feedback_set_only_llm4fp () =
  check_int "grammar-guided has no feedback" 0
    (campaign Harness.Approach.Grammar_guided).Harness.Campaign.successful

let test_approach_names () =
  check_bool "paper spellings" true
    (Array.to_list (Array.map Harness.Approach.name Harness.Approach.all)
    = [ "VARITY"; "DIRECT-PROMPT"; "GRAMMAR-GUIDED"; "LLM4FP" ]);
  check_bool "of_name roundtrip" true
    (Array.for_all
       (fun a -> Harness.Approach.of_name (Harness.Approach.name a) = Some a)
       Harness.Approach.all);
  check_bool "case insensitive" true
    (Harness.Approach.of_name "llm4fp" = Some Harness.Approach.Llm4fp)

let test_time_model_monotonic () =
  let clock = Util.Sim_clock.create () in
  Harness.Time_model.charge_program clock ~work:100 ~ops:1000 ~configs:18;
  let small = Util.Sim_clock.elapsed clock in
  Util.Sim_clock.reset clock;
  Harness.Time_model.charge_program clock ~work:1000 ~ops:10000 ~configs:18;
  check_bool "bigger program costs more" true (Util.Sim_clock.elapsed clock > small)

(* ------------------------------------------------------------------ *)
(* Experiments *)

let suite = lazy (Harness.Experiments.run_suite ~budget:30 ~seed:90125 ())

let test_tables_render () =
  let sections = Harness.Experiments.sections ~max_pairs:500 (Lazy.force suite) in
  check_int "ten sections" 10 (List.length sections);
  List.iter
    (fun (s : Harness.Experiments.section) ->
      check_bool (s.Harness.Experiments.name ^ " non-empty") true
        (String.length s.Harness.Experiments.text > 40))
    sections

let test_table1_is_configuration () =
  let t = Harness.Experiments.table1 () in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "00_nofma"; "-ffp-contract=off"; "-fmad=false"; "-use_fast_math";
      "-ffast-math" ]

let test_table2_mentions_all_approaches () =
  let t = Harness.Experiments.table2 (Lazy.force suite) in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "VARITY"; "DIRECT-PROMPT"; "GRAMMAR-GUIDED"; "LLM4FP"; "%" ]

let test_table5_has_pairs () =
  let t = Harness.Experiments.table5 (Lazy.force suite) in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "gcc, clang"; "gcc, nvcc"; "clang, nvcc"; "03_fastmath"; "Total" ]

let test_table6_within_compilers () =
  let t = Harness.Experiments.table6 (Lazy.force suite) in
  check_bool "no baseline row" false (Util.Text.contains_sub t "00_nofma  ");
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "V: gcc"; "L: nvcc"; "Total" ]

let bandit_posterior (o : Harness.Campaign.outcome) =
  match o.Harness.Campaign.bandit with
  | None -> "none"
  | Some b -> Obs.Json.to_string (Harness.Bandit.to_json b)

let test_parallel_suite_byte_identical () =
  (* The whole point of the parallel engine: job count must never change
     results. Render the deterministic tables from a sequential and a
     4-job suite and require byte equality (summary embeds measured
     real seconds, so it is exactly the section this check must avoid),
     then compare every campaign's outcome signature, coverage ledger
     and bandit posterior. *)
  let observe jobs =
    let s = Harness.Experiments.run_suite ~budget:15 ~jobs ~seed:424242 () in
    ( Harness.Experiments.table2 s,
      Harness.Experiments.table5 s,
      List.map
        (fun approach ->
          let o = Harness.Experiments.outcome s approach in
          ( Harness.Approach.name approach,
            Harness.Campaign.signature o,
            Obs.Json.to_string (Obs.Coverage.to_json o.Harness.Campaign.coverage),
            bandit_posterior o ))
        (Harness.Approach.Bandit :: Array.to_list Harness.Approach.all) )
  in
  let t2_seq, t5_seq, seq = observe 1 in
  let t2_par, t5_par, par = observe 4 in
  Alcotest.(check string) "table2 identical at jobs=1 and jobs=4" t2_seq t2_par;
  Alcotest.(check string) "table5 identical at jobs=1 and jobs=4" t5_seq t5_par;
  check_int "five campaigns" 5 (List.length seq);
  List.iter2
    (fun (name, sig1, cov1, post1) (_, sig4, cov4, post4) ->
      check_bool (name ^ ": same signature at jobs=1 and jobs=4") true
        (sig1 = sig4);
      check_string (name ^ ": same coverage ledger at jobs=1 and jobs=4")
        cov1 cov4;
      check_string (name ^ ": same bandit posterior at jobs=1 and jobs=4")
        post1 post4;
      if name = Harness.Approach.name Harness.Approach.Bandit then
        check_bool "bandit posterior recorded" true (post1 <> "none"))
    seq par

let test_outcome_accessor () =
  let s = Lazy.force suite in
  Array.iter
    (fun a ->
      check_bool "accessor matches" true
        ((Harness.Experiments.outcome s a).Harness.Campaign.approach = a))
    Harness.Approach.all

let test_fp32_campaign () =
  let o =
    Harness.Campaign.run ~budget:15 ~precision:Lang.Ast.F32 ~seed:55
      Harness.Approach.Llm4fp
  in
  check_bool "programs are single precision" true
    (List.for_all
       (fun (p : Lang.Ast.program) -> p.Lang.Ast.precision = Lang.Ast.F32)
       o.Harness.Campaign.programs);
  check_int "budget consumed" 15 (Difftest.Stats.n_programs o.Harness.Campaign.stats)

let test_fp32_varity_campaign () =
  let o =
    Harness.Campaign.run ~budget:15 ~precision:Lang.Ast.F32 ~seed:56
      Harness.Approach.Varity
  in
  check_bool "varity programs are single precision" true
    (List.for_all
       (fun (p : Lang.Ast.program) -> p.Lang.Ast.precision = Lang.Ast.F32)
       o.Harness.Campaign.programs)

(* ------------------------------------------------------------------ *)
(* Execution engine equivalence: every case a fixed-seed campaign
   generates, under every configuration, runs bit-identically on the
   register VM and on the reference tree interpreter. *)

let test_vm_matches_tree_over_campaign () =
  let outcome =
    Harness.Campaign.run ~budget:20 ~seed:31337 Harness.Approach.Llm4fp
  in
  let checked = ref 0 in
  List.iter
    (fun (program, inputs) ->
      List.iter
        (function
          | Either.Right _ -> ()
          | Either.Left (config, binary) ->
            let label = Compiler.Config.name config in
            let tree =
              Irsim.Interp.run
                (Compiler.Config.runtime binary.Compiler.Driver.config)
                binary.Compiler.Driver.ir inputs
            in
            let vm = Irsim.Vm.run binary.Compiler.Driver.vm inputs in
            check_bool (label ^ ": result bits") true
              (Int64.bits_of_float tree.Irsim.Interp.result
              = Int64.bits_of_float vm.Irsim.Interp.result);
            check_int (label ^ ": fp_ops") tree.Irsim.Interp.fp_ops
              vm.Irsim.Interp.fp_ops;
            incr checked)
        (Compiler.Driver.matrix program))
    outcome.Harness.Campaign.cases;
  check_bool "campaign produced binaries to check" true (!checked > 0)

(* ------------------------------------------------------------------ *)
(* Ablation *)

let test_ablation_variants_shape () =
  let variants = Harness.Ablation.variants () in
  check_int "five variants" 5 (List.length variants);
  check_bool "full first" true ((List.hd variants).Harness.Ablation.name = "full");
  List.iter
    (fun (v : Harness.Ablation.variant) ->
      check_int "18 configs each" 18 (List.length v.Harness.Ablation.configs))
    variants

let test_ablation_replay_reduces () =
  let outcome = Harness.Campaign.run ~budget:40 ~seed:777 Harness.Approach.Llm4fp in
  let cases = outcome.Harness.Campaign.cases in
  let replay name =
    let v =
      List.find
        (fun (v : Harness.Ablation.variant) -> v.Harness.Ablation.name = name)
        (Harness.Ablation.variants ())
    in
    Harness.Ablation.replay v cases
  in
  let rate name = Difftest.Stats.inconsistency_rate (replay name) in
  let full_stats = replay "full" in
  let full = Difftest.Stats.inconsistency_rate full_stats in
  (* Failed-generation slots count in the campaign's rate denominator
     but produce no case, so compare on the inconsistency count: the
     replayed corpus must reproduce every campaign finding. *)
  check_int "full replay reproduces the campaign's inconsistencies"
    (Difftest.Stats.total_inconsistencies outcome.Harness.Campaign.stats)
    (Difftest.Stats.total_inconsistencies full_stats);
  check_bool "removing the cuda libm lowers the rate" true
    (rate "no-cuda-libm" < full);
  check_bool "removing fast math cannot raise the rate much" true
    (rate "no-fastmath" <= full +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Bandit ensemble: arm accounting and the byte-identity drills. *)

let test_bandit_campaign_accounting () =
  let o = Harness.Campaign.run ~budget:30 ~seed:4242 Harness.Approach.Bandit in
  check_int "budget consumed" 30
    (Difftest.Stats.n_programs o.Harness.Campaign.stats);
  match o.Harness.Campaign.bandit with
  | None -> Alcotest.fail "bandit campaign returned no bandit state"
  | Some b ->
    let table = Harness.Bandit.table b in
    check_int "five arms in the table" 5 (List.length table);
    let pulls = List.fold_left (fun acc (_, p, _, _, _) -> acc + p) 0 table in
    check_int "arm pulls sum to the budget" 30 pulls;
    (* a fixed-arm campaign carries no bandit state *)
    check_bool "fixed arms have no bandit" true
      ((campaign Harness.Approach.Llm4fp).Harness.Campaign.bandit = None)

(* ------------------------------------------------------------------ *)
(* Fleet shard invariance: the distributed-campaign acceptance drill.

   For every shard count N the fleet must produce the byte-identical
   chunk tree — outcome signature, per-chunk trace bytes,
   per-chunk archive bytes, merged coverage ledger — because chunks,
   not shards, are the unit of determinism. N=1 is the single-process
   reference. *)

let fleet_budget = 12
let fleet_chunk = 5
let fleet_seed = 20250704

(* Run an N-shard fleet sequentially in-process (the trace sink is
   process-global, so shards take turns) and observe everything the
   drill compares on. *)
let observe_fleet ?(approach = Harness.Approach.Llm4fp) ~root n =
  Util.Durable.mkdir_p root;
  for i = 0 to n - 1 do
    match
      Harness.Fleet.run_shard ~chunk:fleet_chunk ~root
        ~spec:{ Harness.Shard.index = i; count = n }
        ~budget:fleet_budget ~seed:fleet_seed approach
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  match Harness.Fleet.load ~root with
  | Error msg -> Alcotest.fail msg
  | Ok m ->
    let n_chunks = List.length m.Harness.Fleet.chunks in
    let per_chunk f =
      List.init n_chunks (fun k -> f (Harness.Fleet.chunk_dir ~root k))
    in
    ( Harness.Fleet.signature m,
      per_chunk (fun dir -> read_file (Harness.Fleet.trace_path dir)),
      per_chunk (fun dir -> archive_bytes (Harness.Fleet.cases_path dir)),
      Obs.Json.to_string (Obs.Coverage.to_json m.Harness.Fleet.merged_coverage),
      Obs.Json.to_string (Difftest.Stats.to_json m.Harness.Fleet.merged_stats),
      List.map
        (fun c -> Obs.Json.to_string (Difftest.Case.to_json c))
        m.Harness.Fleet.cases )

let test_fleet_shard_invariance () =
  let reference =
    with_tmpdir ~prefix:"llm4fp-fleet-n1" @@ fun root -> observe_fleet ~root 1
  in
  let _, ref_traces, ref_archives, _, _, ref_cases = reference in
  check_bool "reference ran chunks" true (List.length ref_traces > 1);
  check_bool "reference traces non-empty" true
    (List.for_all (fun t -> String.length t > 0) ref_traces);
  check_bool "reference recorded cases" true (List.length ref_cases > 0);
  check_bool "reference archives non-empty" true
    (List.exists (fun a -> a <> []) ref_archives);
  List.iter
    (fun n ->
      let obs =
        with_tmpdir ~prefix:(Printf.sprintf "llm4fp-fleet-n%d" n)
        @@ fun root -> observe_fleet ~root n
      in
      check_bool
        (Printf.sprintf
           "N=%d fleet byte-identical to single-process reference" n)
        true (obs = reference))
    [ 2; 4 ]

(* The same drill at the bandit approach: each chunk runs its own arm
   stream seeded from the chunk seed, so shard count must not move a
   draw anywhere in the tree. *)
let test_fleet_bandit_invariance () =
  let observe n =
    with_tmpdir ~prefix:(Printf.sprintf "llm4fp-fleet-bandit-n%d" n)
    @@ fun root -> observe_fleet ~approach:Harness.Approach.Bandit ~root n
  in
  let reference = observe 1 in
  let _, ref_traces, _, _, _, _ = reference in
  check_bool "bandit reference traces non-empty" true
    (List.for_all (fun t -> String.length t > 0) ref_traces);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf
           "N=%d bandit fleet byte-identical to single-process reference" n)
        true
        (observe n = reference))
    [ 3 ]

(* The partition itself: shard slices are pairwise disjoint and jointly
   exhaustive over the budget, at every N. *)
let test_shard_partition () =
  let budget = 103 and seed = 42 in
  let plan = Harness.Shard.plan ~chunk:7 ~budget ~seed () in
  List.iter
    (fun n ->
      let slices =
        List.init n (fun i ->
            Harness.Shard.assigned { Harness.Shard.index = i; count = n } plan)
      in
      let slots =
        List.concat_map (List.concat_map Harness.Shard.slots) slices
      in
      check_int
        (Printf.sprintf "N=%d jointly exhaustive" n)
        budget (List.length slots);
      let sorted = List.sort_uniq compare slots in
      check_bool
        (Printf.sprintf "N=%d pairwise disjoint" n)
        true
        (List.length sorted = budget
        && sorted = List.init budget (fun i -> i + 1)))
    [ 1; 2; 3; 4; 5 ];
  (* chunk seeds are derived per chunk, independent of N *)
  let seeds = List.map (fun s -> s.Harness.Shard.seed) plan in
  check_int "one derived seed per chunk" (List.length plan)
    (List.length (List.sort_uniq compare seeds))

let () =
  Alcotest.run "harness"
    [
      ( "campaign",
        [
          Alcotest.test_case "accounting" `Slow test_campaign_accounting;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_campaign_seed_sensitivity;
          Alcotest.test_case "varity no llm" `Quick test_varity_no_llm;
          Alcotest.test_case "llm latency" `Quick test_llm_has_latency;
          Alcotest.test_case "feedback set" `Quick test_feedback_set_only_llm4fp;
          Alcotest.test_case "approach names" `Quick test_approach_names;
          Alcotest.test_case "time model" `Quick test_time_model_monotonic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "tables render" `Slow test_tables_render;
          Alcotest.test_case "table1 config" `Quick test_table1_is_configuration;
          Alcotest.test_case "table2 approaches" `Slow test_table2_mentions_all_approaches;
          Alcotest.test_case "table5 pairs" `Slow test_table5_has_pairs;
          Alcotest.test_case "table6 within" `Slow test_table6_within_compilers;
          Alcotest.test_case "outcome accessor" `Slow test_outcome_accessor;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "suite byte-identical across jobs" `Slow
            test_parallel_suite_byte_identical;
        ] );
      ( "bandit",
        [
          Alcotest.test_case "arm accounting" `Slow
            test_bandit_campaign_accounting;
          Alcotest.test_case "fleet shard invariance" `Slow
            test_fleet_bandit_invariance;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fleet shard invariance" `Slow
            test_fleet_shard_invariance;
          Alcotest.test_case "shard partition laws" `Quick
            test_shard_partition;
          Alcotest.test_case "vm matches tree over a campaign" `Slow
            test_vm_matches_tree_over_campaign;
        ] );
      ( "precision",
        [
          Alcotest.test_case "fp32 llm4fp" `Slow test_fp32_campaign;
          Alcotest.test_case "fp32 varity" `Quick test_fp32_varity_campaign;
        ] );
      ( "stability",
        [
          Alcotest.test_case "seed table renders" `Slow (fun () ->
              let t =
                Harness.Experiments.seed_stability ~budget:20 ~seeds:[ 1; 2 ] ()
              in
              check_bool "mentions approaches" true
                (Util.Text.contains_sub t "LLM4FP"
                && Util.Text.contains_sub t "mean"));
        ] );
      ( "ablation",
        [
          Alcotest.test_case "variants shape" `Quick test_ablation_variants_shape;
          Alcotest.test_case "replay semantics" `Slow test_ablation_replay_reduces;
        ] );
    ]
