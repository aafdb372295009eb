(* Tests for lib/difftest: differential testing and statistics. *)

open Helpers

(* A program designed to diverge: a chaotic recurrence seeded by a
   transcendental, so the CUDA libm's ulp divergence amplifies. *)
let chaotic = {|
void compute(double r, double x0) {
  double comp = 0.0;
  double rate = 3.7 + 0.2 * sin(r);
  double x = 0.2 + 0.6 * fabs(sin(x0));
  for (int i = 0; i < 48; ++i) {
    x = rate * x * (1.0 - x);
  }
  comp = x;
}
|}

(* A program that cannot diverge anywhere: a single addition. *)
let inert = "void compute(double x, double y) { double comp = 0.0; comp = x + y; }"

let test_comparison_counts () =
  let result = Difftest.Run.test (parse inert) Irsim.Inputs.[ Fp 1.0; Fp 2.0 ] in
  check_int "18 configurations" 18 (List.length result.Difftest.Run.outputs);
  check_int "no failures" 0 (List.length result.Difftest.Run.failures);
  check_int "18 cross comparisons" 18 (List.length result.Difftest.Run.cross);
  check_int "15 within comparisons" 15 (List.length result.Difftest.Run.within)

let test_inert_program_consistent () =
  let result = Difftest.Run.test (parse inert) Irsim.Inputs.[ Fp 1.5; Fp 2.5 ] in
  check_int "no inconsistencies" 0 (Difftest.Run.cross_inconsistencies result);
  check_bool "not successful" false (Difftest.Run.has_inconsistency result)

let test_chaotic_program_diverges () =
  (* sweep seeds until the libm divergence fires (probability ~0.9 per
     seed with two sin calls at p=0.45) *)
  let rng = Util.Rng.of_int 77 in
  let found = ref false in
  let max_digits = ref 0 in
  for _ = 1 to 10 do
    let inputs =
      Irsim.Inputs.[ Fp (Util.Rng.float_in rng (-5.0) 5.0);
                     Fp (Util.Rng.float_in rng (-5.0) 5.0) ]
    in
    let result = Difftest.Run.test (parse chaotic) inputs in
    if Difftest.Run.has_inconsistency result then begin
      found := true;
      List.iter
        (fun (_, (c : Difftest.Run.comparison)) ->
          max_digits := max !max_digits c.Difftest.Run.digits)
        result.Difftest.Run.cross
    end
  done;
  check_bool "divergence found" true !found;
  (* chaos amplifies a seed-value ulp into most printed digits *)
  check_bool "heavily amplified somewhere" true (!max_digits >= 10)

let test_comparison_fields () =
  let result = Difftest.Run.test (parse inert) Irsim.Inputs.[ Fp 0.5; Fp 0.25 ] in
  List.iter
    (fun ((a, b), (c : Difftest.Run.comparison)) ->
      check_bool "pair ordered" true (a < b);
      check_bool "same level compared" true
        (c.Difftest.Run.left.Difftest.Run.config.Compiler.Config.level
        = c.Difftest.Run.right.Difftest.Run.config.Compiler.Config.level);
      check_bool "consistent means zero digits" true
        (c.Difftest.Run.inconsistent || c.Difftest.Run.digits = 0))
    result.Difftest.Run.cross

let test_within_baseline_is_nofma () =
  let result = Difftest.Run.test (parse inert) Irsim.Inputs.[ Fp 0.5; Fp 0.25 ] in
  List.iter
    (fun (_, (c : Difftest.Run.comparison)) ->
      check_bool "left side at 00_nofma" true
        (c.Difftest.Run.left.Difftest.Run.config.Compiler.Config.level
        = Compiler.Optlevel.O0_nofma);
      check_bool "right side labelled" true
        (c.Difftest.Run.level <> Compiler.Optlevel.O0_nofma))
    result.Difftest.Run.within

(* ------------------------------------------------------------------ *)
(* Stats *)

let run_one stats src inputs =
  Difftest.Stats.add stats (Difftest.Run.test (parse src) inputs)

let test_stats_denominators () =
  let stats = Difftest.Stats.create () in
  run_one stats inert Irsim.Inputs.[ Fp 1.0; Fp 2.0 ];
  run_one stats inert Irsim.Inputs.[ Fp 3.0; Fp 4.0 ];
  Difftest.Stats.add_generation_failure stats;
  check_int "programs include failures" 3 (Difftest.Stats.n_programs stats);
  check_int "total comparisons" (3 * 18) (Difftest.Stats.total_comparisons stats);
  check_int "performed excludes failures" (2 * 18)
    (Difftest.Stats.performed_comparisons stats);
  check_int "within denominator" (3 * 15) (Difftest.Stats.within_comparisons stats);
  check_int "compile failures" 1 (Difftest.Stats.compile_failures stats)

let test_stats_rate () =
  let stats = Difftest.Stats.create () in
  run_one stats inert Irsim.Inputs.[ Fp 1.0; Fp 2.0 ];
  Alcotest.(check (float 1e-9)) "zero rate" 0.0
    (Difftest.Stats.inconsistency_rate stats);
  check_int "zero total" 0 (Difftest.Stats.total_inconsistencies stats)

let test_stats_aggregation_with_divergence () =
  let stats = Difftest.Stats.create () in
  let rng = Util.Rng.of_int 78 in
  for _ = 1 to 10 do
    let inputs =
      Irsim.Inputs.[ Fp (Util.Rng.float_in rng (-5.0) 5.0);
                     Fp (Util.Rng.float_in rng (-5.0) 5.0) ]
    in
    run_one stats chaotic inputs
  done;
  let total = Difftest.Stats.total_inconsistencies stats in
  check_bool "divergences found" true (total > 0);
  (* cross counts per pair/level sum to the total *)
  let sum = ref 0 in
  List.iteri
    (fun pair _ ->
      Array.iter
        (fun level ->
          sum := !sum + Difftest.Stats.cross_count stats ~pair ~level)
        Compiler.Optlevel.all)
    Compiler.Personality.pairs;
  check_int "cell sum = total" total !sum;
  (* pair totals likewise *)
  let pair_sum =
    List.fold_left ( + ) 0
      (List.mapi (fun pair _ -> Difftest.Stats.pair_total stats ~pair)
         Compiler.Personality.pairs)
  in
  check_int "pair totals sum" total pair_sum;
  (* class pairs: all inconsistencies are classified *)
  let class_sum =
    List.fold_left
      (fun acc pair -> acc + Difftest.Stats.class_pair_count stats pair)
      0 (Difftest.Stats.class_pairs_present stats)
  in
  check_int "classes cover all" total class_sum;
  (* digit accumulators align with counts *)
  List.iteri
    (fun pair _ ->
      Array.iter
        (fun level ->
          check_int "digit acc count matches"
            (Difftest.Stats.cross_count stats ~pair ~level)
            (Fp.Digits.Acc.count (Difftest.Stats.cross_digits stats ~pair ~level)))
        Compiler.Optlevel.all)
    Compiler.Personality.pairs

let test_stats_class_filter_by_level () =
  let stats = Difftest.Stats.create () in
  let rng = Util.Rng.of_int 79 in
  for _ = 1 to 5 do
    let inputs =
      Irsim.Inputs.[ Fp (Util.Rng.float_in rng (-5.0) 5.0);
                     Fp (Util.Rng.float_in rng (-5.0) 5.0) ]
    in
    run_one stats chaotic inputs
  done;
  let rr = (Fp.Bits.Real, Fp.Bits.Real) in
  let total = Difftest.Stats.class_pair_count stats rr in
  let by_level =
    Array.fold_left
      (fun acc level -> acc + Difftest.Stats.class_pair_count stats ~level rr)
      0 Compiler.Optlevel.all
  in
  check_int "level breakdown sums" total by_level

(* Cross-check: Run.test's outputs must equal compiling and running each
   configuration by hand, and running each binary on the reference tree
   interpreter. *)
let test_run_matches_manual_driver () =
  let p = parse chaotic in
  let inputs = Irsim.Inputs.[ Fp 1.25; Fp (-2.5) ] in
  let result = Difftest.Run.test p inputs in
  List.iter
    (fun (o : Difftest.Run.output) ->
      match Compiler.Driver.compile o.Difftest.Run.config p with
      | Error m -> Alcotest.fail m
      | Ok bin ->
        Alcotest.(check string) "hex agrees with manual compile+run"
          (Compiler.Driver.run_hex bin inputs)
          o.Difftest.Run.hex;
        let tree =
          Irsim.Interp.run
            (Compiler.Config.runtime bin.Compiler.Driver.config)
            bin.Compiler.Driver.ir inputs
        in
        Alcotest.(check string) "hex agrees with the tree interpreter"
          (Fp.Bits.hex_of_double tree.Irsim.Interp.result)
          o.Difftest.Run.hex)
    result.Difftest.Run.outputs

let test_run_idempotent () =
  let p = parse chaotic in
  let inputs = Irsim.Inputs.[ Fp 0.5; Fp 3.25 ] in
  let hexes r =
    List.map (fun (o : Difftest.Run.output) -> o.Difftest.Run.hex)
      r.Difftest.Run.outputs
  in
  check_bool "two runs identical" true
    (hexes (Difftest.Run.test p inputs) = hexes (Difftest.Run.test p inputs))

let test_custom_config_list () =
  let p = parse inert in
  let configs =
    [ Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0;
      Compiler.Config.make Compiler.Personality.Clang Compiler.Optlevel.O0 ]
  in
  let r = Difftest.Run.test ~configs p Irsim.Inputs.[ Fp 1.0; Fp 2.0 ] in
  check_int "two outputs" 2 (List.length r.Difftest.Run.outputs);
  check_int "one comparable pair-level cell" 1 (List.length r.Difftest.Run.cross);
  check_int "no within pairs without baselines" 0
    (List.length r.Difftest.Run.within)

(* Executing 18 back-end outputs dedups to one run per distinct
   (post-pipeline IR, runtime) key; the metrics record the split. *)
let test_exec_dedup_metrics () =
  let hits = Obs.Metrics.counter "exec.dedup.hits" in
  let misses = Obs.Metrics.counter "exec.dedup.misses" in
  let h0 = Obs.Metrics.counter_value hits in
  let m0 = Obs.Metrics.counter_value misses in
  ignore (Difftest.Run.test (parse chaotic) Irsim.Inputs.[ Fp 1.0; Fp 2.0 ]);
  let dh = Obs.Metrics.counter_value hits - h0 in
  let dm = Obs.Metrics.counter_value misses - m0 in
  check_int "every output either hit or missed" 18 (dh + dm);
  check_bool "some configurations share an execution" true (dh > 0);
  check_bool "at least one distinct execution" true (dm > 0)

(* Only ablation matrices give a device binary the host's runtime; such a
   binary must share its execution class with the host binaries of equal
   (IR, runtime), so the dedup split still counts one miss per class
   under [Stdlib.compare], across both targets. *)
let test_exec_dedup_across_targets () =
  let configs =
    (List.find
       (fun (v : Harness.Ablation.variant) -> v.name = "no-cuda-libm")
       (Harness.Ablation.variants ()))
      .configs
  in
  let p = parse chaotic in
  let binaries =
    List.filter_map
      (function Either.Left (_, b) -> Some b | Either.Right _ -> None)
      (Compiler.Driver.matrix ~configs p)
  in
  let pair (b : Compiler.Driver.binary) =
    (b.ir, Compiler.Config.runtime b.config)
  in
  let classes =
    List.fold_left
      (fun acc b ->
        if List.exists (fun k -> compare k (pair b) = 0) acc then acc
        else pair b :: acc)
      [] binaries
  in
  List.iter
    (fun (a : Compiler.Driver.binary) ->
      List.iter
        (fun (b : Compiler.Driver.binary) ->
          check_bool "one class exactly when the pairs are equal"
            (compare (pair a) (pair b) = 0)
            (Compiler.Driver.same_exec_class a b))
        binaries)
    binaries;
  check_bool "a device binary shares a host binary's class" true
    (List.exists
       (fun (d : Compiler.Driver.binary) ->
         d.config.personality = Compiler.Personality.Nvcc
         && List.exists
              (fun (h : Compiler.Driver.binary) ->
                Compiler.Personality.is_host h.config.personality
                && Compiler.Driver.same_exec_class d h)
              binaries)
       binaries);
  let misses = Obs.Metrics.counter "exec.dedup.misses" in
  let m0 = Obs.Metrics.counter_value misses in
  ignore (Difftest.Run.test ~configs p Irsim.Inputs.[ Fp 1.0; Fp 2.0 ]);
  check_int "one execution per class" (List.length classes)
    (Obs.Metrics.counter_value misses - m0)

let test_pair_index () =
  check_int "gcc-clang first" 0
    (Difftest.Stats.pair_index (Compiler.Personality.Gcc, Compiler.Personality.Clang));
  check_int "clang-nvcc last" 2
    (Difftest.Stats.pair_index (Compiler.Personality.Clang, Compiler.Personality.Nvcc))

(* coverage_keys projects exactly the inconsistent comparisons, with
   rendered names the ledger can key on *)
let test_coverage_keys () =
  let consistent =
    Difftest.Run.test (parse inert) Irsim.Inputs.[ Fp 1.0; Fp 2.0 ]
  in
  check_bool "inert program projects no keys" true
    (Difftest.Run.coverage_keys consistent = []);
  let rng = Util.Rng.of_int 77 in
  let divergent = ref None in
  for _ = 1 to 10 do
    let inputs =
      Irsim.Inputs.[ Fp (Util.Rng.float_in rng (-5.0) 5.0);
                     Fp (Util.Rng.float_in rng (-5.0) 5.0) ]
    in
    let result = Difftest.Run.test (parse chaotic) inputs in
    if !divergent = None && Difftest.Run.has_inconsistency result then
      divergent := Some result
  done;
  match !divergent with
  | None -> Alcotest.fail "chaotic program never diverged"
  | Some result ->
    let keys = Difftest.Run.coverage_keys result in
    let inconsistent =
      List.length
        (List.filter (fun (_, (c : Difftest.Run.comparison)) ->
             c.Difftest.Run.inconsistent)
           result.Difftest.Run.cross)
      + List.length
          (List.filter (fun (_, (c : Difftest.Run.comparison)) ->
               c.Difftest.Run.inconsistent)
             result.Difftest.Run.within)
    in
    check_int "one key per inconsistent comparison" inconsistent
      (List.length keys);
    List.iter
      (fun (k : Obs.Coverage.key) ->
        check_bool "kind is cross or within" true
          (k.Obs.Coverage.kind = "cross" || k.Obs.Coverage.kind = "within");
        check_bool "classes rendered as a pair label" true
          (String.length k.Obs.Coverage.classes > 0
          && k.Obs.Coverage.classes.[0] = '{'))
      keys

(* One pass in configuration order: even through a plain sink, which
   reorders nothing, each configuration's Compiled event is followed
   directly by its Executed event, and the 18 pairs come before the
   comparison events. *)
let test_trace_order_plain_sink () =
  let sink, events = Obs.Sink.ring ~capacity:256 () in
  Obs.Trace.with_sink sink (fun () ->
      ignore
        (Difftest.Run.test (parse chaotic) Irsim.Inputs.[ Fp 0.7; Fp 0.3 ]));
  let seen =
    List.map (fun ev -> (Obs.Event.name ev, Obs.Event.config ev)) (events ())
  in
  let pairs =
    List.concat_map
      (fun c ->
        let name = Some (Compiler.Config.name c) in
        [ ("compiled", name); ("executed", name) ])
      (Compiler.Config.all ())
  in
  check_int "36 compile/execute events" 36 (List.length pairs);
  check_bool "compiled then executed per configuration, in order" true
    (List.filteri (fun i _ -> i < 36) seen = pairs);
  check_bool "then the inconsistencies and one compared" true
    (match List.rev (List.filteri (fun i _ -> i >= 36) seen) with
    | ("compared", None) :: earlier ->
      List.for_all (fun (kind, _) -> kind = "inconsistency_found") earlier
    | _ -> false)

(* Every digit difference is an integer from 1 to 16, so the histogram's
   percentile estimates must lie there too: clamped to the observed range,
   the first bucket no longer starts at 0 and the last one no longer ends
   at its bound of 17. *)
let test_digit_percentiles () =
  Obs.Metrics.reset ();
  ignore (Harness.Campaign.run ~budget:200 ~seed:1 Harness.Approach.Llm4fp);
  match List.assoc_opt "difftest.digit_diffs" (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Histogram { bounds; counts; count; lo; hi; _ }) ->
    check_bool "observed" true (count > 0);
    List.iter
      (fun q ->
        let v = Obs.Metrics.percentile_of ~range:(lo, hi) ~bounds ~counts q in
        check_bool (Printf.sprintf "p%g = %g in [1, 16]" (100. *. q) v) true
          (v >= 1.0 && v <= 16.0))
      [ 0.50; 0.95; 0.99 ]
  | _ -> Alcotest.fail "no digit-difference histogram"

(* ------------------------------------------------------------------ *)
(* The admitted front end *)

(* Everything a result reports, as text: outputs (value bits, hex, ops,
   work), failures, and both comparison families. *)
let result_text (r : Difftest.Run.result) =
  let b = Buffer.create 4096 in
  let output (o : Difftest.Run.output) =
    Printf.bprintf b "%s %Lx %s %d %d\n"
      (Compiler.Config.name o.config) (Int64.bits_of_float o.value) o.hex
      o.ops o.work
  in
  let comparison (c : Difftest.Run.comparison) =
    Printf.bprintf b "%s %s %s %s %b %s %s %d\n"
      (Compiler.Optlevel.name c.level)
      (Compiler.Config.name c.left.config) c.left.hex c.right.hex
      c.inconsistent
      (Fp.Bits.class_name c.class_left) (Fp.Bits.class_name c.class_right)
      c.digits
  in
  List.iter output r.outputs;
  List.iter
    (fun ((c : Compiler.Config.t), msg) ->
      Printf.bprintf b "failed %s: %s\n" (Compiler.Config.name c) msg)
    r.failures;
  List.iter (fun (_, c) -> comparison c) r.cross;
  List.iter (fun (_, c) -> comparison c) r.within;
  Printf.bprintf b "%d %d\n" r.total_work r.total_ops;
  Buffer.contents b

let admit_exn source =
  match Compiler.Driver.admit source with
  | Ok a -> a
  | Error (`Parse msg | `Validate msg) -> Alcotest.fail msg

(* Every program of 25-slot campaigns of each LLM approach, at both
   precisions, admitted from its host unit as the campaign admitted its
   response: the admitted front end gives the parse path's result. *)
let test_admitted_equals_parse () =
  List.iter
    (fun precision ->
      List.iter
        (fun approach ->
          let o = Harness.Campaign.run ~budget:25 ~precision ~seed:23 approach in
          check_bool "campaign kept cases" true (o.Harness.Campaign.cases <> []);
          List.iter
            (fun (p, inputs) ->
              let a = admit_exn (Lang.Pp.to_c p) in
              let q = Compiler.Driver.admitted_program a in
              check_string (Harness.Approach.name approach)
                (result_text (Difftest.Run.test p inputs))
                (result_text (Difftest.Run.test ~admitted:a q inputs)))
            o.Harness.Campaign.cases)
        Harness.Approach.[ Direct_prompt; Grammar_guided; Llm4fp ])
    [ Lang.Ast.F64; Lang.Ast.F32 ]

(* A source that admits but does not re-print byte for byte (a comment,
   a blank line) takes the parse path: every configuration gets the
   binary it gets without an admission. *)
let test_admitted_reprint_differs () =
  let p = parse chaotic in
  let unit = Lang.Pp.to_c p in
  List.iter
    (fun source ->
      let a = admit_exn source in
      let q = Compiler.Driver.admitted_program a in
      check_bool "re-prints differently" true (Lang.Pp.to_c q <> source);
      let plain = Compiler.Driver.fronts q
      and admitted = Compiler.Driver.fronts ~admitted:a q in
      List.iter
        (fun config ->
          match
            ( Compiler.Driver.compile_with plain config,
              Compiler.Driver.compile_with admitted config )
          with
          | Ok x, Ok y ->
            let name = Compiler.Config.name config in
            check_string (name ^ " unit") x.Compiler.Driver.source y.source;
            check_int (name ^ " work") x.work y.work;
            check_bool (name ^ " ir") true
              (Irsim.Ir.likeness x.ir y.ir = Irsim.Ir.Identical)
          | _ -> Alcotest.fail "a configuration failed")
        (Compiler.Config.all ()))
    [ "// generated\n" ^ unit; "\n" ^ unit; unit ^ "\n" ]

let test_fronts_rejects_other_program () =
  let a = admit_exn (Lang.Pp.to_c (parse chaotic)) in
  (* structurally equal, physically another program *)
  let other = parse (Lang.Pp.to_c (Compiler.Driver.admitted_program a)) in
  match Compiler.Driver.fronts ~admitted:a other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fronts accepted an admission of another program"

(* A front-end fault is retried and costs only simulated time, on the
   admitted path as on the parse path: the admitted host front end
   passes the fault site and counts its run, and the campaign archives
   the cases of a clean one. *)
let test_frontend_fault_same_cases () =
  let retries = Obs.Metrics.counter "retry.compiler.retries"
  and runs = Obs.Metrics.counter "compiler.frontend.runs" in
  let a = admit_exn (Lang.Pp.to_c (parse chaotic)) in
  let fronts =
    Compiler.Driver.fronts ~admitted:a (Compiler.Driver.admitted_program a)
  in
  let host =
    List.find
      (fun c -> Compiler.Driver.target_of c = `Host)
      (Compiler.Config.all ())
  in
  let retries_before = Obs.Metrics.counter_value retries
  and runs_before = Obs.Metrics.counter_value runs in
  (Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
   (match Exec.Faults.parse "frontend@1:fail" with
    | Ok plan -> Exec.Faults.arm plan
    | Error msg -> Alcotest.fail msg);
   check_bool "admitted host unit compiles" true
     (Result.is_ok (Compiler.Driver.compile_with fronts host)));
  check_int "admitted host front end retried" (retries_before + 1)
    (Obs.Metrics.counter_value retries);
  check_int "admitted host front end counted" (runs_before + 1)
    (Obs.Metrics.counter_value runs);
  let archive faults =
    with_tmpdir ~prefix:"llm4fp-frontend-fault" @@ fun dir ->
    Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
    Option.iter
      (fun spec ->
        match Exec.Faults.parse spec with
        | Ok plan -> Exec.Faults.arm plan
        | Error msg -> Alcotest.fail msg)
      faults;
    let recorder = Difftest.Recorder.create ~dir in
    ignore
      (Harness.Campaign.run ~budget:40 ~recorder ~seed:99 Harness.Approach.Llm4fp);
    archive_bytes dir
  in
  let clean = archive None in
  let before = Obs.Metrics.counter_value retries in
  let faulted = archive (Some "frontend@5:fail") in
  check_bool "the fault fired and was retried" true
    (Obs.Metrics.counter_value retries > before);
  check_bool "cases archived" true (clean <> []);
  check_bool "same cases" true (clean = faulted)

let () =
  Alcotest.run "difftest"
    [
      ( "run",
        [
          Alcotest.test_case "comparison counts" `Quick test_comparison_counts;
          Alcotest.test_case "inert consistent" `Quick test_inert_program_consistent;
          Alcotest.test_case "chaotic diverges" `Quick test_chaotic_program_diverges;
          Alcotest.test_case "comparison fields" `Quick test_comparison_fields;
          Alcotest.test_case "within baseline" `Quick test_within_baseline_is_nofma;
          Alcotest.test_case "matches manual driver" `Quick test_run_matches_manual_driver;
          Alcotest.test_case "idempotent" `Quick test_run_idempotent;
          Alcotest.test_case "custom config list" `Quick test_custom_config_list;
          Alcotest.test_case "exec dedup metrics" `Quick test_exec_dedup_metrics;
          Alcotest.test_case "exec dedup across targets" `Quick
            test_exec_dedup_across_targets;
          Alcotest.test_case "coverage keys" `Quick test_coverage_keys;
          Alcotest.test_case "trace order without a reordering sink" `Quick
            test_trace_order_plain_sink;
        ] );
      ( "admitted",
        [
          Alcotest.test_case "equals the parse path" `Quick
            test_admitted_equals_parse;
          Alcotest.test_case "re-print differs: parse path" `Quick
            test_admitted_reprint_differs;
          Alcotest.test_case "another program rejected" `Quick
            test_fronts_rejects_other_program;
          Alcotest.test_case "front-end fault: same cases" `Quick
            test_frontend_fault_same_cases;
        ] );
      ( "stats",
        [
          Alcotest.test_case "denominators" `Quick test_stats_denominators;
          Alcotest.test_case "rate" `Quick test_stats_rate;
          Alcotest.test_case "aggregation" `Quick test_stats_aggregation_with_divergence;
          Alcotest.test_case "class level filter" `Quick test_stats_class_filter_by_level;
          Alcotest.test_case "pair index" `Quick test_pair_index;
          Alcotest.test_case "digit-difference percentiles" `Quick
            test_digit_percentiles;
        ] );
    ]
