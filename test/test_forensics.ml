(* Tests for the forensics layer: case fingerprints, the flight-recorder
   archive, explain's bit-exact replay, percentile math, and the golden
   dashboard. *)

open Helpers

let gcc = Compiler.Personality.Gcc
let nvcc = Compiler.Personality.Nvcc

let sample_case () =
  {
    Difftest.Case.kind = Difftest.Case.Cross;
    left =
      {
        Difftest.Case.config =
          Compiler.Config.make gcc Compiler.Optlevel.O3;
        hex = "3ff0000000000000";
        class_ = Fp.Bits.Real;
      };
    right =
      {
        Difftest.Case.config =
          Compiler.Config.make nvcc Compiler.Optlevel.O3;
        hex = "3ff0000000000001";
        class_ = Fp.Bits.Real;
      };
    level = Compiler.Optlevel.O3;
    digits = 16;
    source = "void compute(double x) { printf(\"%.17g\\n\", x); }\n";
    inputs =
      [ Irsim.Inputs.Fp 1.5; Irsim.Inputs.Int 3;
        Irsim.Inputs.Arr [| 0.5; -0.25 |] ];
    seed = 1;
    slot = 2;
  }

(* The constant below is the fingerprint of [sample_case] as computed by
   a separate process: FNV-1a is implemented over explicitly serialized
   bytes, so the value must never drift across runs, processes, or
   architectures. If this test starts failing, the archive format has
   changed and every stored case file is invalidated. *)
let test_fingerprint_stable () =
  check_string "pinned fingerprint" "68de3afb36f4ed70"
    (Difftest.Case.fingerprint (sample_case ()))

let test_fingerprint_ignores_provenance () =
  let base = sample_case () in
  let moved = { base with Difftest.Case.seed = 99; slot = 77 } in
  check_string "provenance-free"
    (Difftest.Case.fingerprint base)
    (Difftest.Case.fingerprint moved);
  let other_bits =
    {
      base with
      Difftest.Case.right =
        { base.Difftest.Case.right with Difftest.Case.hex = "3ff0000000000002" };
    }
  in
  check_bool "output bits are identity" false
    (Difftest.Case.fingerprint base = Difftest.Case.fingerprint other_bits)

let test_case_json_roundtrip () =
  let case = sample_case () in
  let line = Obs.Json.to_string (Difftest.Case.to_json case) in
  match Obs.Json.parse line with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok json -> begin
    match Difftest.Case.of_json json with
    | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
    | Ok decoded ->
      check_bool "round-trips" true (decoded = case);
      check_string "fingerprint preserved"
        (Difftest.Case.fingerprint case)
        (Difftest.Case.fingerprint decoded)
  end

let test_case_json_integrity () =
  let case = sample_case () in
  let json = Difftest.Case.to_json case in
  let tampered =
    match json with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "digits" then (k, Obs.Json.Int 3) else (k, v))
           fields)
    | _ -> Alcotest.fail "case JSON is not an object"
  in
  (match Difftest.Case.of_json tampered with
  | Ok _ -> ()  (* digits is not part of the hash *)
  | Error msg -> Alcotest.fail ("digits tamper should decode: " ^ msg));
  let tampered_hex =
    match json with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "left" then
               match v with
               | Obs.Json.Obj side ->
                 ( k,
                   Obs.Json.Obj
                     (List.map
                        (fun (sk, sv) ->
                          if sk = "hex" then
                            (sk, Obs.Json.String "4000000000000000")
                          else (sk, sv))
                        side) )
               | _ -> (k, v)
             else (k, v))
           fields)
    | _ -> assert false
  in
  match Difftest.Case.of_json tampered_hex with
  | Ok _ -> Alcotest.fail "tampered output bits decoded"
  | Error msg -> check_bool "names the mismatch" true (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Recorder *)

let test_recorder_dedup () =
  with_tmpdir ~prefix:"llm4fp-recorder" @@ fun dir ->
  let r = Difftest.Recorder.create ~dir in
  let case = sample_case () in
  check_bool "first is new" true (Difftest.Recorder.record r case);
  check_bool "second is duplicate" false (Difftest.Recorder.record r case);
  check_int "one recorded" 1 (Difftest.Recorder.count r);
  check_int "one duplicate" 1 (Difftest.Recorder.duplicates r);
  (* a fresh recorder over the same directory seeds its dedup set from
     the existing files *)
  let r2 = Difftest.Recorder.create ~dir in
  check_bool "persisted dedup" false (Difftest.Recorder.record r2 case);
  check_int "nothing re-recorded" 0 (Difftest.Recorder.count r2);
  match Difftest.Recorder.load_dir dir with
  | Error msg -> Alcotest.fail msg
  | Ok cases ->
    check_int "archive holds one case" 1 (List.length cases);
    check_bool "loaded equals recorded" true (List.hd cases = case)

(* A truncated archive file — half a JSON line, as a torn non-atomic
   write would leave behind — must load as a useful [Error] naming the
   file, never an exception. (The recorder's own writes are atomic
   temp+rename, so this guards against foreign corruption.) *)
let test_load_truncated () =
  with_tmpdir ~prefix:"llm4fp-truncated" @@ fun dir ->
  let r = Difftest.Recorder.create ~dir in
  let case = sample_case () in
  ignore (Difftest.Recorder.record r case);
  let path = Filename.concat dir (Difftest.Case.fingerprint case ^ ".jsonl") in
  let whole = read_file path in
  let rewrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  rewrite (String.sub whole 0 (String.length whole / 2));
  (match Difftest.Recorder.load_file path with
  | Ok _ -> Alcotest.fail "truncated case file decoded"
  | Error msg ->
    check_bool "error names the file" true
      (String.length msg > 0
      && String.starts_with ~prefix:path msg));
  (match Difftest.Recorder.load_dir dir with
  | Ok _ -> Alcotest.fail "archive with a truncated member loaded"
  | Error _ -> ());
  rewrite "";
  match Difftest.Recorder.load_file path with
  | Ok _ -> Alcotest.fail "empty case file decoded"
  | Error msg -> check_bool "empty file named" true (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* A recorded campaign *)

let archive_of ~dir =
  let recorder = Difftest.Recorder.create ~dir in
  let outcome =
    Harness.Campaign.run ~budget:15 ~recorder ~seed:20250704
      Harness.Approach.Llm4fp
  in
  (recorder, outcome)

(* ------------------------------------------------------------------ *)
(* Explain: replay must reproduce the archived bits exactly *)

let test_replay_reproduces () =
  with_tmpdir ~prefix:"llm4fp-replay" @@ fun dir ->
  let _, _ = archive_of ~dir in
  match Difftest.Recorder.load_dir dir with
  | Error msg -> Alcotest.fail msg
  | Ok [] -> Alcotest.fail "archive is empty"
  | Ok cases ->
    List.iter
      (fun case ->
        match Forensics.Explain.replay case with
        | Error msg -> Alcotest.fail ("replay failed: " ^ msg)
        | Ok outcome ->
          check_bool "bit-exact reproduction" true
            outcome.Forensics.Explain.reproduced;
          (match outcome.Forensics.Explain.verdict with
          | Ok (Isolate.Isolated set) ->
            check_bool "non-empty statement set" true (set <> [])
          | Ok Isolate.Runtime_divergence -> ()
          | Ok Isolate.No_inconsistency ->
            Alcotest.fail "archived case replays as consistent"
          | Error msg -> Alcotest.fail ("isolation failed: " ^ msg));
          let report = Forensics.Explain.render outcome in
          check_bool "report shows reproduction" true
            (String.length report > 0))
      cases

let test_explain_load () =
  with_tmpdir ~prefix:"llm4fp-load" @@ fun dir ->
  let r = Difftest.Recorder.create ~dir in
  let case = sample_case () in
  ignore (Difftest.Recorder.record r case);
  let fp = Difftest.Case.fingerprint case in
  (match Forensics.Explain.load ~dir fp with
  | Ok loaded -> check_bool "by fingerprint" true (loaded = case)
  | Error msg -> Alcotest.fail msg);
  (match Forensics.Explain.load (Filename.concat dir (fp ^ ".jsonl")) with
  | Ok loaded -> check_bool "by path" true (loaded = case)
  | Error msg -> Alcotest.fail msg);
  match Forensics.Explain.load ~dir "0123456789abcdef" with
  | Ok _ -> Alcotest.fail "resolved a missing fingerprint"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Percentile math *)

let test_percentiles () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* a range spanning the finite buckets, so the first bucket starts at 0
     and the overflow bucket ends at the last finite bound *)
  let p counts q = Obs.Metrics.percentile_of ~range:(0.0, 4.0) ~bounds ~counts q in
  (* 2 observations <=1, 2 in (1,2] *)
  let counts = [| 2; 2; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 1.0 (p counts 0.50);
  Alcotest.(check (float 1e-9)) "p75 in second bucket" 1.5 (p counts 0.75);
  Alcotest.(check (float 1e-9)) "p100 tops out" 2.0 (p counts 1.0);
  (* the overflow bucket ends at the range's maximum *)
  Alcotest.(check (float 1e-9)) "overflow clamps" 4.0 (p [| 0; 0; 0; 5 |] 0.99);
  check_bool "empty is nan" true (Float.is_nan (p [| 0; 0; 0; 0 |] 0.5));
  (match p counts 0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q=0 accepted");
  (* the observed range clamps the edges: the first bucket starts at the
     smallest observation, the others end at the largest, and the
     overflow bucket interpolates up to it *)
  let clamped range counts q = Obs.Metrics.percentile_of ~range ~bounds ~counts q in
  Alcotest.(check (float 1e-9)) "first bucket from the minimum" 0.9
    (clamped (0.8, 1.5) [| 2; 2; 0; 0 |] 0.25);
  Alcotest.(check (float 1e-9)) "p100 at the maximum" 1.5
    (clamped (0.8, 1.5) [| 2; 2; 0; 0 |] 1.0);
  Alcotest.(check (float 1e-9)) "overflow up to the maximum" 6.0
    (clamped (5.0, 6.0) [| 0; 0; 0; 5 |] 1.0);
  (* registry-level accessor agrees *)
  let h = Obs.Metrics.histogram ~buckets:bounds "test.forensics.h" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 0.5; 1.5; 1.5 ];
  Alcotest.(check (float 1e-9)) "histogram_percentile" 1.0
    (Obs.Metrics.histogram_percentile h 0.50)

(* ------------------------------------------------------------------ *)
(* Experiments sections: CSV view next to the text view *)

let test_sections_csv () =
  let suite = Harness.Experiments.run_suite ~budget:6 ~seed:20250704 () in
  let sections = Harness.Experiments.sections suite in
  let names =
    List.map (fun (s : Harness.Experiments.section) -> s.Harness.Experiments.name) sections
  in
  check_bool "paper order" true
    (names
    = [ "summary"; "table1"; "table2"; "table3"; "figure3"; "table4";
        "table5"; "table6"; "features"; "bandit" ]);
  let by_name n =
    List.find
      (fun (s : Harness.Experiments.section) -> s.Harness.Experiments.name = n)
      sections
  in
  check_bool "summary has no CSV" true
    ((by_name "summary").Harness.Experiments.csv = None);
  (match (by_name "table2").Harness.Experiments.csv with
  | None -> Alcotest.fail "table2 has no CSV"
  | Some csv ->
    let first = List.hd (String.split_on_char '\n' csv) in
    check_string "CSV header" "Approach,Incons. Rate,# Incons.,Time Cost"
      first)

(* ------------------------------------------------------------------ *)
(* Golden dashboard: fixed-seed mini-campaign, byte-compared against the
   committed HTML. Regenerate with:
     dune exec bin/llm4fp.exe -- campaign llm4fp -b 12 -s 20250704 --record DIR
     dune exec bin/llm4fp.exe -- dashboard DIR --html test/golden/dashboard.html --title golden *)

let test_golden_dashboard () =
  with_tmpdir ~prefix:"llm4fp-golden" @@ fun dir ->
  let recorder = Difftest.Recorder.create ~dir in
  ignore
    (Harness.Campaign.run ~budget:12 ~recorder ~seed:20250704
       Harness.Approach.Llm4fp);
  match Difftest.Recorder.load_dir dir with
  | Error msg -> Alcotest.fail msg
  | Ok cases ->
    let analytics =
      Report.Analytics.build (List.map Difftest.Case.to_analytics cases)
    in
    let html = Report.Analytics.render_html ~title:"golden" analytics in
    check_golden "dashboard" ~golden:"golden/dashboard.html" html

let () =
  Alcotest.run "forensics"
    [
      ( "case",
        [
          Alcotest.test_case "fingerprint stable" `Quick
            test_fingerprint_stable;
          Alcotest.test_case "fingerprint ignores provenance" `Quick
            test_fingerprint_ignores_provenance;
          Alcotest.test_case "json roundtrip" `Quick test_case_json_roundtrip;
          Alcotest.test_case "json integrity" `Quick test_case_json_integrity;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "dedup" `Quick test_recorder_dedup;
          Alcotest.test_case "truncated file rejected" `Quick
            test_load_truncated;
        ] );
      ( "explain",
        [
          Alcotest.test_case "replay reproduces" `Slow test_replay_reproduces;
          Alcotest.test_case "load resolves references" `Quick
            test_explain_load;
        ] );
      ( "analytics",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "sections csv" `Slow test_sections_csv;
          Alcotest.test_case "golden dashboard" `Slow test_golden_dashboard;
        ] );
    ]
