(* Crash-safety tests: atomic durable writes, deterministic fault
   injection, bounded retry, and the headline property — a campaign
   killed at any point and resumed from its last checkpoint finishes
   with the same outcome, the same trace bytes and the same case
   archive as one that never crashed. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Util.Durable *)

let test_write_atomic () =
  with_tmpdir ~prefix:"llm4fp-durable" @@ fun dir ->
  Util.Durable.mkdir_p (Filename.concat dir "a/b/c");
  check_bool "mkdir_p nests" true
    (Sys.is_directory (Filename.concat dir "a/b/c"));
  let path = Filename.concat dir "a/file.txt" in
  Util.Durable.write_string ~path "first";
  check_string "written" "first" (read_file path);
  Util.Durable.write_string ~path "second";
  check_string "replaced" "second" (read_file path);
  (* A writer that dies mid-write must leave the previous content
     intact and no temp litter behind. *)
  (match
     Util.Durable.write_atomic ~path (fun oc ->
         output_string oc "torn";
         failwith "injected")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "failing writer did not raise");
  check_string "old content survives a torn write" "second" (read_file path);
  check_bool "no temp files left" true
    (Array.for_all
       (fun f -> f = "file.txt" || f = "b")
       (Sys.readdir (Filename.dirname path)))

(* ------------------------------------------------------------------ *)
(* Exec.Faults *)

let test_faults_parse () =
  let roundtrip spec =
    match Exec.Faults.parse spec with
    | Error msg -> Alcotest.fail (spec ^ ": " ^ msg)
    | Ok plan -> begin
      match Exec.Faults.parse (Exec.Faults.to_string plan) with
      | Error msg -> Alcotest.fail ("reparse: " ^ msg)
      | Ok plan' -> check_bool ("round-trips: " ^ spec) true (plan = plan')
    end
  in
  roundtrip "";
  roundtrip "llm@3:crash";
  roundtrip "llm@3:crash,frontend@5:fail,exec@10:delay=0.01";
  roundtrip "backend@1:fail,archive@2:crash,checkpoint@7:delay=1.5";
  List.iter
    (fun bad ->
      match Exec.Faults.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed spec: " ^ bad)
      | Error msg -> check_bool "error non-empty" true (String.length msg > 0))
    [ "nosuchstage@1:crash"; "llm@0:crash"; "llm@x:crash"; "llm@1:explode";
      "llm@1"; "llm:crash"; "exec@2:delay=fast" ]

let test_faults_fire_on_exact_hit () =
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  Exec.Faults.arm
    [ { Exec.Faults.stage = Exec.Faults.Execution;
        hit = 2;
        action = Exec.Faults.Fail } ];
  Exec.Faults.inject Exec.Faults.Execution;
  (match Exec.Faults.inject Exec.Faults.Execution with
  | exception Exec.Faults.Transient _ -> ()
  | () -> Alcotest.fail "rule did not fire on its hit");
  Exec.Faults.inject Exec.Faults.Execution;
  (* other stages keep their own counters *)
  Exec.Faults.inject Exec.Faults.Llm_call;
  Exec.Faults.inject Exec.Faults.Llm_call;
  Exec.Faults.inject Exec.Faults.Llm_call

let test_backoff () =
  check_float "attempt 1" 0.25 (Exec.Faults.backoff ~attempt:1);
  check_float "attempt 2" 0.5 (Exec.Faults.backoff ~attempt:2);
  check_float "attempt 3" 1.0 (Exec.Faults.backoff ~attempt:3);
  match Exec.Faults.backoff ~attempt:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 accepted"

(* ------------------------------------------------------------------ *)
(* Retry policies *)

let grammar = Llm.Prompt.Grammar { precision = Lang.Ast.F64 }

let test_llm_retry_transparent () =
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  Exec.Faults.disarm ();
  let clean = Llm.Client.generate (Llm.Client.create ~seed:7 ()) grammar in
  Exec.Faults.arm
    [ { Exec.Faults.stage = Exec.Faults.Llm_call;
        hit = 1;
        action = Exec.Faults.Fail } ];
  let retried = Llm.Client.generate (Llm.Client.create ~seed:7 ()) grammar in
  check_string "retried call returns the identical program"
    clean.Llm.Client.source retried.Llm.Client.source;
  check_float ~eps:1e-12 "one backoff charged into the latency"
    (clean.Llm.Client.latency +. Exec.Faults.backoff ~attempt:1)
    retried.Llm.Client.latency

let test_llm_retry_exhaustion () =
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  Exec.Faults.arm
    (List.map
       (fun hit ->
         { Exec.Faults.stage = Exec.Faults.Llm_call;
           hit;
           action = Exec.Faults.Fail })
       [ 1; 2; 3 ]);
  match Llm.Client.generate (Llm.Client.create ~seed:7 ()) grammar with
  | exception Exec.Faults.Transient _ -> ()
  | _ -> Alcotest.fail "three consecutive failures did not exhaust the retries"

let test_driver_retry () =
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  let config =
    Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O0
  in
  let program = Gen.Varity.generate (Util.Rng.of_int 3) in
  Exec.Faults.arm
    [ { Exec.Faults.stage = Exec.Faults.Front_end;
        hit = 1;
        action = Exec.Faults.Fail } ];
  (match Compiler.Driver.compile config program with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("compile failed despite retry: " ^ msg));
  Exec.Faults.disarm ();
  (* exhaustion surfaces the Transient to the caller *)
  let other = Gen.Varity.generate (Util.Rng.of_int 4) in
  Exec.Faults.arm
    (List.map
       (fun hit ->
         { Exec.Faults.stage = Exec.Faults.Front_end;
           hit;
           action = Exec.Faults.Fail })
       [ 1; 2; 3 ]);
  match Compiler.Driver.compile config other with
  | exception Exec.Faults.Transient _ -> ()
  | _ -> Alcotest.fail "front-end retries never exhausted"

(* ------------------------------------------------------------------ *)
(* Checkpoint codec *)

let test_checkpoint_roundtrip () =
  with_tmpdir ~prefix:"llm4fp-ckpt-rt" @@ fun dir ->
  let outcome =
    Harness.Campaign.run ~budget:10 ~checkpoint:(dir, 5) ~seed:11
      Harness.Approach.Llm4fp
  in
  ignore outcome;
  match Checkpoint.load ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok snap ->
    check_int "seed" 11 snap.Checkpoint.seed;
    check_string "approach" (Harness.Approach.name Harness.Approach.Llm4fp)
      snap.Checkpoint.approach;
    check_int "budget" 10 snap.Checkpoint.budget;
    check_string "precision" "fp64" snap.Checkpoint.precision;
    check_int "next slot" 6 snap.Checkpoint.next_slot;
    check_bool "slots within the boundary" true
      (List.length snap.Checkpoint.slots <= 5)

let test_checkpoint_load_errors () =
  with_tmpdir ~prefix:"llm4fp-ckpt-err" @@ fun dir ->
  (match Checkpoint.load ~dir with
  | Ok _ -> Alcotest.fail "loaded a checkpoint from an empty directory"
  | Error msg -> check_bool "missing file named" true (String.length msg > 0));
  ignore
    (Harness.Campaign.run ~budget:10 ~checkpoint:(dir, 5) ~seed:11
       Harness.Approach.Llm4fp);
  let path = Checkpoint.path ~dir in
  let whole = read_file path in
  let write text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  (* Damage file line [n] (1-based) with [f]; the error must name it.
     Lines 1-4 are header, client, stats and coverage, so the slots
     start on line 5. *)
  let damaged_at n what f =
    write
      (String.concat "\n"
         (List.mapi
            (fun i l -> if i = n - 1 then f l else l)
            (String.split_on_char '\n' whole)));
    match Checkpoint.load ~dir with
    | Ok _ -> Alcotest.failf "loaded a checkpoint with a damaged %s" what
    | Error msg ->
      check_bool
        (Printf.sprintf "%s located at line %d: %s" what n msg)
        true
        (Util.Text.contains_sub msg (Printf.sprintf "%s: line %d:" path n));
      (* the location is named once: [path: line n: path: ...] would
         mean a decoder prefixed its own *)
      let occurrences =
        let n = String.length path in
        let rec count i acc =
          if i + n > String.length msg then acc
          else count (i + 1) (if String.sub msg i n = path then acc + 1 else acc)
        in
        count 0 0
      in
      check_int (Printf.sprintf "%s located once: %s" what msg) 1 occurrences
  in
  (* [replace_once sub by l] is [l] with its first [sub] replaced *)
  let replace_once sub by l =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length l then Alcotest.failf "%S not in %S" sub l
      else if String.sub l i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub l 0 i ^ by ^ String.sub l (i + n) (String.length l - i - n)
  in
  damaged_at 1 "header seed" (replace_once {|"seed":11|} {|"seed":"11"|});
  damaged_at 1 "header rng state"
    (replace_once {|"rng":{"state":"|} {|"rng":{"state":"zz|});
  damaged_at 1 "header schema"
    (replace_once {|"llm4fp-checkpoint/|} {|"llm4fp-checkpoint/0|});
  damaged_at 1 "header trace offset"
    (replace_once {|"trace_offset":null|} {|"trace_offset":"x"|});
  damaged_at 3 "stats line" (fun _ -> {|{"schema":"llm4fp-stats/1"}|});
  damaged_at 7 "slot line" (fun l -> String.sub l 0 (String.length l / 2));
  (* drop the last line: the slot count in the header no longer matches *)
  let cut = String.rindex_from whole (String.length whole - 2) '\n' in
  write (String.sub whole 0 (cut + 1));
  match Checkpoint.load ~dir with
  | Ok _ -> Alcotest.fail "loaded a truncated checkpoint"
  | Error msg ->
    check_bool "truncation diagnosed" true
      (String.length msg > 0)

(* Resume re-parses the LLM session's skeletons and the grow arm's seed
   pool; damage to either is a load error naming the file and line, never
   a failure after [load] accepted the file. *)
let test_load_rejects_unparseable_sources () =
  with_tmpdir ~prefix:"llm4fp-ckpt-src" @@ fun dir ->
  ignore
    (Harness.Campaign.run ~budget:30 ~checkpoint:(dir, 10) ~seed:4242
       Harness.Approach.Llm4fp);
  let path = Checkpoint.path ~dir in
  let snap =
    match Checkpoint.load ~dir with Ok s -> s | Error msg -> Alcotest.fail msg
  in
  let located line msg =
    Util.Text.contains_sub msg (Printf.sprintf "%s: line %d:" path line)
  in
  Checkpoint.write ~dir { snap with Checkpoint.grow_seeds = [ "void compute(" ] };
  (match Checkpoint.load ~dir with
  | Ok _ -> Alcotest.fail "loaded an unparseable grow seed"
  | Error msg -> check_bool ("grow seed located: " ^ msg) true (located 1 msg));
  Checkpoint.write ~dir snap;
  break_first_skeleton path;
  match Checkpoint.load ~dir with
  | Ok _ -> Alcotest.fail "loaded an unparseable skeleton"
  | Error msg -> check_bool ("skeleton located: " ^ msg) true (located 2 msg)

let test_resume_mismatch () =
  with_tmpdir ~prefix:"llm4fp-ckpt-mismatch" @@ fun dir ->
  ignore
    (Harness.Campaign.run ~budget:10 ~checkpoint:(dir, 5) ~seed:11
       Harness.Approach.Llm4fp);
  match Checkpoint.load ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok snap -> begin
    match
      Harness.Campaign.run ~budget:10 ~resume:snap ~seed:12
        Harness.Approach.Llm4fp
    with
    | exception Invalid_argument msg ->
      check_bool "mismatch named" true (String.length msg > 0)
    | _ -> Alcotest.fail "resumed a checkpoint under a different seed"
  end

(* ------------------------------------------------------------------ *)
(* Kill-and-resume byte identity *)

let budget = 20
let interval = 6
let seed = 20250704

type run_signature = {
  sig_stats : string;
  sig_programs : string list;
  sig_successful : int;
  sig_generation_failures : int;
  sig_sim_seconds : float;
  sig_llm_seconds : float;
  sig_coverage : string;
      (* serialized coverage ledger: resume must rebuild it byte for
         byte, including the rolling window and novelty clock *)
}

let signature (o : Harness.Campaign.outcome) =
  {
    sig_stats = Obs.Json.to_string (Difftest.Stats.to_json o.Harness.Campaign.stats);
    sig_programs = List.map Lang.Pp.to_c o.Harness.Campaign.programs;
    sig_successful = o.Harness.Campaign.successful;
    sig_generation_failures = o.Harness.Campaign.generation_failures;
    sig_sim_seconds = o.Harness.Campaign.sim_seconds;
    sig_llm_seconds = o.Harness.Campaign.llm_seconds;
    sig_coverage =
      Obs.Json.to_string (Obs.Coverage.to_json o.Harness.Campaign.coverage);
  }

(* The uninterrupted reference: outcome signature, trace bytes, archive
   bytes. Computed once per process. *)
let reference =
  lazy
    (with_tmpdir ~prefix:"llm4fp-ckpt-ref" @@ fun root ->
     let outcome, trace, arch = run_traced_campaign ~budget ~seed ~root () in
     (signature outcome, read_file trace, archive_bytes arch))

(* Kill a checkpointing campaign with the injected [faults] plan (which
   must fire), resume from the surviving snapshot, and require the
   finished run to be indistinguishable from the reference. *)
let check_kill_resume ~name faults =
  let ref_sig, ref_trace, ref_archive = Lazy.force reference in
  with_tmpdir ~prefix:("llm4fp-ckpt-" ^ name) @@ fun root ->
  Util.Durable.mkdir_p root;
  let ckpt = Filename.concat root "ckpt" in
  let arch = Filename.concat root "cases" in
  let trace = Filename.concat root "trace.jsonl" in
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  (match Exec.Faults.parse faults with
  | Ok plan -> Exec.Faults.arm plan
  | Error msg -> Alcotest.fail msg);
  let recorder = Difftest.Recorder.create ~dir:arch in
  let oc = open_out_bin trace in
  let crashed =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
            match
              Harness.Campaign.run ~budget ~recorder
                ~checkpoint:(ckpt, interval) ~seed Harness.Approach.Llm4fp
            with
            | exception Exec.Faults.Crash_injected _ -> true
            | _ -> false))
  in
  check_bool (name ^ ": injected crash fired") true crashed;
  Exec.Faults.disarm ();
  match Checkpoint.load ~dir:ckpt with
  | Error msg -> Alcotest.fail (name ^ ": surviving checkpoint unreadable: " ^ msg)
  | Ok snap ->
    let recorder = Difftest.Recorder.create ~dir:arch in
    let oc = Checkpoint.reopen_trace ~path:trace snap in
    let outcome =
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
              Harness.Campaign.run ~budget ~recorder
                ~checkpoint:(ckpt, interval) ~resume:snap ~seed
                Harness.Approach.Llm4fp))
    in
    check_bool (name ^ ": outcome identical") true (signature outcome = ref_sig);
    check_bool (name ^ ": trace bytes identical") true
      (read_file trace = ref_trace);
    check_bool (name ^ ": case archive identical") true
      (archive_bytes arch = ref_archive)

let test_kill_at_checkpoint_write () =
  check_kill_resume ~name:"ckpt2" "checkpoint@2:crash"

let test_kill_at_late_checkpoint () =
  check_kill_resume ~name:"ckpt3" "checkpoint@3:crash"

let test_kill_mid_slot () =
  (* dies mid-slot (execution ~slot 10 — dedup leaves ~12 distinct
     executions per slot), well past the first snapshot *)
  check_kill_resume ~name:"exec" "exec@120:crash"

(* ------------------------------------------------------------------ *)
(* Bandit kill-and-resume: the arm posteriors, their dedicated RNG
   stream and the grow-seed pool all ride in the checkpoint, so a
   resumed bandit campaign must reproduce not just the outcome and the
   bytes but the bandit state itself. *)

let bandit_posterior (o : Harness.Campaign.outcome) =
  match o.Harness.Campaign.bandit with
  | None -> "none"
  | Some b -> Obs.Json.to_string (Harness.Bandit.to_json b)

(* An external seed pool for the grow arm, so the drill also exercises
   the grow-seed round-trip through the snapshot. *)
let bandit_grow_seeds =
  lazy
    (let rng = Util.Rng.of_int 77 in
     List.init 3 (fun _ -> Gen.Varity.generate rng))

let bandit_reference =
  lazy
    (with_tmpdir ~prefix:"llm4fp-bandit-ref" @@ fun root ->
     let outcome, trace, arch =
       run_traced_campaign ~budget ~seed ~approach:Harness.Approach.Bandit
         ~grow_seeds:(Lazy.force bandit_grow_seeds) ~root ()
     in
     (signature outcome, bandit_posterior outcome, read_file trace,
      archive_bytes arch))

let check_bandit_kill_resume ~name faults =
  let ref_sig, ref_post, ref_trace, ref_archive = Lazy.force bandit_reference in
  let grow_seeds = Lazy.force bandit_grow_seeds in
  with_tmpdir ~prefix:("llm4fp-bandit-" ^ name) @@ fun root ->
  Util.Durable.mkdir_p root;
  let ckpt = Filename.concat root "ckpt" in
  let arch = Filename.concat root "cases" in
  let trace = Filename.concat root "trace.jsonl" in
  Fun.protect ~finally:Exec.Faults.disarm @@ fun () ->
  (match Exec.Faults.parse faults with
  | Ok plan -> Exec.Faults.arm plan
  | Error msg -> Alcotest.fail msg);
  let recorder = Difftest.Recorder.create ~dir:arch in
  let oc = open_out_bin trace in
  let crashed =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
            match
              Harness.Campaign.run ~budget ~recorder
                ~checkpoint:(ckpt, interval) ~grow_seeds ~seed
                Harness.Approach.Bandit
            with
            | exception Exec.Faults.Crash_injected _ -> true
            | _ -> false))
  in
  check_bool (name ^ ": injected crash fired") true crashed;
  Exec.Faults.disarm ();
  match Checkpoint.load ~dir:ckpt with
  | Error msg -> Alcotest.fail (name ^ ": surviving checkpoint unreadable: " ^ msg)
  | Ok snap ->
    check_bool (name ^ ": snapshot carries bandit state") true
      (snap.Checkpoint.bandit <> None);
    let recorder = Difftest.Recorder.create ~dir:arch in
    let oc = Checkpoint.reopen_trace ~path:trace snap in
    let outcome =
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
              (* the resumed run still passes the caller's pool; the
                 snapshot's rendering of it must win (and here they
                 coincide, which is exactly the round-trip) *)
              Harness.Campaign.run ~budget ~recorder
                ~checkpoint:(ckpt, interval) ~resume:snap ~grow_seeds ~seed
                Harness.Approach.Bandit))
    in
    check_bool (name ^ ": outcome identical") true (signature outcome = ref_sig);
    check_bool (name ^ ": bandit posterior identical") true
      (bandit_posterior outcome = ref_post);
    check_bool (name ^ ": trace bytes identical") true
      (read_file trace = ref_trace);
    check_bool (name ^ ": case archive identical") true
      (archive_bytes arch = ref_archive)

let test_bandit_kill_at_checkpoint () =
  check_bandit_kill_resume ~name:"ckpt2" "checkpoint@2:crash"

let test_bandit_kill_mid_slot () =
  check_bandit_kill_resume ~name:"exec" "exec@120:crash"

(* Checkpointing off the hot path: attaching it must change nothing. *)
let test_checkpointing_is_invisible () =
  let ref_sig, ref_trace, _ = Lazy.force reference in
  with_tmpdir ~prefix:"llm4fp-ckpt-inv" @@ fun root ->
  Util.Durable.mkdir_p root;
  let ckpt = Filename.concat root "ckpt" in
  let trace = Filename.concat root "trace.jsonl" in
  let arch = Filename.concat root "cases" in
  let recorder = Difftest.Recorder.create ~dir:arch in
  let oc = open_out_bin trace in
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
            Harness.Campaign.run ~budget ~recorder
              ~checkpoint:(ckpt, interval) ~seed Harness.Approach.Llm4fp))
  in
  check_bool "same outcome with checkpointing on" true
    (signature outcome = ref_sig);
  check_bool "same trace bytes with checkpointing on" true
    (read_file trace = ref_trace)

let () =
  Alcotest.run "checkpoint"
    [
      ( "durable",
        [ Alcotest.test_case "write_atomic" `Quick test_write_atomic ] );
      ( "faults",
        [
          Alcotest.test_case "parse round-trip" `Quick test_faults_parse;
          Alcotest.test_case "fires on exact hit" `Quick
            test_faults_fire_on_exact_hit;
          Alcotest.test_case "backoff schedule" `Quick test_backoff;
        ] );
      ( "retry",
        [
          Alcotest.test_case "llm retry is transparent" `Quick
            test_llm_retry_transparent;
          Alcotest.test_case "llm retries exhaust" `Quick
            test_llm_retry_exhaustion;
          Alcotest.test_case "driver retry" `Quick test_driver_retry;
        ] );
      ( "codec",
        [
          Alcotest.test_case "write/load round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "load errors" `Quick test_checkpoint_load_errors;
          Alcotest.test_case "unparseable stored sources" `Quick
            test_load_rejects_unparseable_sources;
          Alcotest.test_case "resume mismatch rejected" `Quick
            test_resume_mismatch;
        ] );
      ( "kill-resume",
        [
          Alcotest.test_case "crash at 2nd checkpoint (jobs 1)" `Slow
            test_kill_at_checkpoint_write;
          Alcotest.test_case "crash at 3rd checkpoint" `Slow
            test_kill_at_late_checkpoint;
          Alcotest.test_case "crash mid-slot (jobs 1)" `Slow test_kill_mid_slot;
          Alcotest.test_case "checkpointing is invisible" `Slow
            test_checkpointing_is_invisible;
        ] );
      ( "bandit-kill-resume",
        [
          Alcotest.test_case "crash at 2nd checkpoint (jobs 1)" `Slow
            test_bandit_kill_at_checkpoint;
          Alcotest.test_case "crash mid-slot" `Slow test_bandit_kill_mid_slot;
        ] );
    ]
