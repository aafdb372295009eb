(* CLI-level tests: drive the real llm4fp binary.

   The tests run from _build/default/test/ with ../bin/llm4fp.exe
   declared as a dep, so the binary is always fresh. Three areas:

   - the archive-less diagnostics: dashboard/explain on a missing or
     empty case archive exit 2 with a one-line hint, distinct from
     exit 1 ("archive exists but something else failed");
   - the golden flight-deck frame: a fixed-seed campaign's trace
     replays ([watch --replay]) to byte-identical output, pinned by
     test/golden/watch_frame.txt;
   - the trace query and flamegraph export round-trips, and the
     [--out] directory handling of tables, campaign --shard, fleet and
     merge. *)

open Helpers

let exe = Filename.concat ".." (Filename.concat "bin" "llm4fp.exe")

(* Run the binary, capturing stdout/stderr to files; returns
   (exit_code, stdout, stderr). *)
let run args =
  with_tmpdir ~prefix:"llm4fp-cli-io" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  (code, read_file out, read_file err)

let contains = Util.Text.contains_sub

let test_dashboard_missing_archive () =
  with_tmpdir @@ fun dir ->
  let code, _, err = run (Printf.sprintf "dashboard %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "one-line diagnostic" true (contains err "no case archive")

let test_dashboard_empty_archive () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err = run (Printf.sprintf "dashboard %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "names the empty archive" true (contains err "empty")

let test_explain_missing_archive () =
  with_tmpdir @@ fun dir ->
  let code, _, err =
    run (Printf.sprintf "explain --archive %s 0123456789abcdef"
           (Filename.quote dir))
  in
  check_int "exit 2" 2 code;
  check_bool "one-line diagnostic" true (contains err "no case archive")

let test_explain_empty_archive () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err =
    run (Printf.sprintf "explain --archive %s 0123456789abcdef"
           (Filename.quote dir))
  in
  check_int "exit 2" 2 code;
  check_bool "names the empty archive" true (contains err "empty")

(* Cmdliner's file converter accepts a directory for -f *)
let test_matrix_file_is_directory () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, out, err = run (Printf.sprintf "matrix -f %s" (Filename.quote dir)) in
  check_int "exit 1" 1 code;
  check_string "nothing printed" "" out;
  check_bool "one-line diagnostic" true
    (contains err "cannot read source file"
    && List.length (String.split_on_char '\n' (String.trim err)) = 1)

(* A checkpoint whose stored skeleton no longer parses is refused at
   --resume with one located stderr line and exit 1, before the campaign
   starts, instead of an uncaught exception. *)
let test_resume_unparseable_skeleton () =
  with_tmpdir @@ fun dir ->
  let code, _, err =
    run
      (Printf.sprintf
         "campaign llm4fp -b 30 -s 4242 --checkpoint %s --checkpoint-every 10"
         (Filename.quote dir))
  in
  check_int ("checkpointed campaign exits 0: " ^ err) 0 code;
  let path = Checkpoint.path ~dir in
  break_first_skeleton path;
  let code, out, err =
    run (Printf.sprintf "campaign llm4fp --resume %s" (Filename.quote dir))
  in
  check_int "exit 1" 1 code;
  check_string "nothing printed" "" out;
  check_bool ("one located line: " ^ err) true
    (contains err (path ^ ": line 2:")
    && List.length (String.split_on_char '\n' (String.trim err)) = 1)

(* A checkpoint whose bandit posterior no longer decodes — a field of the
   wrong type, an unknown arm — is refused at --resume with one located
   stderr line and exit 1, before any slot runs. *)
let test_resume_damaged_bandit_posterior () =
  with_tmpdir @@ fun dir ->
  let code, _, err =
    run
      (Printf.sprintf
         "campaign --bandit -b 30 -s 4242 --checkpoint %s --checkpoint-every 10"
         (Filename.quote dir))
  in
  check_int ("checkpointed campaign exits 0: " ^ err) 0 code;
  let path = Checkpoint.path ~dir in
  let whole = read_file path in
  List.iter
    (fun (sub, by) ->
      let n = String.length sub in
      let rec find i =
        if i + n > String.length whole then Alcotest.failf "no %s to damage" sub
        else if String.sub whole i n = sub then i
        else find (i + 1)
      in
      let at = find 0 in
      let oc = open_out_bin path in
      output_string oc
        (String.sub whole 0 at ^ by
        ^ String.sub whole (at + n) (String.length whole - at - n));
      close_out oc;
      let code, out, err =
        run (Printf.sprintf "campaign --bandit --resume %s" (Filename.quote dir))
      in
      check_int (by ^ ": exit 1") 1 code;
      check_string (by ^ ": nothing printed") "" out;
      check_bool (by ^ ": one located line: " ^ err) true
        (contains err (path ^ ": line 1: bandit state:")
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    [ ({|"epsilon":0.1|}, {|"epsilon":"x"|});
      ({|"arm":"mutate"|}, {|"arm":"mutat"|}) ]

let subcommands =
  [ "generate"; "matrix"; "campaign"; "fleet"; "merge"; "tables"; "corpus";
    "ablation"; "precision"; "profile"; "explain"; "fuzz"; "dashboard";
    "watch"; "trace"; "coverage"; "stability" ]

(* Doc strings with bad cmdliner markup still render, but cmdliner
   reports each error on stderr. *)
let test_help_plain () =
  List.iter
    (fun cmd ->
      let code, out, err = run (cmd ^ " --help=plain") in
      check_int (cmd ^ ": exit 0") 0 code;
      check_bool (cmd ^ ": help printed") true (contains out "NAME");
      check_string (cmd ^ ": stderr empty") "" err)
    subcommands

(* One fixed-seed trace shared by the replay/query/export tests. *)
let with_campaign_trace f =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.jsonl" in
  let code, _, err =
    run (Printf.sprintf "campaign llm4fp -b 12 -s 42 --trace %s"
           (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("campaign failed: " ^ err);
  f trace

let test_watch_replay_golden_frame () =
  with_campaign_trace @@ fun trace ->
  let code, frame, err =
    run (Printf.sprintf "watch --replay %s" (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("watch --replay failed: " ^ err);
  check_golden "flight-deck frame" ~golden:"golden/watch_frame.txt" frame;
  (* and replaying is idempotent byte for byte *)
  let _, again, _ =
    run (Printf.sprintf "watch --replay %s" (Filename.quote trace))
  in
  check_string "byte-identical on re-replay" frame again

let test_watch_live_finished_trace () =
  (* A live watch attached to an already-finished trace drains it in
     one poll and exits 0 on the campaign_finished event. *)
  with_campaign_trace @@ fun trace ->
  let code, out, err =
    run (Printf.sprintf "watch --interval 0.05 %s" (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("live watch failed: " ^ err);
  check_bool "renders the deck" true (contains out "flight deck");
  (* non-TTY output: no clear-screen escapes *)
  check_bool "no ANSI clears when piped" false (contains out "\027[")

let test_watch_timeout () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err =
    run
      (Printf.sprintf "watch --interval 0.05 --timeout 0.2 %s"
         (Filename.quote (Filename.concat dir "never.jsonl")))
  in
  check_int "exit 3 on timeout" 3 code;
  check_bool "says not finished" true (contains err "not finished")

let test_trace_query () =
  with_campaign_trace @@ fun trace ->
  let code, out, _ =
    run (Printf.sprintf "trace %s --stats" (Filename.quote trace)) in
  check_int "stats exits 0" 0 code;
  check_bool "counts campaign_finished" true (contains out "campaign_finished");
  let code, out, _ =
    run (Printf.sprintf "trace %s --kind slot_finished" (Filename.quote trace))
  in
  check_int "filter exits 0" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  (* header + separator + one row per slot *)
  check_int "one row per slot" 14 (List.length lines);
  check_bool "rows carry the sim clock" true (contains out "sim=");
  let code, csv, _ =
    run
      (Printf.sprintf "trace %s --kind inconsistency_found --slot 1 --csv"
         (Filename.quote trace))
  in
  check_int "csv exits 0" 0 code;
  check_bool "csv header" true (contains csv "#,slot,event,detail");
  (* determinism: the same query twice is byte-identical *)
  let _, csv2, _ =
    run
      (Printf.sprintf "trace %s --kind inconsistency_found --slot 1 --csv"
         (Filename.quote trace))
  in
  check_string "csv deterministic" csv csv2

let test_coverage_query () =
  with_campaign_trace @@ fun trace ->
  let code, out, _ =
    run (Printf.sprintf "coverage %s" (Filename.quote trace)) in
  check_int "coverage exits 0" 0 code;
  check_bool "table header names the cell axes" true
    (contains out "kind" && contains out "classes");
  check_bool "lists a cross cell" true (contains out "cross");
  check_bool "lists first-discovery provenance" true
    (contains out "first slot");
  (* deterministic: the same query twice is byte-identical *)
  let _, again, _ =
    run (Printf.sprintf "coverage %s" (Filename.quote trace)) in
  check_string "table deterministic" out again;
  let code, csv, _ =
    run (Printf.sprintf "coverage %s --csv" (Filename.quote trace)) in
  check_int "csv exits 0" 0 code;
  check_bool "csv header" true
    (contains csv "kind,pair,level,classes,hits,first slot,first sim_s,strategy");
  check_int "one csv row per table row"
    (List.length (String.split_on_char '\n' (String.trim out)) - 1)
    (List.length (String.split_on_char '\n' (String.trim csv)));
  let code, by, _ =
    run (Printf.sprintf "coverage %s --by-strategy" (Filename.quote trace)) in
  check_int "by-strategy exits 0" 0 code;
  check_bool "per-strategy rates" true
    (contains by "novel/sim-s" && contains by "/s");
  (* a missing trace dies in cmdliner's file converter *)
  let code, _, _ =
    run (Printf.sprintf "coverage %s"
           (Filename.quote (trace ^ ".does-not-exist"))) in
  check_int "missing trace exits 124" 124 code;
  (* a corrupt trace dies in the follower, with provenance *)
  let corrupt = trace ^ ".corrupt" in
  let oc = open_out_bin corrupt in
  output_string oc "this is not an event\n";
  close_out oc;
  let code, _, err = run (Printf.sprintf "coverage %s" (Filename.quote corrupt)) in
  check_int "corrupt trace exits 1" 1 code;
  check_bool "error names the command" true (contains err "llm4fp coverage");
  check_bool "error names the line" true (contains err "line 1")

let test_profile_flame_export () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let out_json = Filename.concat dir "flame.json" in
  let code, out, err =
    run (Printf.sprintf "profile -b 6 -s 7 --flame %s"
           (Filename.quote out_json))
  in
  if code <> 0 then Alcotest.fail ("profile failed: " ^ err);
  check_bool "prints the span tree" true (contains out "span tree");
  match Obs.Json.parse (String.trim (read_file out_json)) with
  | Error msg -> Alcotest.fail ("flame file unparseable: " ^ msg)
  | Ok json -> begin
    match Obs.Json.member "traceEvents" json with
    | Some (Obs.Json.List (_ :: _ as events)) ->
      List.iter
        (fun ev ->
          check_bool "complete slices only" true
            (Obs.Json.member "ph" ev = Some (Obs.Json.String "X")))
        events
    | _ -> Alcotest.fail "flame file has no traceEvents"
  end

(* ------------------------------------------------------------------ *)
(* --out directories are made before any work runs *)

(* [cmd --out BAD], with BAD below a regular file or a regular file
   itself: a one-line diagnostic and exit 1 before anything is printed. *)
let check_bad_out ~dir cmd =
  let file = Filename.concat dir "file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  List.iter
    (fun bad ->
      let label = Printf.sprintf "%s --out %s" cmd bad in
      let code, out, err = run (cmd ^ " --out " ^ Filename.quote bad) in
      check_int (label ^ ": exit 1") 1 code;
      check_string (label ^ ": nothing printed") "" out;
      check_bool (label ^ ": one-line diagnostic") true
        (contains err "cannot create output directory"
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    [ Filename.concat file "sub"; file ]

let test_tables_csv_out () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  let code, out, err =
    run (Printf.sprintf "tables -b 4 -t table1 --csv --out %s"
           (Filename.quote nested))
  in
  if code <> 0 then Alcotest.fail ("tables --csv failed: " ^ err);
  check_bool "prints the requested table" true (contains out "Table 1");
  check_bool "nested --out written" true
    (contains (read_file (Filename.concat nested "table1.csv")) "Level,gcc/clang,nvcc");
  check_bool "only the requested section's CSV" false
    (Sys.file_exists (Filename.concat nested "table2.csv"));
  (* no campaign runs: the trace sink, opened when the campaigns start,
     is never created *)
  let trace = Filename.concat dir "trace.jsonl" in
  check_bad_out ~dir
    (Printf.sprintf "tables -b 4 --csv --trace %s" (Filename.quote trace));
  check_bool "no campaign ran" false (Sys.file_exists trace)

(* A pair bound below 1 is refused before any campaign runs (the sampled
   mean divides by it). *)
let test_tables_max_pairs () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.jsonl" in
  List.iter
    (fun arg ->
      let code, out, err =
        run (Printf.sprintf "tables -b 4 -t table3 %s --trace %s" arg
               (Filename.quote trace))
      in
      check_int (arg ^ ": exit 1") 1 code;
      check_string (arg ^ ": nothing printed") "" out;
      check_bool (arg ^ ": one-line diagnostic") true
        (contains err "--max-pairs"
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    [ "--max-pairs 0"; "--max-pairs=-5" ];
  check_bool "no campaign ran" false (Sys.file_exists trace)

(* An unknown section name is refused before any campaign runs: one
   stderr line naming the valid sections, nothing on stdout, no trace
   file. *)
let test_tables_unknown_section () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.jsonl" in
  let code, out, err =
    run (Printf.sprintf "tables -t nosuch -b 100 --trace %s" (Filename.quote trace))
  in
  check_int "exit 1" 1 code;
  check_string "nothing printed" "" out;
  check_bool "one-line diagnostic naming the valid sections" true
    (contains err "unknown section nosuch"
    && List.for_all (contains err) Harness.Experiments.section_names
    && List.length (String.split_on_char '\n' (String.trim err)) = 1);
  check_bool "no campaign ran" false (Sys.file_exists trace)

(* Every paper number at budget 100, byte for byte: the summary's
   measured real-compute seconds are the only figures masked. *)
let test_tables_golden () =
  let code, out, err = run "tables -b 100" in
  if code <> 0 then Alcotest.fail ("tables failed: " ^ err);
  let marker = "; real compute " in
  let mask line =
    let nl = String.length line and nm = String.length marker in
    let rec scan i =
      if i + nm > nl then line
      else if String.sub line i nm = marker then
        String.sub line 0 (i + nm) ^ "(masked)"
      else scan (i + 1)
    in
    scan 0
  in
  check_golden "tables -b 100" ~golden:"golden/tables_b100.txt"
    (String.concat "\n" (List.map mask (String.split_on_char '\n' out)))

(* [-t NAME] computes only that section, with the same bytes the full
   run prints under its "== NAME ==" header. *)
let test_tables_one_section () =
  let code, full, err = run "tables -b 20" in
  if code <> 0 then Alcotest.fail ("tables failed: " ^ err);
  let code, only, err = run "tables -b 20 -t table2" in
  if code <> 0 then Alcotest.fail ("tables -t table2 failed: " ^ err);
  let index_of needle =
    let nh = String.length full and nn = String.length needle in
    let rec scan i =
      if i + nn > nh then None
      else if String.sub full i nn = needle then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let header = "== table2 ==\n" and next = "\n== table3 ==\n" in
  match (index_of header, index_of next) with
  | Some start, Some stop ->
    let start = start + String.length header in
    check_string "same bytes as the full run's section"
      (String.sub full start (stop - start)) only
  | _ -> Alcotest.fail "full run lacks the table2 section"

(* ------------------------------------------------------------------ *)
(* Fleet: sharded campaigns, supervision, merge *)

let test_bad_out_paths () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let root = Filename.concat dir "root" in
  let code, _, err =
    run (Printf.sprintf "campaign llm4fp -b 4 --chunk 2 --shard 0/1 --out %s"
           (Filename.quote root))
  in
  if code <> 0 then Alcotest.fail ("shard run failed: " ^ err);
  List.iter (check_bad_out ~dir)
    [ "campaign llm4fp -b 4 --shard 0/1"; "fleet llm4fp -n 1 -b 4";
      "merge " ^ Filename.quote root ]

(* Malformed --shard specs are usage errors: exit 2 with a one-line
   diagnostic, before any work happens. *)
let test_shard_diagnostics () =
  List.iter
    (fun spec ->
      let code, _, err =
        run (Printf.sprintf "campaign llm4fp -b 4 --shard %s --out /tmp/x" spec)
      in
      check_int (Printf.sprintf "--shard %s exits 2" spec) 2 code;
      check_bool
        (Printf.sprintf "--shard %s diagnostic names the shape" spec)
        true
        (contains err "I/N" || contains err "malformed shard"))
    [ "3/2"; "abc"; "1/0"; "1/-2"; "2/2" ];
  let code, _, err = run "campaign llm4fp -b 4 --shard 0/2" in
  check_int "--shard without --out exits 2" 2 code;
  check_bool "asks for --out" true (contains err "--out");
  let code, _, err = run "campaign llm4fp -b 4 --out /tmp/x" in
  check_int "--out without --shard exits 2" 2 code;
  check_bool "says --shard" true (contains err "--shard");
  let code, _, err =
    run "campaign llm4fp -b 4 --shard 0/2 --out /tmp/x --trace /tmp/t.jsonl"
  in
  check_int "--shard rejects --trace" 2 code;
  check_bool "explains the conflict" true (contains err "--shard");
  let code, _, _ = run "fleet llm4fp -n 0 --out /tmp/x" in
  check_int "fleet -n 0 exits 2" 2 code

(* Everything the byte-identity drills compare on, per chunk. The
   checkpoint files embed absolute archive paths (they differ across
   roots by construction), so the comparison is outcome + trace +
   archive — the data the merge consumes. *)
let chunk_observation root =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun n -> String.starts_with ~prefix:"chunk-" n)
  |> List.sort String.compare
  |> List.map (fun n ->
         let dir = Filename.concat root n in
         ( n,
           read_file (Filename.concat dir "outcome.json"),
           read_file (Filename.concat dir "trace.jsonl"),
           archive_bytes (Filename.concat dir "cases") ))

let run_fleet ?(extra = "") ~root () =
  run
    (Printf.sprintf
       "fleet llm4fp -n 2 -b 12 --chunk 5 --checkpoint-every 2 --out %s%s"
       (Filename.quote root) extra)

(* The supervision drill: a fleet whose children all crash at their
   second checkpoint write must restart each shard, resume it from its
   durable per-chunk state, and still converge to the byte-identical
   tree and merge of an unfaulted fleet. *)
let test_fleet_crash_and_resume () =
  with_tmpdir ~prefix:"llm4fp-fleet-clean" @@ fun clean ->
  with_tmpdir ~prefix:"llm4fp-fleet-faulted" @@ fun faulted ->
  let code, out, err = run_fleet ~root:clean () in
  if code <> 0 then Alcotest.fail ("clean fleet failed: " ^ err);
  check_bool "clean fleet reports no restarts" true
    (contains out "0 restart(s)");
  check_bool "clean fleet suggests the merge" true (contains out "llm4fp merge");
  let code, out, err =
    run_fleet ~root:faulted ~extra:" --faults checkpoint@2:crash" ()
  in
  if code <> 0 then Alcotest.fail ("faulted fleet failed: " ^ err);
  check_bool "supervisor reports the restarts" true
    (contains err "crashed; restarting");
  check_bool "restarts surface in the frame" true (contains out "restart(s)");
  check_bool "faulted fleet restarted at least one shard" false
    (contains out "0 restart(s)");
  check_bool "crash-and-resume tree byte-identical to clean fleet" true
    (chunk_observation faulted = chunk_observation clean);
  (* and the merges agree byte for byte, artifacts included *)
  let merge root sub =
    let dir = Filename.concat root sub in
    let code, _, err =
      run (Printf.sprintf "merge %s --out %s" (Filename.quote root)
             (Filename.quote dir))
    in
    if code <> 0 then Alcotest.fail ("merge failed: " ^ err);
    ( read_file (Filename.concat dir "merged.json"),
      read_file (Filename.concat dir "stats.json"),
      read_file (Filename.concat dir "coverage.json"),
      archive_bytes (Filename.concat dir "cases") )
  in
  check_bool "merged artifacts byte-identical" true
    (merge faulted "merged" = merge clean "merged")

(* Merging an empty root is a usage error, like the other archive-less
   diagnostics. *)
let test_merge_empty_root () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err = run (Printf.sprintf "merge %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "hints at fleet/--shard" true
    (contains err "llm4fp fleet" || contains err "--shard")

(* The merged dashboard is deterministic: a fixed-seed single-process
   shard run merges to the golden HTML, byte for byte. *)
let test_merge_golden_dashboard () =
  with_tmpdir ~prefix:"llm4fp-merge-golden" @@ fun root ->
  let code, _, err =
    run
      (Printf.sprintf "campaign llm4fp -b 12 --chunk 5 --shard 0/1 --out %s"
         (Filename.quote root))
  in
  if code <> 0 then Alcotest.fail ("shard run failed: " ^ err);
  let html = Filename.concat root "dashboard.html" in
  let code, out, err =
    run
      (Printf.sprintf "merge %s --html %s --title %s" (Filename.quote root)
         (Filename.quote html)
         (Filename.quote "LLM4FP merged dashboard (golden)"))
  in
  if code <> 0 then Alcotest.fail ("merge --html failed: " ^ err);
  check_bool "summary names the merge" true (contains out "merged 3 chunk(s)");
  check_golden "merged dashboard" ~golden:"golden/merged_dashboard.html"
    (read_file html)

let () =
  Alcotest.run "cli"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "dashboard: missing archive" `Quick
            test_dashboard_missing_archive;
          Alcotest.test_case "dashboard: empty archive" `Quick
            test_dashboard_empty_archive;
          Alcotest.test_case "explain: missing archive" `Quick
            test_explain_missing_archive;
          Alcotest.test_case "explain: empty archive" `Quick
            test_explain_empty_archive;
          Alcotest.test_case "help renders cleanly" `Quick test_help_plain;
          Alcotest.test_case "matrix: -f directory" `Quick
            test_matrix_file_is_directory;
          Alcotest.test_case "resume: unparseable skeleton" `Quick
            test_resume_unparseable_skeleton;
          Alcotest.test_case "resume: damaged bandit posterior" `Quick
            test_resume_damaged_bandit_posterior;
        ] );
      ( "watch",
        [
          Alcotest.test_case "replay matches golden frame" `Slow
            test_watch_replay_golden_frame;
          Alcotest.test_case "live watch of a finished trace" `Slow
            test_watch_live_finished_trace;
          Alcotest.test_case "timeout" `Quick test_watch_timeout;
        ] );
      ( "trace",
        [ Alcotest.test_case "query and csv" `Slow test_trace_query ] );
      ( "coverage",
        [ Alcotest.test_case "query, csv, rates" `Slow test_coverage_query ] );
      ( "profile",
        [
          Alcotest.test_case "flame export" `Slow test_profile_flame_export;
        ] );
      ( "tables",
        [ Alcotest.test_case "csv --out" `Slow test_tables_csv_out;
          Alcotest.test_case "max-pairs below 1" `Quick test_tables_max_pairs;
          Alcotest.test_case "unknown section" `Quick test_tables_unknown_section;
          Alcotest.test_case "golden b100" `Slow test_tables_golden;
          Alcotest.test_case "one section" `Slow test_tables_one_section ] );
      ( "fleet",
        [
          Alcotest.test_case "shard diagnostics" `Quick test_shard_diagnostics;
          Alcotest.test_case "bad --out paths" `Quick test_bad_out_paths;
          Alcotest.test_case "crash and resume" `Slow
            test_fleet_crash_and_resume;
          Alcotest.test_case "merge: empty root" `Quick test_merge_empty_root;
          Alcotest.test_case "merge: golden dashboard" `Slow
            test_merge_golden_dashboard;
        ] );
    ]
