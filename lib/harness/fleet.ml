(* The distributed campaign fleet: run chunks, persist their outcomes,
   merge the results.

   Everything under a fleet root is keyed by *chunk*, not by shard:
   ROOT/chunk-%04d/ holds the chunk's trace, case archive, checkpoint
   and durable outcome record. Which process runs a chunk is invisible
   in the filesystem, so a fleet at any shard count — or a shard
   restarted after a crash — produces the identical tree. The
   outcome.json file doubles as the completion marker: a (re)started
   shard skips chunks that have one, resumes from the chunk checkpoint
   when one exists, and otherwise runs the chunk fresh. That is the
   whole crash-recovery story; the supervisor only respawns processes. *)

let chunk_dir ~root chunk =
  Filename.concat root (Printf.sprintf "chunk-%04d" chunk)

let trace_path dir = Filename.concat dir "trace.jsonl"
let cases_path dir = Filename.concat dir "cases"
let checkpoint_path dir = Filename.concat dir "ckpt"
let outcome_path dir = Filename.concat dir "outcome.json"

type chunk_outcome = {
  chunk : int;
  seed : int;
  first_slot : int;
  budget : int;
  approach : string;
  precision : string;
  successful : int;
  generation_failures : int;
  sim_seconds : float;
  llm_seconds : float;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
  fingerprints : string list;
}

let json_schema = "llm4fp-fleet-chunk/1"

let outcome_to_json o =
  Obs.Json.Obj
    [ ("schema", Obs.Json.String json_schema);
      ("chunk", Obs.Json.Int o.chunk);
      ("seed", Obs.Json.Int o.seed);
      ("first_slot", Obs.Json.Int o.first_slot);
      ("budget", Obs.Json.Int o.budget);
      ("approach", Obs.Json.String o.approach);
      ("precision", Obs.Json.String o.precision);
      ("successful", Obs.Json.Int o.successful);
      ("generation_failures", Obs.Json.Int o.generation_failures);
      ("sim_seconds", Obs.Json.Float o.sim_seconds);
      ("llm_seconds", Obs.Json.Float o.llm_seconds);
      ( "fingerprints",
        Obs.Json.List (List.map (fun f -> Obs.Json.String f) o.fingerprints)
      );
      ("stats", Difftest.Stats.to_json o.stats);
      ("coverage", Obs.Coverage.to_json o.coverage) ]

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error ("fleet: " ^ m)) fmt

let jint name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Int n) -> Ok n
  | _ -> err "missing or non-int field %S" name

let jstr name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.String s) -> Ok s
  | _ -> err "missing or non-string field %S" name

let jnum name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Float f) -> Ok f
  | Some (Obs.Json.Int n) -> Ok (float_of_int n)
  | _ -> err "missing or non-number field %S" name

let outcome_of_json json =
  let* schema = jstr "schema" json in
  let* () =
    if schema = json_schema then Ok ()
    else err "unsupported chunk-outcome schema %S" schema
  in
  let* chunk = jint "chunk" json in
  let* seed = jint "seed" json in
  let* first_slot = jint "first_slot" json in
  let* budget = jint "budget" json in
  let* approach = jstr "approach" json in
  let* precision = jstr "precision" json in
  let* successful = jint "successful" json in
  let* generation_failures = jint "generation_failures" json in
  let* sim_seconds = jnum "sim_seconds" json in
  let* llm_seconds = jnum "llm_seconds" json in
  let* fingerprints =
    match Obs.Json.member "fingerprints" json with
    | Some (Obs.Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Obs.Json.String f -> Ok (f :: acc)
          | _ -> err "non-string fingerprint"
        )
        (Ok []) items
      |> Result.map List.rev
    | _ -> err "missing or non-list field \"fingerprints\""
  in
  let* stats =
    match Obs.Json.member "stats" json with
    | Some j -> Difftest.Stats.of_json j
    | None -> err "missing field \"stats\""
  in
  let* coverage =
    match Obs.Json.member "coverage" json with
    | Some j -> Obs.Coverage.of_json j
    | None -> err "missing field \"coverage\""
  in
  Ok
    {
      chunk;
      seed;
      first_slot;
      budget;
      approach;
      precision;
      successful;
      generation_failures;
      sim_seconds;
      llm_seconds;
      stats;
      coverage;
      fingerprints;
    }

let load_outcome path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let* json =
      Result.map_error (fun m -> path ^ ": " ^ m) (Obs.Json.parse content)
    in
    Result.map_error (fun m -> path ^ ": " ^ m) (outcome_of_json json)

let write_outcome path o =
  Util.Durable.write_string ~path (Obs.Json.to_string (outcome_to_json o) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Running one chunk *)

let precision_name = function Lang.Ast.F64 -> "fp64" | Lang.Ast.F32 -> "fp32"

type chunk_run = Skipped | Resumed | Fresh

let run_chunk ?(precision = Lang.Ast.F64) ?(interval = 5) ~root approach
    (slice : Shard.slice) =
  let dir = chunk_dir ~root slice.Shard.chunk in
  let done_path = outcome_path dir in
  if Sys.file_exists done_path then
    let* o = load_outcome done_path in
    let* () =
      if o.seed = slice.Shard.seed && o.budget = slice.Shard.budget
         && o.first_slot = slice.Shard.first_slot
      then Ok ()
      else
        err "%s records a different slice (seed %d, slots %d+%d) than planned"
          done_path o.seed o.first_slot o.budget
    in
    Ok (o, Skipped)
  else begin
    Util.Durable.mkdir_p dir;
    let recorder = Difftest.Recorder.create ~dir:(cases_path dir) in
    let ckpt = checkpoint_path dir in
    let* resume =
      if Sys.file_exists (Checkpoint.path ~dir:ckpt) then
        let* snap = Checkpoint.load ~dir:ckpt in
        let* () = Campaign.check_resume ~dir:ckpt snap in
        Ok (Some snap)
      else Ok None
    in
    let campaign () =
      Campaign.run ~budget:slice.Shard.budget ~precision ~recorder
        ~checkpoint:(ckpt, interval) ?resume
        ~slot_offset:(slice.Shard.first_slot - 1) ~seed:slice.Shard.seed
        approach
    in
    let o =
      let oc =
        match resume with
        | Some snap -> Checkpoint.reopen_trace ~path:(trace_path dir) snap
        | None -> open_out_bin (trace_path dir)
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.with_sink (Obs.Sink.jsonl oc) campaign)
    in
    let fingerprints, _, _ = Difftest.Recorder.snapshot recorder in
    let outcome =
      {
        chunk = slice.Shard.chunk;
        seed = slice.Shard.seed;
        first_slot = slice.Shard.first_slot;
        budget = slice.Shard.budget;
        approach = Approach.name approach;
        precision = precision_name precision;
        successful = o.Campaign.successful;
        generation_failures = o.Campaign.generation_failures;
        sim_seconds = o.Campaign.sim_seconds;
        llm_seconds = o.Campaign.llm_seconds;
        stats = o.Campaign.stats;
        coverage = o.Campaign.coverage;
        fingerprints;
      }
    in
    write_outcome done_path outcome;
    Ok (outcome, if resume = None then Fresh else Resumed)
  end

let run_shard ?chunk ?precision ?interval ?on_chunk ~root ~spec ~budget ~seed
    approach =
  let slices = Shard.assigned spec (Shard.plan ?chunk ~budget ~seed ()) in
  List.fold_left
    (fun acc slice ->
      let* acc = acc in
      let* outcome, how = run_chunk ?precision ?interval ~root approach slice in
      Option.iter (fun f -> f outcome how) on_chunk;
      Ok (outcome :: acc))
    (Ok []) slices
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Merging *)

(* The fleet-level merge is keyed: chunk outcomes by chunk index, cases
   by fingerprint. Keyed union with a byte-equality conflict check is
   what makes the operation idempotent on top of the raw
   [Difftest.Stats.merge] / [Obs.Coverage.merge] sums — merging a
   record with itself (or two shards that happen to share a completed
   chunk directory) changes nothing, while a *conflicting* duplicate
   (same chunk id, different bytes: a mis-configured rerun) is a hard
   error rather than a silent double count. *)

let merge_outcomes a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace tbl o.chunk o) a;
  let* () =
    List.fold_left
      (fun acc o ->
        let* () = acc in
        match Hashtbl.find_opt tbl o.chunk with
        | None ->
          Hashtbl.replace tbl o.chunk o;
          Ok ()
        | Some prev ->
          if
            Obs.Json.to_string (outcome_to_json prev)
            = Obs.Json.to_string (outcome_to_json o)
          then Ok ()
          else err "conflicting outcomes for chunk %d" o.chunk)
      (Ok ()) b
  in
  Hashtbl.fold (fun _ o acc -> o :: acc) tbl []
  |> List.sort (fun x y -> Int.compare x.chunk y.chunk)
  |> Result.ok

type merged = {
  chunks : chunk_outcome list;  (* ascending chunk order, unique *)
  total_budget : int;
  total_successful : int;
  total_generation_failures : int;
  total_sim_seconds : float;
  total_llm_seconds : float;
  merged_stats : Difftest.Stats.t;
  merged_coverage : Obs.Coverage.t;
  cases : Difftest.Case.t list;  (* fingerprint-sorted union *)
}

let merge_cases per_chunk =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun case ->
         let fp = Difftest.Case.fingerprint case in
         if not (Hashtbl.mem tbl fp) then Hashtbl.replace tbl fp case))
    per_chunk;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun a b ->
         String.compare (Difftest.Case.fingerprint a)
           (Difftest.Case.fingerprint b))

let summarize outcomes per_chunk_cases =
  let* chunks = merge_outcomes outcomes [] in
  match chunks with
  | [] -> err "nothing to merge (no chunk outcomes)"
  | first :: rest ->
    let fold f init get = List.fold_left (fun acc o -> f acc (get o)) init rest in
    Ok
      {
        chunks;
        total_budget = fold ( + ) first.budget (fun o -> o.budget);
        total_successful = fold ( + ) first.successful (fun o -> o.successful);
        total_generation_failures =
          fold ( + ) first.generation_failures (fun o -> o.generation_failures);
        total_sim_seconds = fold ( +. ) first.sim_seconds (fun o -> o.sim_seconds);
        total_llm_seconds = fold ( +. ) first.llm_seconds (fun o -> o.llm_seconds);
        merged_stats =
          fold Difftest.Stats.merge first.stats (fun o -> o.stats);
        merged_coverage =
          fold Obs.Coverage.merge first.coverage (fun o -> o.coverage);
        cases = merge_cases per_chunk_cases;
      }

let chunk_cases ~root o =
  let dir = cases_path (chunk_dir ~root o.chunk) in
  let* cases =
    if Sys.file_exists dir then Difftest.Recorder.load_dir dir else Ok []
  in
  let loaded =
    List.sort String.compare (List.map Difftest.Case.fingerprint cases)
  in
  if loaded = o.fingerprints then Ok cases
  else
    err "chunk %d archive does not match its outcome record (%d case(s) \
         on disk, %d recorded)"
      o.chunk (List.length loaded)
      (List.length o.fingerprints)

let load ~root =
  let* entries =
    match Sys.readdir root with
    | entries -> Ok (Array.to_list entries)
    | exception Sys_error msg -> err "%s" msg
  in
  let outcome_files =
    List.filter
      (fun e ->
        String.length e > 6
        && String.sub e 0 6 = "chunk-"
        && Sys.file_exists (outcome_path (Filename.concat root e)))
      entries
    |> List.sort String.compare
  in
  let* outcomes =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* o = load_outcome (outcome_path (Filename.concat root e)) in
        Ok (o :: acc))
      (Ok []) outcome_files
    |> Result.map List.rev
  in
  match outcomes with
  | [] ->
    err "no completed chunk outcomes under %s (run 'llm4fp fleet' or \
         'llm4fp campaign --shard' first)"
      root
  | outcomes ->
    let* per_chunk =
      List.fold_left
        (fun acc o ->
          let* acc = acc in
          let* cases = chunk_cases ~root o in
          Ok (cases :: acc))
        (Ok []) outcomes
      |> Result.map List.rev
    in
    summarize outcomes per_chunk

let signature m =
  ( Difftest.Stats.total_inconsistencies m.merged_stats,
    Difftest.Stats.total_comparisons m.merged_stats,
    m.total_successful,
    m.total_generation_failures,
    m.total_sim_seconds )

let write_archive ~dir m =
  Util.Durable.mkdir_p dir;
  List.iter
    (fun case ->
      let path =
        Filename.concat dir (Difftest.Case.fingerprint case ^ ".jsonl")
      in
      Util.Durable.write_string ~path
        (Obs.Json.to_string (Difftest.Case.to_json case) ^ "\n"))
    m.cases
