(* Durable campaign snapshots.

   A checkpoint is one JSONL file, [DIR/checkpoint.jsonl], written
   atomically (temp + rename, fsync'd) at a slot boundary. It carries
   the complete loop state — both RNG streams, the LLM session, the
   running statistics, the valid-slot history with feedback flags, the
   simulated clock, the recorder's dedup state, and the trace file's
   durable byte offset — so a resumed run replays the remaining slots
   as if the interruption never happened.

   Programs travel as their C rendering and are re-parsed on load:
   [Lang.Pp] and [Cparse.Parse] are structural inverses, so the decoded
   ASTs are the exact trees the original run held.

   Layout (one JSON object per line):
     1. header     — identity, counters, both RNG states, trace offset
     2. LLM client — the {!Llm.Client.snapshot} payload
     3. statistics — {!Difftest.Stats.to_json}
     4. coverage   — {!Obs.Coverage.to_json} (schema 2; always present)
     5. recorder   — dedup set and counters (only when [has_recorder])
     n. slots      — one line per valid program, in slot order *)

let schema = "llm4fp-checkpoint/3"
let file_name = "checkpoint.jsonl"
let path ~dir = Filename.concat dir file_name

type slot = {
  program : Lang.Ast.program;
  inputs : Irsim.Inputs.t;
  feedback : bool;
}

type recorder_state = {
  rec_dir : string;
  rec_seen : string list;
  rec_recorded : int;
  rec_duplicates : int;
}

type t = {
  seed : int;
  approach : string;
  budget : int;
  precision : string;
  interval : int;
  next_slot : int;
  generation_failures : int;
  sim_seconds : float;
  rng : int64 * float option;
  input_rng : int64 * float option;
  trace_offset : int option;
  bandit : Obs.Json.t option;
      (* the Harness.Bandit posterior + stream position, stored as the
         opaque JSON Harness.Bandit.to_json produced (checkpoint sits
         below harness, so it cannot name the type); None outside
         bandit campaigns *)
  grow_seeds : string list;
      (* C renderings of the grow arm's external seed pool, so a
         resumed run rebuilds the exact pool without the archive
         directory it was loaded from *)
  client : Llm.Client.snapshot;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
  recorder : recorder_state option;
  slots : slot list;
}

(* ------------------------------------------------------------------ *)
(* Encoding *)

let rng_to_json (state, spare) =
  Obs.Json.Obj
    [ ("state", Obs.Json.String (Printf.sprintf "%016Lx" state));
      ( "spare",
        match spare with
        | None -> Obs.Json.Null
        | Some f -> Obs.Json.Float f ) ]

let header_to_json t =
  Obs.Json.Obj
    [ ("schema", Obs.Json.String schema);
      ("seed", Obs.Json.Int t.seed);
      ("approach", Obs.Json.String t.approach);
      ("budget", Obs.Json.Int t.budget);
      ("precision", Obs.Json.String t.precision);
      ("interval", Obs.Json.Int t.interval);
      ("next_slot", Obs.Json.Int t.next_slot);
      ("generation_failures", Obs.Json.Int t.generation_failures);
      ("sim_seconds", Obs.Json.Float t.sim_seconds);
      ("rng", rng_to_json t.rng);
      ("input_rng", rng_to_json t.input_rng);
      ( "trace_offset",
        match t.trace_offset with
        | None -> Obs.Json.Null
        | Some n -> Obs.Json.Int n );
      ( "bandit",
        match t.bandit with None -> Obs.Json.Null | Some json -> json );
      ( "grow_seeds",
        Obs.Json.List (List.map (fun s -> Obs.Json.String s) t.grow_seeds) );
      ("slots", Obs.Json.Int (List.length t.slots));
      ("has_recorder", Obs.Json.Bool (t.recorder <> None)) ]

let client_to_json (c : Llm.Client.snapshot) =
  Obs.Json.Obj
    [ ("rng", rng_to_json c.Llm.Client.snap_rng);
      ( "sampler",
        Obs.Json.List
          (List.map
             (fun (k, n) -> Obs.Json.List [ Obs.Json.String k; Obs.Json.Int n ])
             c.Llm.Client.snap_sampler) );
      ( "skeletons",
        Obs.Json.List
          (List.map (fun s -> Obs.Json.String s) c.Llm.Client.snap_skeletons)
      );
      ( "seen",
        Obs.Json.List
          (List.map (fun s -> Obs.Json.String s) c.Llm.Client.snap_seen) );
      ("calls", Obs.Json.Int c.Llm.Client.snap_calls);
      ("total_latency", Obs.Json.Float c.Llm.Client.snap_total_latency) ]

let recorder_to_json r =
  Obs.Json.Obj
    [ ("dir", Obs.Json.String r.rec_dir);
      ( "seen",
        Obs.Json.List (List.map (fun s -> Obs.Json.String s) r.rec_seen) );
      ("recorded", Obs.Json.Int r.rec_recorded);
      ("duplicates", Obs.Json.Int r.rec_duplicates) ]

let slot_to_json s =
  Obs.Json.Obj
    [ ("source", Obs.Json.String (Lang.Pp.to_c s.program));
      ( "inputs",
        Obs.Json.List (List.map Difftest.Case.input_to_json s.inputs) );
      ("feedback", Obs.Json.Bool s.feedback) ]

let write ~dir t =
  Exec.Faults.inject Exec.Faults.Checkpoint_write;
  Util.Durable.write_atomic ~path:(path ~dir) (fun oc ->
      let line json =
        output_string oc (Obs.Json.to_string json);
        output_char oc '\n'
      in
      line (header_to_json t);
      line (client_to_json t.client);
      line (Difftest.Stats.to_json t.stats);
      line (Obs.Coverage.to_json t.coverage);
      (match t.recorder with None -> () | Some r -> line (recorder_to_json r));
      List.iter (fun s -> line (slot_to_json s)) t.slots)

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let field name json =
  match Obs.Json.member name json with
  | Some v -> Ok v
  | None -> err "missing field %S" name

let int_field name json =
  match field name json with
  | Ok (Obs.Json.Int n) -> Ok n
  | Ok _ -> err "field %S is not an int" name
  | Error e -> Error e

let string_field name json =
  match field name json with
  | Ok (Obs.Json.String s) -> Ok s
  | Ok _ -> err "field %S is not a string" name
  | Error e -> Error e

let float_field name json =
  match field name json with
  | Ok (Obs.Json.Float f) -> Ok f
  | Ok (Obs.Json.Int n) -> Ok (float_of_int n)
  | Ok _ -> err "field %S is not a number" name
  | Error e -> Error e

let bool_field name json =
  match field name json with
  | Ok (Obs.Json.Bool b) -> Ok b
  | Ok _ -> err "field %S is not a bool" name
  | Error e -> Error e

let string_list name json =
  match field name json with
  | Ok (Obs.Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Obs.Json.String s -> Ok (s :: acc)
          | _ -> err "field %S holds a non-string element" name)
        (Ok []) items
      |> Result.map List.rev
  | Ok _ -> err "field %S is not a list" name
  | Error e -> Error e

let rng_of_json name json =
  let* state_s = string_field "state" json in
  let* state =
    match Int64.of_string_opt ("0x" ^ state_s) with
    | Some v -> Ok v
    | None -> err "%s: state %S is not 16 hex digits" name state_s
  in
  let* spare =
    match Obs.Json.member "spare" json with
    | Some Obs.Json.Null -> Ok None
    | Some (Obs.Json.Float f) -> Ok (Some f)
    | Some (Obs.Json.Int n) -> Ok (Some (float_of_int n))
    | _ -> err "%s: malformed spare" name
  in
  Ok (state, spare)

let client_of_json json =
  let* rng_json = field "rng" json in
  let* snap_rng = rng_of_json "client rng" rng_json in
  let* snap_sampler =
    match field "sampler" json with
    | Ok (Obs.Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Obs.Json.List [ Obs.Json.String k; Obs.Json.Int n ] ->
                Ok ((k, n) :: acc)
            | _ -> err "malformed sampler entry")
          (Ok []) items
        |> Result.map List.rev
    | Ok _ -> err "field \"sampler\" is not a list"
    | Error e -> Error e
  in
  let* snap_skeletons = string_list "skeletons" json in
  let* snap_seen = string_list "seen" json in
  let* snap_calls = int_field "calls" json in
  let* snap_total_latency = float_field "total_latency" json in
  Ok
    {
      Llm.Client.snap_rng;
      snap_sampler;
      snap_skeletons;
      snap_seen;
      snap_calls;
      snap_total_latency;
    }

let recorder_of_json json =
  let* rec_dir = string_field "dir" json in
  let* rec_seen = string_list "seen" json in
  let* rec_recorded = int_field "recorded" json in
  let* rec_duplicates = int_field "duplicates" json in
  Ok { rec_dir; rec_seen; rec_recorded; rec_duplicates }

let slot_of_json json =
  let* source = string_field "source" json in
  let* program =
    match Cparse.Parse.program source with
    | Ok p -> Ok p
    | Error msg -> err "stored program no longer parses (%s)" msg
  in
  let* inputs =
    match field "inputs" json with
    | Ok (Obs.Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* v = Difftest.Case.input_of_json item in
            Ok (v :: acc))
          (Ok []) items
        |> Result.map List.rev
    | Ok _ -> err "field \"inputs\" is not a list"
    | Error e -> Error e
  in
  let* feedback = bool_field "feedback" json in
  Ok { program; inputs; feedback }

(* Stored C renderings that resume re-parses: checked here, so damage is
   a located [Error] and never a failure after [load] accepted the file. *)
let check_sources what sources =
  List.fold_left
    (fun acc (k, source) ->
      let* () = acc in
      match Cparse.Parse.program source with
      | Ok _ -> Ok ()
      | Error msg -> err "%s %d no longer parses (%s)" what k msg)
    (Ok ())
    (List.mapi (fun k source -> (k + 1, source)) sources)

let load ~dir =
  let p = path ~dir in
  (* A decode error of file line [i], located. *)
  let at i r = Result.map_error (Printf.sprintf "%s: line %d: %s" p i) r in
  Result.map_error (fun m -> "checkpoint: " ^ m)
  @@
  match open_in_bin p with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          match List.rev !lines with
          | [] -> err "%s: empty file" p
          | header_line :: rest ->
              let* header = at 1 (Obs.Json.parse header_line) in
              let* schema_got = at 1 (string_field "schema" header) in
              let* () =
                if schema_got = schema then Ok ()
                else at 1 (err "unsupported schema %S" schema_got)
              in
              let* seed = at 1 (int_field "seed" header) in
              let* approach = at 1 (string_field "approach" header) in
              let* budget = at 1 (int_field "budget" header) in
              let* precision = at 1 (string_field "precision" header) in
              let* interval = at 1 (int_field "interval" header) in
              let* next_slot = at 1 (int_field "next_slot" header) in
              let* generation_failures =
                at 1 (int_field "generation_failures" header)
              in
              let* sim_seconds = at 1 (float_field "sim_seconds" header) in
              let* rng =
                at 1 (Result.bind (field "rng" header) (rng_of_json "rng"))
              in
              let* input_rng =
                at 1
                  (Result.bind (field "input_rng" header)
                     (rng_of_json "input_rng"))
              in
              let* trace_offset =
                match Obs.Json.member "trace_offset" header with
                | Some Obs.Json.Null -> Ok None
                | Some (Obs.Json.Int n) -> Ok (Some n)
                | _ -> at 1 (err "malformed trace_offset")
              in
              let* bandit =
                match Obs.Json.member "bandit" header with
                | Some Obs.Json.Null -> Ok None
                | Some (Obs.Json.Obj _ as json) -> Ok (Some json)
                | _ -> at 1 (err "malformed bandit state")
              in
              let* grow_seeds = at 1 (string_list "grow_seeds" header) in
              let* () = at 1 (check_sources "grow seed" grow_seeds) in
              let* n_slots = at 1 (int_field "slots" header) in
              let* has_recorder = at 1 (bool_field "has_recorder" header) in
              let expected =
                3 + (if has_recorder then 1 else 0) + n_slots
              in
              let* () =
                if List.length rest = expected then Ok ()
                else
                  err
                    "%s: truncated or padded file (expected %d lines after \
                     the header, found %d)"
                    p expected (List.length rest)
              in
              let* client_json = at 2 (Obs.Json.parse (List.nth rest 0)) in
              let* client = at 2 (client_of_json client_json) in
              let* () =
                at 2
                  (check_sources "client skeleton"
                     client.Llm.Client.snap_skeletons)
              in
              let* stats_json = at 3 (Obs.Json.parse (List.nth rest 1)) in
              let* stats = at 3 (Difftest.Stats.of_json stats_json) in
              let* coverage_json = at 4 (Obs.Json.parse (List.nth rest 2)) in
              let* coverage = at 4 (Obs.Coverage.of_json coverage_json) in
              let rest = List.filteri (fun i _ -> i >= 3) rest in
              let* recorder, rest =
                if has_recorder then
                  match rest with
                  | line :: tl ->
                      let* json = at 5 (Obs.Json.parse line) in
                      let* r = at 5 (recorder_of_json json) in
                      Ok (Some r, tl)
                  | [] -> err "%s: missing recorder line" p
                else Ok (None, rest)
              in
              (* Slot lines follow the recorder line, when there is one. *)
              let first_slot_line = if has_recorder then 6 else 5 in
              let* slots =
                List.fold_left
                  (fun acc (i, line) ->
                    let* acc = acc in
                    let* json = at i (Obs.Json.parse line) in
                    let* s = at i (slot_of_json json) in
                    Ok (s :: acc))
                  (Ok [])
                  (List.mapi (fun i l -> (first_slot_line + i, l)) rest)
                |> Result.map List.rev
              in
              Ok
                {
                  seed;
                  approach;
                  budget;
                  precision;
                  interval;
                  next_slot;
                  generation_failures;
                  sim_seconds;
                  rng;
                  input_rng;
                  trace_offset;
                  bandit;
                  grow_seeds;
                  client;
                  stats;
                  coverage;
                  recorder;
                  slots;
                })

(* ------------------------------------------------------------------ *)
(* Trace file reopening *)

let reopen_trace ~path:trace_path t =
  let offset = Option.value t.trace_offset ~default:0 in
  let fd =
    Unix.openfile trace_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  (match Unix.ftruncate fd offset with
  | () -> ignore (Unix.lseek fd offset Unix.SEEK_SET)
  | exception e ->
      Unix.close fd;
      raise e);
  Unix.out_channel_of_descr fd
