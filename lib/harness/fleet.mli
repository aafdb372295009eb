(** The distributed campaign fleet: run budget chunks as independent
    mini-campaigns, persist a durable outcome per chunk, and merge any
    set of completed chunks into one combined record.

    Everything under a fleet root is keyed by {e chunk}, never by
    shard: [ROOT/chunk-%04d/] holds that chunk's JSONL trace, case
    archive, checkpoint directory and [outcome.json]. Which process ran
    a chunk leaves no mark, so a fleet at any shard count produces the
    byte-identical tree — the invariance the shard drills assert
    against the single-process reference ([--shard 0/1]).

    [outcome.json] doubles as the completion marker and is written
    durably ({!Util.Durable}) only after the chunk finishes: a
    restarted shard {e skips} chunks that have one, {e resumes} from
    the chunk's checkpoint when one exists, and otherwise reruns the
    chunk fresh. Combined with {!Campaign.run}'s byte-identical
    resume guarantee, a shard killed at any point and rerun converges
    to the same tree — the supervisor only has to respawn processes. *)

(** {1 Layout} *)

val chunk_dir : root:string -> int -> string
(** [ROOT/chunk-%04d]. *)

val trace_path : string -> string
(** [CHUNK_DIR/trace.jsonl]. *)

val cases_path : string -> string
(** [CHUNK_DIR/cases] — the chunk's {!Difftest.Recorder} archive. *)

val checkpoint_path : string -> string
(** [CHUNK_DIR/ckpt] — the chunk's {!Checkpoint} directory. *)

val outcome_path : string -> string
(** [CHUNK_DIR/outcome.json] — the completion marker. *)

(** {1 Chunk outcomes} *)

type chunk_outcome = {
  chunk : int;
  seed : int;          (** derived: {!Shard.chunk_seed} *)
  first_slot : int;    (** global slot of the chunk's first slot *)
  budget : int;        (** slots this chunk ran *)
  approach : string;
  precision : string;
  successful : int;
  generation_failures : int;
  sim_seconds : float;
  llm_seconds : float;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
  fingerprints : string list;  (** sorted archive fingerprints *)
}

val json_schema : string
(** ["llm4fp-fleet-chunk/1"]. *)

val outcome_to_json : chunk_outcome -> Obs.Json.t
(** Byte-stable: equal outcomes serialize identically (the conflict
    check and the shard-invariance drills compare these bytes). *)

val outcome_of_json : Obs.Json.t -> (chunk_outcome, string) result
val load_outcome : string -> (chunk_outcome, string) result

(** {1 Running} *)

type chunk_run =
  | Skipped  (** outcome.json already present — nothing ran *)
  | Resumed  (** continued from the chunk's checkpoint *)
  | Fresh    (** ran from slot 1 of the chunk *)

val run_chunk :
  ?precision:Lang.Ast.precision ->
  ?interval:int ->
  root:string ->
  Approach.t ->
  Shard.slice ->
  (chunk_outcome * chunk_run, string) result
(** Run (or skip, or resume) one chunk under the fleet root: a
    {!Campaign.run} with the slice's derived seed, budget and
    [slot_offset = first_slot - 1], recording into the chunk archive,
    checkpointing every [interval] slots (default 5) into the chunk's
    checkpoint directory, and writing the chunk's JSONL trace
    (the trace sink is process-global, so in-process shards must take
    turns). A pre-existing [outcome.json] is
    validated against the slice and returned as {!Skipped}. *)

val run_shard :
  ?chunk:int ->
  ?precision:Lang.Ast.precision ->
  ?interval:int ->
  ?on_chunk:(chunk_outcome -> chunk_run -> unit) ->
  root:string ->
  spec:Shard.spec ->
  budget:int ->
  seed:int ->
  Approach.t ->
  (chunk_outcome list, string) result
(** Run every chunk the shard owns ({!Shard.assigned} of
    {!Shard.plan}), in chunk order, calling [on_chunk] after each.
    Idempotent: rerunning a completed shard skips every chunk. *)

(** {1 Merging} *)

val merge_outcomes :
  chunk_outcome list ->
  chunk_outcome list ->
  (chunk_outcome list, string) result
(** Chunk-id-keyed union, ascending chunk order. Two outcomes for the
    same chunk must serialize to identical bytes — so the union is
    commutative, associative {e and} idempotent (the fleet-merge
    property suite's laws) — and conflicting duplicates (a
    mis-configured rerun) are an [Error], never a silent double
    count. *)

type merged = {
  chunks : chunk_outcome list;  (** ascending chunk order, unique *)
  total_budget : int;
  total_successful : int;
  total_generation_failures : int;
  total_sim_seconds : float;
  total_llm_seconds : float;
  merged_stats : Difftest.Stats.t;
      (** {!Difftest.Stats.merge} folded in chunk order *)
  merged_coverage : Obs.Coverage.t;
      (** {!Obs.Coverage.merge} folded in chunk order *)
  cases : Difftest.Case.t list;
      (** fingerprint-sorted union of the chunk archives *)
}

val merge_cases : Difftest.Case.t list list -> Difftest.Case.t list
(** Fingerprint-keyed union of per-chunk case lists, sorted by
    fingerprint — cases are content-addressed, so duplicates across
    chunks are byte-identical and the union is order-insensitive. *)

val summarize :
  chunk_outcome list ->
  Difftest.Case.t list list ->
  (merged, string) result
(** Fold outcomes (deduplicated and sorted by {!merge_outcomes}) and
    their per-chunk case lists into one {!merged} record. [Error] on
    an empty outcome set or a chunk-id conflict. *)

val load : root:string -> (merged, string) result
(** Scan the fleet root for completed chunks ([chunk-*/outcome.json]),
    load each outcome and its case archive (verifying the archive
    matches the outcome's fingerprint list), and {!summarize}.
    Deterministic: directory order never leaks (chunks sort by id,
    cases by fingerprint). *)

val signature : merged -> int * int * int * int * float
(** The fleet analogue of {!Campaign.signature}: (inconsistencies,
    comparisons, feedback-set total, generation failures, summed
    simulated seconds). Byte-comparable across shard counts. *)

val write_archive : dir:string -> merged -> unit
(** Write the merged case archive into [dir] (one
    [<fingerprint>.jsonl] per case, durable writes) — byte-identical
    to the union of the chunk archives, loadable by
    {!Difftest.Recorder.load_dir} and every downstream tool
    ([dashboard], [explain]). *)
