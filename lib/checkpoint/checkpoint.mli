(** Durable campaign checkpoints.

    The paper's campaigns are hours-long loops; a production service
    must survive a crash, OOM-kill or preemption mid-campaign without
    corrupting archives or discarding completed slots. A checkpoint is
    a versioned JSONL snapshot ([schema "llm4fp-checkpoint/3"]) of the
    {e complete} campaign loop state, written atomically
    ({!Util.Durable.write_atomic}) every N slots at a slot boundary:

    - both RNG streams (strategy and input), including the banked
      Box–Muller halves;
    - the LLM session ({!Llm.Client.snapshot}: its RNG, sampler usage,
      skeleton memory, clone-key history, call counters);
    - the running {!Difftest.Stats.t};
    - the {!Obs.Coverage} ledger (cells, rolling window, plateau
      state), so resumed runs keep emitting the same coverage events
      and telemetry an uninterrupted run would;
    - every valid program so far with its input vector and feedback
      flag (programs travel as C renderings — [Lang.Pp] and
      [Cparse.Parse] are structural inverses);
    - the simulated clock, generation-failure count, and the trace
      file's durable byte offset ({!Obs.Trace.sync});
    - the recorder's dedup set and counters, when one is attached;
    - for bandit campaigns, the arm posteriors with their rolling
      reward windows and the bandit stream's position, plus the grow
      arm's external seed pool (as C sources).

    [Harness.Campaign.run ~resume] restores all of it and continues at
    [next_slot]; the final outcome, trace bytes and case archives are
    identical to an uninterrupted run at any kill point.

    Sharded campaigns ([Harness.Fleet]) keep one checkpoint directory
    per chunk ([ROOT/chunk-%04d/ckpt/]), so a restarted shard resumes
    each interrupted chunk independently. Note the snapshot embeds the
    recorder's archive directory as an absolute path — byte-comparing
    two fleet roots must therefore exclude [ckpt/] (compare the
    per-chunk [outcome.json], trace and cases instead). *)

type slot = {
  program : Lang.Ast.program;
  inputs : Irsim.Inputs.t;
  feedback : bool;  (** member of the LLM4FP successful set *)
}

type recorder_state = {
  rec_dir : string;
  rec_seen : string list;  (** sorted fingerprints *)
  rec_recorded : int;
  rec_duplicates : int;
}

type t = {
  seed : int;
  approach : string;  (** {!Harness.Approach.name} *)
  budget : int;
  precision : string;  (** ["fp64"] or ["fp32"] *)
  interval : int;  (** slots between checkpoints *)
  next_slot : int;  (** first slot the resumed run executes *)
  generation_failures : int;
  sim_seconds : float;
  rng : int64 * float option;
  input_rng : int64 * float option;
  trace_offset : int option;
      (** durable byte offset of the trace file at the boundary; a
          resumed run truncates the trace back to it *)
  bandit : Obs.Json.t option;
      (** the bandit posterior and its stream position, opaque to this
          layer ([Harness.Bandit.to_json] produced it and
          [Harness.Bandit.restore] consumes it); [None] outside bandit
          campaigns *)
  grow_seeds : string list;
      (** C renderings of the grow arm's external seed pool, so resume
          rebuilds the exact pool without the archive directory *)
  client : Llm.Client.snapshot;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
  recorder : recorder_state option;
  slots : slot list;  (** valid programs in slot order *)
}

val path : dir:string -> string
(** [DIR/checkpoint.jsonl]. *)

val write : dir:string -> t -> unit
(** Atomically (re)write the checkpoint file. An
    {!Exec.Faults.Checkpoint_write} injection site — a crash here
    leaves the {e previous} checkpoint intact. *)

val load : dir:string -> (t, string) result
(** Read and fully decode a checkpoint, re-parsing stored programs and
    checking that every C rendering resume re-parses — the LLM
    session's skeletons and the grow arm's seeds — still parses.
    Truncation, schema or shape problems and such an unparseable
    rendering yield [Error] naming the file and line. *)

val reopen_trace : path:string -> t -> out_channel
(** Open the trace file for a resumed run: truncate to the
    checkpoint's [trace_offset] (events from slots after the
    checkpoint — flushed by the crashed run — are discarded) and
    position for appending. The caller owns the channel. *)
