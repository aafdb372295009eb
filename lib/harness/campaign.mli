(** Campaign runner: one approach, one budget, full pipeline.

    Implements Figure 1's loop. For each of the [budget] slots: select a
    generation strategy (for LLM4FP, a fair coin between Grammar-Based
    Generation and Feedback-Based Mutation once the successful set is
    non-empty — §2.3), obtain a candidate program, pair it with a fresh
    input vector, push it through the compilation driver and differential
    testing, and feed programs that triggered at least one inconsistency
    back into the successful set. All costs are charged to a simulated
    clock via {!Time_model}.

    Everything is deterministic in [seed]. *)

type outcome = {
  approach : Approach.t;
  budget : int;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
      (** search-space coverage ledger: every inconsistent comparison's
          (kind × pair × level × value-class) cell, with hit counts,
          first-discovery provenance and rolling novelty telemetry.
          Purely observational, deterministic in [seed], and snapshotted
          by checkpoints. *)
  programs : Lang.Ast.program list;
      (** valid generated programs in generation order (diversity input) *)
  cases : (Lang.Ast.program * Irsim.Inputs.t) list;
      (** the same programs paired with their input vectors, so ablation
          studies can replay the corpus under modified compiler models *)
  generation_failures : int;
      (** budget slots whose candidate failed to parse or validate *)
  successful : int;  (** final size of the feedback set *)
  sim_seconds : float;       (** total modelled wall-clock *)
  llm_seconds : float;       (** the API-latency share *)
  real_seconds : float;      (** actually measured compute time *)
  bandit : Bandit.t option;
      (** final arm posteriors ({!Bandit.table} renders them); [None]
          outside bandit campaigns *)
}

val run :
  ?budget:int ->
  ?precision:Lang.Ast.precision ->
  ?recorder:Difftest.Recorder.t ->
  ?checkpoint:string * int ->
  ?resume:Checkpoint.t ->
  ?slot_offset:int ->
  ?grow_seeds:Lang.Ast.program list ->
  seed:int ->
  Approach.t ->
  outcome
(** [budget] defaults to 1000 (the paper's); [precision] to FP64 (the
    paper's default — §3.1.3 notes the extension to FP32, which this
    parameter provides: programs are generated, printed, compiled and
    executed in single precision, and nvcc's [-use_fast_math] intrinsics
    then genuinely apply).

    [recorder] (none by default) attaches a {!Difftest.Recorder} flight
    recorder: every first-seen inconsistency — cross {e and} within —
    is archived as a replayable case file. Recording is purely
    observational; it changes no statistic, no RNG draw and no feedback
    decision.

    [checkpoint:(dir, interval)] durably snapshots the complete loop
    state into [dir] every [interval] slots ({!Checkpoint.write}:
    atomic temp + rename, fsync'd), at the slot boundary, never after
    the final slot. Checkpointing off means zero behaviour change; on,
    it adds only the snapshot writes — no RNG draw, no statistic, no
    trace event differs.

    [resume] restores a {!Checkpoint.load}ed snapshot and continues at
    its [next_slot]. The caller's [seed], [budget], [precision] and
    approach must match the snapshot ([Invalid_argument] otherwise),
    and the caller is responsible for truncating a trace file to the
    snapshot's offset {e before} subscribing its sink
    ({!Checkpoint.reopen_trace}). A resumed campaign's outcome, trace
    bytes and case archives are identical to the uninterrupted run's,
    at any kill point.

    [grow_seeds] (default empty) is the grow arm's external seed pool —
    typically archived cases loaded with {!Reduce.grow_pool} from a
    previous campaign's [--record] directory. Only a bandit campaign
    reads it: the grow arm draws a seed from [grow_seeds] plus the
    current feedback set and applies {!Gen.Grow}'s validity-preserving
    growth moves. The pool is snapshotted into checkpoints (as C
    renderings), so a resumed run ignores the caller's value and
    restores the original pool.

    For [Approach.Bandit], the per-slot strategy is chosen by an
    epsilon-greedy bandit ({!Bandit}) over five arms — mutate, varity,
    direct, grammar, grow — maximising recent inconsistencies per
    simulated second. The bandit draws from its own split stream
    (exactly two draws per slot), so fixed-arm campaigns' draw
    sequences are untouched, and its full posterior rides in the
    checkpoint for byte-identical kill/resume. Every choice is traced
    as an {!Obs.Event.Arm_chosen} event just before [Slot_started].

    [slot_offset] (default 0) shifts every {e reported} slot number —
    trace events, archived-case provenance,
    coverage recordings — by the given amount, without touching the
    loop itself: RNG draws, feedback decisions, checkpoint contents and
    resume logic all keep the campaign-local [1..budget] indices. The
    fleet layer runs each chunk as an independent campaign with
    [slot_offset = first_slot - 1], so merged traces and ledgers carry
    globally unique slot numbers. At offset 0, behaviour is
    bit-identical to before the parameter existed. *)

val check_resume : dir:string -> Checkpoint.t -> (unit, string) result
(** Decode the bandit posterior of a snapshot {!Checkpoint.load}ed from
    [dir] (which that layer keeps opaque). A damaged posterior, or a
    bandit snapshot without one, is an [Error] naming the file and
    line 1, so a resume can refuse it before any slot runs instead of
    {!run} raising [Invalid_argument]. Call it right after the load. *)

val signature : outcome -> int * int * int * int * float
(** (total inconsistencies, total comparisons, feedback-set size,
    generation failures, simulated seconds): the outcome fields that
    every determinism drill asserts invariant — under checkpoint/resume,
    attached observers and the experiment suite's job count. Shared by
    the equivalence tests so they all compare the same key. *)

val strategy_mix_probability : float
(** 0.5 — the paper's fixed probability of choosing Feedback-Based
    Mutation once examples exist (§3.1.4). *)
