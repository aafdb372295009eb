(** Differential testing of one program (paper §2.4, §3.1).

    The program is compiled under every (compiler × optimization level)
    configuration and each binary runs on the same inputs. Two families
    of comparisons are recorded:

    - {b cross-compiler}: for every optimization level, every pair of
      compilers (3 pairs × 6 levels = 18 comparisons per program — the
      denominators of Tables 2 and 5);
    - {b within-compiler}: for every compiler, every level against its
      own [00_nofma] baseline (3 × 5 = 15 comparisons — Table 6).

    A comparison is inconsistent when the two printed results differ in
    their 16-character hexadecimal encodings. Each inconsistency carries
    the two value classes (RQ2) and the decimal digit difference (RQ3). *)

type output = {
  config : Compiler.Config.t;
  value : float;
  hex : string;
  ops : int;   (** dynamic FP operations, for the time model *)
  work : int;  (** optimized IR size, for the time model *)
}

type comparison = {
  level : Compiler.Optlevel.t;
  left : output;
  right : output;
  inconsistent : bool;
  class_left : Fp.Bits.class_;
  class_right : Fp.Bits.class_;
  digits : int;  (** 0 when consistent *)
}

type result = {
  outputs : output list;            (** successful configurations *)
  failures : (Compiler.Config.t * string) list;
  cross : ((Compiler.Personality.t * Compiler.Personality.t) * comparison) list;
  within : (Compiler.Personality.t * comparison) list;
      (** [comparison.level] is the non-baseline level; [left] ran at
          [00_nofma] *)
  total_work : int;
  total_ops : int;
}

val test :
  ?configs:Compiler.Config.t list ->
  Lang.Ast.program ->
  Irsim.Inputs.t ->
  result
(** Compile everywhere, run everything, compare. Comparisons involving a
    failed configuration are simply absent (the paper passes only
    successfully compiled binaries to differential testing). [configs]
    defaults to the full 18-configuration matrix; ablation studies pass
    modified matrices — campaigns build the list once and thread it
    through every slot.

    One pass over the configurations, in order: each is compiled
    through one shared {!Compiler.Driver.fronts} — the front end (emit +
    parse + validate + lower) runs once per {e target}, two passes per
    program instead of one per configuration — then executed, then
    booked.

    Executions are deduplicated: configurations whose back ends produced
    (post-pipeline IR, runtime) pairs equal under [Stdlib.compare] share
    one execution — the driver sorted them into one
    {!Compiler.Driver.exec_class} as it built them, and the class's
    first configuration runs it — and each configuration then books the
    shared outcome as its own run (metrics, trace event, totals). The
    outcome's hex encoding is made once per execution. The
    [exec.dedup.hits] / [exec.dedup.misses] counters expose the ratio;
    on the standard matrix the O1/O2/O3 levels of each personality
    collapse, roughly halving executions.

    Every binary runs on {!Irsim.Vm}, and its outputs are bit-exact with
    the {!Irsim.Interp} reference. Each configuration's [Compiled] trace
    event is followed directly by its [Executed] one, in configuration
    order, before the slot's [Inconsistency_found] and [Compared]
    events. *)

val coverage_keys : result -> Obs.Coverage.key list
(** The result's inconsistent comparisons projected to coverage-ledger
    keys: cross comparisons first (kind ["cross"], pair =
    {!Compiler.Personality.pair_name}), then within (kind ["within"],
    pair = the compiler's own name), each in the result's level-major
    construction order — so the campaign feeds its {!Obs.Coverage}
    ledger in a deterministic order. *)

val cross_inconsistencies : result -> int
val has_inconsistency : result -> bool
(** True when any cross-compiler comparison is inconsistent — the
    criterion for entering the feedback set (§2.4). *)
