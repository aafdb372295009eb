(** The compilation driver (paper §2.4).

    Prepares a generated program for execution on host and device: the
    host path emits C and compiles it; the device path first translates C
    to CUDA ([compute] becomes a single-thread [__global__] kernel) and
    compiles that. "Compiling" means: emit the translation unit, re-parse
    it (the simulated front end — translation errors surface here, as
    real nvcc failures do), validate, lower to IR, and run the
    configuration's pass pipeline (constant folding → fast-math rewrites
    → FMA contraction → dead-store elimination). The result is a binary:
    optimized IR plus the runtime configuration.

    The front end is split from the back end: only the {e target}
    (host/device) decides the translation unit — gcc and clang compile
    the same host C — so one program needs exactly {e two} front-end
    passes, not one per configuration. {!fronts} carries the memoized
    per-target front ends and {!compile_with} runs only the per-config
    back end against them. The cache's effectiveness is observable as
    the [compiler.frontend.runs] / [compiler.frontend.cache_hits]
    metrics.

    Fault tolerance: every stage entry point (front end, back end,
    execution) is an {!Exec.Faults} injection site with a bounded-retry
    policy for transient failures — up to two retries with deterministic
    exponential backoff charged to the attached simulated clock
    ({!Obs.Span.charge_sim}); exhaustion re-raises the original
    {!Exec.Faults.Transient}. Counted by the [retry.compiler.*]
    metrics. *)

type exec_class
(** Which binaries of one program {!Difftest.Run} executes as one. *)

type binary = {
  config : Config.t;
  source : string;  (** the exact translation unit that was "compiled" *)
  ir : Irsim.Ir.t;  (** after the pass pipeline *)
  vm : Irsim.Vm.program;
      (** the flattened program, carrying the runtime pre-bound; one per
          distinct (IR, runtime) of a program, shared by every binary
          whose pair is {!Irsim.Ir.Identical} to it *)
  work : int;       (** IR node count, the compile/execute cost proxy *)
  exec_class : exec_class;
      (** the binaries of one program whose (IR, runtime) pairs are equal
          under [Stdlib.compare] — NaN-tolerant, so folded NaN constants
          still match — see {!same_exec_class} *)
}

val of_ir :
  config:Config.t -> source:string -> work:int -> Irsim.Ir.t -> binary
(** Package optimized IR as a binary, flattening it for the VM under
    [config]'s runtime, in an execution class of its own. Keeps
    hand-built binaries (isolation probes) executable. *)

val same_exec_class : binary -> binary -> bool
(** True when the two binaries come from one program's {!fronts} and
    their (IR, runtime) pairs are equal under [Stdlib.compare]. Decided
    when the back ends run, so it costs one physical comparison. *)

type target = [ `Host | `Device ]

type front
(** A completed front-end pass: the emitted translation unit, its
    lowered (pre-pipeline) IR, and the pipelines already run on it. *)

type fronts
(** Per-program front-end cache, at most one entry per target, and the
    program's flattened back-end outputs, shared by both targets. Lazy:
    each target's front end runs once, on first use. Nothing in it
    outlives the program's matrix. *)

val fronts : Lang.Ast.program -> fronts
(** An empty cache for [program]; no front-end work happens yet. *)

val target_of : Config.t -> target

val front_end : fronts -> target -> (front, string) result
(** The memoized front end: emit + parse + validate + lower, computed on
    first use per target and cached (errors are cached too). The error
    string carries no configuration name. *)

val back_end : Config.t -> front -> binary
(** The configuration's pass pipeline and flatten over the shared
    front-end IR (which is never mutated). Configurations whose
    effective [fold], [contract], [fastmath], [dce] and runtime agree
    run the pipeline once per front. Outputs whose IR is
    {!Irsim.Ir.Identical} and whose runtimes agree, on either target of
    the program, share one flattened program, so a program pays one
    flatten per distinct binary. Each configuration still gets its own
    [binary] record naming its own configuration, and each passes the
    [Back_end] fault-injection site before the lookup. *)

val compile_with : fronts -> Config.t -> (binary, string) result
(** [front_end] + [back_end] with the historic [compile] accounting:
    per-configuration success/failure metrics and [Compiled] trace
    events, and failure messages prefixed with the configuration name. *)

val compile : Config.t -> Lang.Ast.program -> (binary, string) result
(** One-shot compilation (a fresh single-use cache). Validation or
    lowering failure yields [Error] (a compilation failure; the harness
    counts it and moves on, per §2.4 "only binaries that compile
    successfully are passed to the next stage"). *)

val execute : binary -> Irsim.Inputs.t -> Irsim.Interp.outcome
(** Raw execution of [binary.vm] on {!Irsim.Vm.run}: the
    [compiler.interp] span and the fault-injection site, but no metrics
    and no trace event.
    {!Difftest.Run} uses this to run one binary per execution class and
    then {!account} the outcome to every configuration in the class. *)

val account : ?hex:string -> binary -> Irsim.Interp.outcome -> unit
(** Book an execution outcome against [binary]'s configuration: the
    [compiler.runs] / [compiler.fp_ops] metrics and (when tracing) an
    [Executed] event carrying the caller's slot. [hex] is the result's
    {!Fp.Bits.hex_of_double}, when the caller has it. *)

val run : binary -> Irsim.Inputs.t -> Irsim.Interp.outcome
(** [execute] + [account]: the historic one-call entry point. *)

val run_hex : binary -> Irsim.Inputs.t -> string
(** The 16-character hexadecimal encoding of the printed result — the
    comparison key of the paper's differential testing. *)

val matrix :
  ?configs:Config.t list ->
  Lang.Ast.program ->
  ((Config.t * binary, Config.t * string) Either.t) list
(** Compile under every configuration (default: the full 18-entry
    matrix), keeping per-configuration successes and failures in
    configuration order. The front end runs at most twice regardless of
    configuration count. *)
