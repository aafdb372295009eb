(** One module per paper table/figure: run the four campaigns once, then
    render each experiment from the shared outcomes.

    Conventions matching the paper's accounting (derived in
    EXPERIMENTS.md): Table 2's inconsistency rate divides by
    [budget × 3 pairs × 6 levels]; Table 5's cell percentages use the
    same global denominator (the per-pair Total row then sums to the
    overall rate, as in the paper); Table 6's cells divide by
    [budget × 3 compilers × 5 non-baseline levels]. Zero cells render
    as ["-"]. *)

type suite = {
  budget : int;
  seed : int;
  varity : Campaign.outcome;
  direct : Campaign.outcome;
  grammar : Campaign.outcome;
  llm4fp : Campaign.outcome;
  bandit : Campaign.outcome;
      (** the bandit-interleaved ensemble at the same budget — not a
          paper approach; it feeds the ablation section only *)
}

val run_suite : ?budget:int -> ?jobs:int -> seed:int -> unit -> suite
(** Five campaigns (the paper's four approaches plus the bandit
    ensemble) with decorrelated seeds derived from [seed].

    [jobs] (default 1) is the size of the shared {!Exec.Pool}: the
    independent campaigns fan out across it, each running its slots
    sequentially. Every campaign owns its RNG, simulated clock, LLM
    client and stats, so the suite is byte-identical at any job count. *)

val outcome : suite -> Approach.t -> Campaign.outcome

val table1 : unit -> string
(** Optimization levels and flags (configuration, not measurement). *)

val table2 : suite -> string
(** Effectiveness: inconsistency rate, count, simulated time cost. *)

val table3 : ?max_pairs:int -> ?jobs:int -> suite -> string
(** Diversity: mean pairwise CodeBLEU and clone counts. [max_pairs]
    bounds the CodeBLEU pair sample per approach (default
    {!Diversity.Codebleu.default_max_pairs});
    [jobs] fans the four per-approach CodeBLEU computations across the
    {!Exec.Pool} (scores are per-corpus, so the table is identical at
    any job count). *)

val figure3 : suite -> string
(** Inconsistency class-pair counts, Varity vs LLM4FP (the paper's bar
    chart, printed as a series table). *)

val table4 : suite -> string
(** LLM4FP class-pair counts per optimization level. *)

val table5 : suite -> string
(** Per-(pair, level) inconsistency rates and digit differences for
    Varity and LLM4FP. *)

val table6 : suite -> string
(** Within-compiler rates against 00_nofma. *)

val summary : suite -> string
(** Campaign header: compilers, flags, budget, seeds, model parameters. *)

type section = {
  name : string;   (** e.g. ["table2"] — doubles as the CSV file stem *)
  text : string;   (** the rendered plain-text table *)
  csv : string option;
      (** the same data as CSV ([None] for prose sections like the
          summary). Text and CSV are two views of one computation:
          requesting both does not run table3's CodeBLEU pass twice. *)
}

val section_names : string list
(** Every section's name, in paper order. *)

val section : ?max_pairs:int -> ?jobs:int -> suite -> string -> section
(** Compute one section by name (only that section's work runs).
    Raises [Invalid_argument] on a name outside {!section_names}. *)

val sections : ?max_pairs:int -> ?jobs:int -> suite -> section list
(** Every table and figure, in paper order. *)

val bandit_ablation : suite -> string
(** This reproduction's bandit ablation: the ensemble campaign against
    every fixed arm at equal budget, compared on the bandit's objective
    (inconsistencies per simulated second) with the bandit-minus-arm
    delta per row. *)

val feature_statistics : suite -> string
(** This reproduction's structural summary: mean program size, math-call
    and loop density, split multiply-add and accumulation patterns per
    approach — the features DESIGN.md's calibration story says drive the
    inconsistency-rate differences. *)

val precision_comparison : ?budget:int -> seed:int -> unit -> string
(** This reproduction's FP32 extension (§3.1.3 notes the paper's setup
    "could be easily extended" to single precision): Varity and LLM4FP
    campaigns at FP32 and FP64, side by side. Single precision shifts
    the balance — device fast-math intrinsics genuinely apply to floats,
    while the coarser grid absorbs more last-ulp library divergence. *)

val seed_stability : ?budget:int -> seeds:int list -> unit -> string
(** This reproduction's robustness check: the Table-2 inconsistency rate
    of every approach across several independent seeds, with min/mean/max
    per approach — evidence that the headline ordering is not a
    single-seed artifact. *)
