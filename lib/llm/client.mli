(** The mock LLM client.

    Stands in for the paper's GPT-4.1-mini API endpoint (§3.1.4): takes a
    prompt, returns C source text, charges simulated latency. The
    response is {e text}, not an AST — exactly like a real model, it can
    occasionally be wrong (an unknown library function, a missing
    initializer), and the downstream compilation driver rejects such
    programs, consuming budget (§2.3.1 discusses why the guidelines exist
    to make this rare rather than impossible).

    Behaviour per prompt shape, modelling the paper's observations:

    - {b Direct}: samples from the "safe and common" corpus subset (the
      paper infers that open-ended prompts make the model follow common
      patterns), then applies light structural variation. High mutual
      similarity, no literal clones. Highest mistake rate (4%).
    - {b Grammar}: sticks to the given structure; with substantial
      probability it re-instantiates a remembered skeleton (fresh names,
      jittered constants) — the pattern-repetition the paper measures as
      a 42% CodeBLEU increase and the appearance of Type-2/2c clones.
      Otherwise it produces a fresh program: a corpus kernel restructured
      by mutation, or a grammar-derived composition.
    - {b Mutate}: applies one to three of the five mutation strategies to
      the example program.

    Latency: [rtt + prompt_tokens/input_rate + output_tokens/output_rate]
    with rtt 0.5 s, input 500 tok/s, output 55 tok/s — calibrated so a
    1000-program campaign spends roughly the hour of API time the paper
    reports (~30% of its LLM campaigns' wall-clock). *)

type t

val create : ?params:Sampler.params -> seed:int -> unit -> t
(** Deterministic session. [params] defaults to {!Sampler.paper_params}. *)

type response = {
  source : string;        (** C translation-unit or compute-function text *)
  latency : float;        (** simulated seconds for this call *)
  prompt_tokens : int;
  output_tokens : int;
}

val generate : t -> Prompt.t -> response
(** Transient failures ({!Exec.Faults.Transient}, injected before any
    generation randomness) are retried up to twice with deterministic
    exponential backoff folded into the response latency; exhaustion
    re-raises the original failure. A retried call returns the
    identical program. Counted by the [retry.llm.*] metrics. *)

val calls : t -> int
val total_latency : t -> float

type snapshot = {
  snap_rng : int64 * float option;
  snap_sampler : (string * int) list;
  snap_skeletons : string list;  (** C renderings, newest first *)
  snap_seen : string list;  (** sorted clone keys *)
  snap_calls : int;
  snap_total_latency : float;
}
(** The complete mutable session state, in durable (string/number)
    form: skeletons travel as their C rendering and are re-parsed on
    restore ([Pp]/[Cparse.Parse] are structural inverses). *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> (unit, string) result
(** Overwrite [t]'s session state with [snapshot]. After a successful
    restore, [t] replays exactly the stream the snapshotted session
    would have produced. Fails (naming the skeleton) if a stored
    rendering no longer parses. *)

val generation_config : Gen.Gen_config.t
(** The regime for grammar-derived composition and for drawing runtime
    inputs for LLM-generated programs (sensible magnitudes). *)

val flaw_rate : Prompt.t -> float
(** Probability this prompt shape yields an invalid program (exposed for
    tests and documentation). *)

type flaw =
  | Unknown_function  (** [comp] initialised by [erf], outside the subset *)
  | Uninitialized_variable  (** a declaration without initializer *)
  | Undefined_call  (** a call to a function that does not exist *)

val flaws : flaw array
(** Every mistake kind, in the order a flawed response draws them
    (uniformly, one [Rng.int] draw). *)

val apply_flaw : Lang.Ast.precision -> flaw -> string -> string
(** The mistake injected into a response's source text, anchored on the
    [comp] declaration of the given precision ([double] or [float]). *)
