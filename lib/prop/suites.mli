(** The framework's property suites: the invariants the differential
    oracle itself rests on, packaged as named, seeded, replayable checks.

    Each suite pairs an arbitrary with a predicate and is run either from
    [llm4fp fuzz] (all suites, or one by name, or a single-case replay
    from a printed seed) or from the Alcotest harness (fixed seed, small
    count) so the tier-1 gate exercises the same properties. *)

type result = {
  suite : string;
  iterations : int;  (** cases passed (the full count on success) *)
  failure : string option;  (** {!Engine.pp_failure} report when failed *)
  replay_seed : int64 option;  (** seed replaying the counterexample *)
}

type suite = {
  name : string;
  doc : string;
  run : ?count:int -> seed:int64 -> unit -> result;
  replay : int64 -> result;  (** re-check the single case from a seed *)
}

val all : suite list
(** Every suite, in display order. Names:
    [gen-valid], [gen-inputs-match], [interp-total], [fold-preserves],
    [dce-preserves], [forward-preserves], [contract-idempotent],
    [pp-parse-fixpoint], [case-codec-roundtrip], [digits-total],
    [chance-one-draw], [eft-two-sum], [eft-two-prod], [bleu-range],
    [bleu-self], [codebleu-symmetric], [multiset-equiv], [subtree-ids],
    [blind-key], [vm-equiv], [shared-binary-equiv], [fleet-merge]. *)

val find : string -> suite option

val passed : result -> bool
