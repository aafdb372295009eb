type outcome = {
  approach : Approach.t;
  budget : int;
  stats : Difftest.Stats.t;
  coverage : Obs.Coverage.t;
  programs : Lang.Ast.program list;
  cases : (Lang.Ast.program * Irsim.Inputs.t) list;
  generation_failures : int;
  successful : int;
  sim_seconds : float;
  llm_seconds : float;
  real_seconds : float;
  bandit : Bandit.t option;
}

let strategy_mix_probability = 0.5

let m_slots = Obs.Metrics.counter "campaign.slots"
let m_generation_failures = Obs.Metrics.counter "campaign.generation_failures"
let m_feedback_size = Obs.Metrics.gauge "campaign.feedback_size"
let m_sim_seconds = Obs.Metrics.gauge "campaign.sim_seconds"

let precision_name = function Lang.Ast.F64 -> "fp64" | Lang.Ast.F32 -> "fp32"

let run ?(budget = 1000) ?(precision = Lang.Ast.F64) ?recorder ?checkpoint
    ?resume ?(slot_offset = 0) ?(grow_seeds = []) ~seed approach =
  (match checkpoint with
  | Some (_, interval) when interval <= 0 ->
    invalid_arg "Campaign.run: checkpoint interval must be positive"
  | _ -> ());
  let rng = Util.Rng.of_int seed in
  (* The 18-configuration matrix is immutable for the whole campaign:
     build it once here instead of once per budget slot. *)
  let configs = Compiler.Config.all () in
  let input_rng = Util.Rng.split rng in
  (* The bandit owns its own split stream, taken only in bandit mode so
     every fixed-arm campaign's draw sequence is unchanged. Selection
     burns exactly two draws per slot from this stream, never from the
     strategy or input streams. *)
  let bandit =
    match approach with
    | Approach.Bandit -> Some (Bandit.create ~rng:(Util.Rng.split rng) ())
    | _ -> None
  in
  let clock = Util.Sim_clock.create () in
  let client = Llm.Client.create ~seed:(seed lxor 0x5eed) () in
  (* The grow arm's external seed pool. On resume the snapshot's stored
     renderings are authoritative — they are exactly the pool the
     interrupted run drew from, independent of what the caller can
     still locate on disk. *)
  let grow_seeds =
    match resume with
    | None -> grow_seeds
    | Some snap ->
      List.map
        (fun source ->
          match Cparse.Parse.program source with
          | Ok p -> p
          | Error msg ->
            invalid_arg ("Campaign.run: checkpoint grow seed: " ^ msg))
        snap.Checkpoint.grow_seeds
  in
  let stats =
    match resume with
    | None -> Difftest.Stats.create ()
    | Some snap -> snap.Checkpoint.stats
  in
  (* The coverage ledger is always on and purely observational: feeding
     it draws no randomness and changes no campaign decision, it only
     measures which cells of the inconsistency space have lit up. *)
  let coverage =
    match resume with
    | None -> Obs.Coverage.create ()
    | Some snap -> snap.Checkpoint.coverage
  in
  let successful = ref [] in
  let n_successful = ref 0 in
  let programs = ref [] in
  let cases = ref [] in
  (* Feedback flags, newest first, aligned with [cases]: which valid
     programs are members of the successful set. Maintained whether or
     not checkpointing is on (one cons per slot) so the history can be
     snapshotted at any boundary. *)
  let feedback_flags = ref [] in
  let generation_failures = ref 0 in
  (* Restoring a snapshot replays the loop's complete state: both RNG
     streams, the LLM session, clock, stats, counters, and the valid
     slot history (from which programs/cases/successful rebuild in
     order). Identity fields must match the caller's arguments — a
     checkpoint resumes the campaign it came from, nothing else. *)
  (match resume with
  | None -> ()
  | Some snap ->
    let check name got want =
      if got <> want then
        invalid_arg
          (Printf.sprintf
             "Campaign.run: resume mismatch: checkpoint has %s %s, caller \
              passed %s"
             name got want)
    in
    check "seed" (string_of_int snap.Checkpoint.seed) (string_of_int seed);
    check "approach" snap.Checkpoint.approach (Approach.name approach);
    check "budget" (string_of_int snap.Checkpoint.budget)
      (string_of_int budget);
    check "precision" snap.Checkpoint.precision (precision_name precision);
    Util.Rng.set_state rng snap.Checkpoint.rng;
    Util.Rng.set_state input_rng snap.Checkpoint.input_rng;
    Util.Sim_clock.advance clock snap.Checkpoint.sim_seconds;
    (match Llm.Client.restore client snap.Checkpoint.client with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Campaign.run: " ^ msg));
    (match (bandit, snap.Checkpoint.bandit) with
    | Some b, Some json -> (
      match Bandit.restore b json with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Campaign.run: bandit state: " ^ msg))
    | Some _, None ->
      invalid_arg
        "Campaign.run: resume mismatch: bandit campaign, but the checkpoint \
         has no bandit state"
    | None, _ -> ());
    (match (recorder, snap.Checkpoint.recorder) with
    | Some r, Some rs ->
      Difftest.Recorder.restore r
        ( rs.Checkpoint.rec_seen,
          rs.Checkpoint.rec_recorded,
          rs.Checkpoint.rec_duplicates )
    | _ -> ());
    List.iter
      (fun { Checkpoint.program; inputs; feedback } ->
        programs := program :: !programs;
        cases := (program, inputs) :: !cases;
        feedback_flags := feedback :: !feedback_flags;
        if feedback then begin
          successful := program :: !successful;
          incr n_successful
        end)
      snap.Checkpoint.slots;
    generation_failures := snap.Checkpoint.generation_failures);
  let first_slot =
    match resume with None -> 1 | Some snap -> snap.Checkpoint.next_slot
  in
  let write_checkpoint ~dir ~interval slot =
    (* Durably flush the trace first: the stored offset marks the slot
       boundary, so a resumed run can truncate away any events the
       interrupted run flushed beyond it. *)
    let trace_offset = Obs.Trace.sync () in
    let slots =
      List.rev_map2
        (fun (program, inputs) feedback ->
          { Checkpoint.program; inputs; feedback })
        !cases !feedback_flags
    in
    Checkpoint.write ~dir
      {
        Checkpoint.seed;
        approach = Approach.name approach;
        budget;
        precision = precision_name precision;
        interval;
        next_slot = slot + 1;
        generation_failures = !generation_failures;
        sim_seconds = Util.Sim_clock.elapsed clock;
        rng = Util.Rng.state rng;
        input_rng = Util.Rng.state input_rng;
        trace_offset;
        bandit = Option.map Bandit.to_json bandit;
        grow_seeds = List.map Lang.Pp.to_c grow_seeds;
        client = Llm.Client.snapshot client;
        stats;
        coverage;
        recorder =
          Option.map
            (fun r ->
              let seen, recorded, duplicates = Difftest.Recorder.snapshot r in
              {
                Checkpoint.rec_dir = Difftest.Recorder.dir r;
                rec_seen = seen;
                rec_recorded = recorded;
                rec_duplicates = duplicates;
              })
            recorder;
        slots;
      }
  in
  let t_start = Unix.gettimeofday () in
  (* Every LLM response passes the generation front end, parse then
     validate; a rejected candidate costs its slot as a generation
     failure. An admitted one keeps its admission, which spares the
     host front end its re-parse. *)
  let llm_generate prompt =
    let response = Llm.Client.generate client prompt in
    Time_model.charge_llm clock response.Llm.Client.latency;
    Result.map
      (fun a -> (Compiler.Driver.admitted_program a, Some a))
      (Compiler.Driver.admit response.Llm.Client.source)
  in
  let arm_strategy = function
    | Bandit.Mutate -> `Mutate
    | Bandit.Varity -> `Varity
    | Bandit.Direct -> `Direct
    | Bandit.Grammar -> `Grammar
    | Bandit.Grow -> `Grow
  in
  let arm_of_strategy = function
    | `Mutate -> Bandit.Mutate
    | `Varity -> Bandit.Varity
    | `Direct -> Bandit.Direct
    | `Grammar -> Bandit.Grammar
    | `Grow -> Bandit.Grow
  in
  (* The per-slot strategy is drawn first (same RNG order as ever) so it
     can be traced even when generation subsequently fails. In bandit
     mode the choice comes from the bandit's own stream instead and is
     traced as an [Arm_chosen] event just before the slot starts. *)
  let choose_strategy rslot =
    match approach with
    | Approach.Varity -> `Varity
    | Approach.Direct_prompt -> `Direct
    | Approach.Grammar_guided -> `Grammar
    | Approach.Llm4fp ->
      if !successful <> [] && Util.Rng.chance rng strategy_mix_probability
      then `Mutate
      else `Grammar
    | Approach.Bandit ->
      let b = Option.get bandit in
      let choice =
        Bandit.select b
          ~now:(Util.Sim_clock.elapsed clock)
          ~mutate_ok:(!successful <> [])
          ~grow_ok:(grow_seeds <> [] || !successful <> [])
      in
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Event.Arm_chosen
             {
               slot = rslot;
               arm = Bandit.arm_name choice.Bandit.arm;
               pulls = choice.Bandit.pulls_before;
               reward = choice.Bandit.estimate;
               explore = choice.Bandit.explore;
             });
      arm_strategy choice.Bandit.arm
  in
  let strategy_name = function
    | `Varity -> "varity"
    | `Direct -> "direct"
    | `Grammar -> "grammar"
    | `Mutate -> "mutate"
    | `Grow -> "grow"
  in
  let generate strategy :
      (Lang.Ast.program * Compiler.Driver.admitted option, _) result =
    match strategy with
    | `Varity ->
      Ok ({ (Gen.Varity.generate rng) with Lang.Ast.precision }, None)
    | `Direct -> llm_generate (Llm.Prompt.Direct { precision })
    | `Grammar -> llm_generate (Llm.Prompt.Grammar { precision })
    | `Mutate ->
      let example = Util.Rng.choose_list rng !successful in
      llm_generate (Llm.Prompt.Mutate { precision; example })
    | `Grow ->
      (* Reverse-shrink: start from an archived or successful case and
         apply validity-preserving growth moves. No LLM call — this arm
         costs framework time only. *)
      let pool = grow_seeds @ !successful in
      let sprout = Util.Rng.choose_list rng pool in
      Ok ({ (Gen.Grow.grow rng sprout) with Lang.Ast.precision }, None)
  in
  (* Per strategy, not per approach: under the bandit a Varity slot
     keeps Varity's input ranges and LLM arms keep the LLM config —
     exactly what the corresponding fixed-arm campaign would use for
     that slot. Grow takes the LLM ranges since its seeds are archived
     or feedback programs generated under them. *)
  let input_config = function
    | `Varity -> Gen.Varity.config
    | `Direct | `Grammar | `Mutate | `Grow -> Llm.Client.generation_config
  in
  let framework_cost = function
    | `Varity | `Grow -> Time_model.framework
    | `Direct | `Grammar | `Mutate -> Time_model.framework_llm
  in
  (* A resumed run appends to a trace that already opens with the
     original Campaign_started event (the stored offset covers it). *)
  if resume = None && Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Campaign_started
         {
           approach = Approach.name approach;
           budget;
           seed;
           precision = precision_name precision;
         });
  Obs.Span.with_clock clock (fun () ->
      for slot = first_slot to budget do
        (* The loop variable is campaign-local (checkpoints store it);
           [rslot] is what observers see — offset into the fleet's
           global slot space, so merged traces, archives and coverage
           ledgers carry globally unique slot numbers. At the default
           offset 0 the two coincide and nothing changes. *)
        let rslot = slot_offset + slot in
        (Obs.Trace.with_slot rslot @@ fun () ->
        Obs.Span.with_span "campaign.slot" @@ fun () ->
        Obs.Metrics.incr m_slots;
        let incons_before = Difftest.Stats.total_inconsistencies stats in
        let sim_before = Util.Sim_clock.elapsed clock in
        let strategy = choose_strategy rslot in
        Util.Sim_clock.advance clock (framework_cost strategy);
        if Obs.Trace.on () then
          Obs.Trace.emit
            (Obs.Event.Slot_started
               { slot = rslot; strategy = strategy_name strategy });
        (match
           Obs.Span.with_span "campaign.generate" (fun () -> generate strategy)
         with
        | Error failure ->
          incr generation_failures;
          Obs.Metrics.incr m_generation_failures;
          Difftest.Stats.add_generation_failure stats;
          if Obs.Trace.on () then begin
            (match failure with
            | `Parse reason ->
              Obs.Trace.emit (Obs.Event.Parse_failed { slot = rslot; reason })
            | `Validate reason ->
              Obs.Trace.emit
                (Obs.Event.Validation_failed { slot = rslot; reason }));
            Obs.Trace.emit
              (Obs.Event.Slot_finished
                 {
                   slot = rslot;
                   outcome = "generation_failed";
                   sim_s = Util.Sim_clock.elapsed clock;
                 })
          end
        | Ok (program, admitted) ->
          programs := program :: !programs;
          let inputs =
            Gen.Generate.gen_inputs input_rng (input_config strategy) program
          in
          cases := (program, inputs) :: !cases;
          let result =
            Obs.Span.with_span "campaign.difftest" (fun () ->
                let result =
                  Difftest.Run.test ~configs ?admitted program inputs
                in
                Time_model.charge_program clock
                  ~work:result.Difftest.Run.total_work
                  ~ops:result.Difftest.Run.total_ops
                  ~configs:(List.length result.Difftest.Run.outputs);
                result)
          in
          Difftest.Stats.add stats result;
          (* Flight recorder: archive every first-seen inconsistency.
             Purely observational — stats, feedback and RNG draws are
             identical with or without a recorder attached. *)
          (match recorder with
          | None -> ()
          | Some recorder ->
            Obs.Span.with_span "campaign.record" @@ fun () ->
            List.iter
              (fun case -> ignore (Difftest.Recorder.record recorder case))
              (Difftest.Case.of_result ~seed ~slot:rslot ~program ~inputs
                 result));
          (* Coverage ledger: every inconsistent comparison lights its
             cell. Recorded in the result's deterministic key order at
             the slot's final simulated time. *)
          let sim_now = Util.Sim_clock.elapsed clock in
          List.iter
            (fun key ->
              let novel =
                Obs.Coverage.record coverage ~slot:rslot
                  ~strategy:(strategy_name strategy) ~sim_s:sim_now key
              in
              if Obs.Trace.on () then
                Obs.Trace.emit
                  (if novel then
                     Obs.Event.Coverage_novel
                       {
                         slot = rslot;
                         kind = key.Obs.Coverage.kind;
                         pair = key.Obs.Coverage.pair;
                         level = key.Obs.Coverage.level;
                         classes = key.Obs.Coverage.classes;
                         strategy = strategy_name strategy;
                         cells = Obs.Coverage.total_cells coverage;
                         sim_s = sim_now;
                       }
                   else
                     Obs.Event.Coverage_hit
                       {
                         slot = rslot;
                         kind = key.Obs.Coverage.kind;
                         pair = key.Obs.Coverage.pair;
                         level = key.Obs.Coverage.level;
                         classes = key.Obs.Coverage.classes;
                         strategy = strategy_name strategy;
                         hits =
                           (match Obs.Coverage.find coverage key with
                           | Some c -> c.Obs.Coverage.hits
                           | None -> 0);
                       }))
            (Difftest.Run.coverage_keys result);
          let inconsistent = Difftest.Run.has_inconsistency result in
          let feedback =
            (approach = Approach.Llm4fp || approach = Approach.Bandit)
            && inconsistent
          in
          feedback_flags := feedback :: !feedback_flags;
          if feedback then begin
            successful := program :: !successful;
            incr n_successful;
            if Obs.Trace.on () then
              Obs.Trace.emit
                (Obs.Event.Feedback_added
                   { slot = rslot; feedback_size = !n_successful })
          end;
          if Obs.Trace.on () then
            Obs.Trace.emit
              (Obs.Event.Slot_finished
                 {
                   slot = rslot;
                   outcome =
                     (if inconsistent then "inconsistent" else "consistent");
                   sim_s = Util.Sim_clock.elapsed clock;
                 }));
        (* Reward the pulled arm with the slot's whole delta — framework
           charge, LLM latency and execution cost all count, so the rate
           the bandit optimises is the same inconsistencies per
           simulated second the coverage observatory reports. *)
        match bandit with
        | None -> ()
        | Some b ->
          Bandit.update b (arm_of_strategy strategy)
            ~inconsistencies:
              (Difftest.Stats.total_inconsistencies stats - incons_before)
            ~sim_cost:(Util.Sim_clock.elapsed clock -. sim_before)
            ~now:(Util.Sim_clock.elapsed clock));
        (* Checkpoint at the slot boundary (outside the slot context):
           every event of the slot has been emitted, so the synced trace
           offset is a clean cut line. Never written after the final
           slot — a checkpoint always has work left, so resume is
           meaningful and idempotent. *)
        match checkpoint with
        | Some (dir, interval) when slot mod interval = 0 && slot < budget ->
          Obs.Span.with_span "campaign.checkpoint" (fun () ->
              write_checkpoint ~dir ~interval slot)
        | _ -> ()
      done);
  Obs.Metrics.set m_feedback_size (float_of_int !n_successful);
  Obs.Metrics.add m_sim_seconds (Util.Sim_clock.elapsed clock);
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Campaign_finished
         {
           approach = Approach.name approach;
           valid = List.length !programs;
           generation_failures = !generation_failures;
           inconsistencies = Difftest.Stats.total_inconsistencies stats;
           comparisons = Difftest.Stats.total_comparisons stats;
           sim_seconds = Util.Sim_clock.elapsed clock;
           llm_seconds = Llm.Client.total_latency client;
         });
  {
    approach;
    budget;
    stats;
    coverage;
    programs = List.rev !programs;
    cases = List.rev !cases;
    generation_failures = !generation_failures;
    successful = !n_successful;
    sim_seconds = Util.Sim_clock.elapsed clock;
    llm_seconds = Llm.Client.total_latency client;
    real_seconds = Unix.gettimeofday () -. t_start;
    bandit;
  }

(* [Checkpoint.load] keeps the bandit posterior opaque (it sits below
   this layer); decoding it into a cold bandit here turns damage into a
   located error before any slot runs. *)
let check_resume ~dir (snap : Checkpoint.t) =
  let located msg =
    Error
      (Printf.sprintf "%s: line 1: bandit state: %s" (Checkpoint.path ~dir)
         msg)
  in
  match snap.Checkpoint.bandit with
  | Some json -> (
    match Bandit.restore (Bandit.create ~rng:(Util.Rng.of_int 0) ()) json with
    | Ok () -> Ok ()
    | Error msg -> located msg)
  | None when snap.Checkpoint.approach = Approach.name Approach.Bandit ->
    located "missing"
  | None -> Ok ()

(* The equality key used by determinism drills (the checkpoint, observer
   and suite jobs-invariance tests): everything about an outcome that
   must be invariant under the suite's job count, checkpointing and
   observation — but not the real-time measurements, which always
   differ. *)
let signature (o : outcome) =
  ( Difftest.Stats.total_inconsistencies o.stats,
    Difftest.Stats.total_comparisons o.stats,
    o.successful,
    o.generation_failures,
    o.sim_seconds )
