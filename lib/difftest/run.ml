type output = {
  config : Compiler.Config.t;
  value : float;
  hex : string;
  ops : int;
  work : int;
}

type comparison = {
  level : Compiler.Optlevel.t;
  left : output;
  right : output;
  inconsistent : bool;
  class_left : Fp.Bits.class_;
  class_right : Fp.Bits.class_;
  digits : int;
}

type result = {
  outputs : output list;
  failures : (Compiler.Config.t * string) list;
  cross : ((Compiler.Personality.t * Compiler.Personality.t) * comparison) list;
  within : (Compiler.Personality.t * comparison) list;
  total_work : int;
  total_ops : int;
}

let m_programs = Obs.Metrics.counter "difftest.programs"
let m_cross = Obs.Metrics.counter "difftest.comparisons.cross"
let m_within = Obs.Metrics.counter "difftest.comparisons.within"
let m_cross_incons = Obs.Metrics.counter "difftest.inconsistencies.cross"
let m_within_incons = Obs.Metrics.counter "difftest.inconsistencies.within"

let m_digits =
  Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0; 12.0; 17.0 |]
    "difftest.digit_diffs"

let m_dedup_hits = Obs.Metrics.counter "exec.dedup.hits"
let m_dedup_misses = Obs.Metrics.counter "exec.dedup.misses"

(* Each side comes with its value prepared for the digit metric, so an
   output taking part in several comparisons is decomposed once. *)
let compare_outputs level ((left : output), left_digits)
    ((right : output), right_digits) =
  let inconsistent = left.hex <> right.hex in
  {
    level;
    left;
    right;
    inconsistent;
    class_left = Fp.Bits.classify left.value;
    class_right = Fp.Bits.classify right.value;
    digits =
      (if inconsistent then
         Fp.Digits.diff_count_prepared left_digits right_digits
       else 0);
  }

(* Outputs by configuration: one cell per (personality, level). *)
let n_levels = Array.length Compiler.Optlevel.all

let cell personality level =
  (Compiler.Personality.index personality * n_levels)
  + Compiler.Optlevel.index level

let test ?configs ?(jobs = 1) program inputs =
  let slot = Obs.Trace.current_slot () in
  (* Pool workers re-establish the campaign's slot context so their
     Executed trace events stay correlated. *)
  let in_slot go =
    match slot with Some s -> Obs.Trace.with_slot s go | None -> go ()
  in
  (* Phase 1 — compile every configuration through the shared
     front-end cache, in configuration order at any job count. At
     jobs = 1 the pool runs tasks inline, so the per-config compile
     spans nest under this one in the span tree; at jobs > 1 they
     record in worker domains and surface as that domain's roots. *)
  let compiled =
    Obs.Span.with_span "difftest.fanout" @@ fun () ->
    Array.of_list (Compiler.Driver.matrix ?configs ~jobs program)
  in
  let n = Array.length compiled in
  (* Phase 2 — deduplicate executions. Configurations whose back ends
     produced (post-pipeline IR, runtime) pairs equal under
     [Stdlib.compare] (NaN-tolerant, unlike [=], so folded NaN constants
     still dedup) are the same binary: one execution serves them all.
     The driver sorted the binaries into these classes as it built
     them, so a lookup is a physical comparison. The first configuration
     of a class becomes its leader, so grouping is deterministic in
     configuration order. *)
  let leader = Array.make n (-1) in
  let leaders_rev = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Either.Right _ -> ()
      | Either.Left (_, binary) -> begin
        match
          List.find_opt
            (fun (_, b) -> Compiler.Driver.same_exec_class b binary)
            !leaders_rev
        with
        | Some (lane, _) -> leader.(i) <- lane
        | None ->
          leaders_rev := (i, binary) :: !leaders_rev;
          leader.(i) <- i
      end)
    compiled;
  let leaders = List.rev !leaders_rev in
  (* Phase 3 — one execution per distinct binary, fanned out. Raw
     [execute]: accounting happens per configuration in phase 4. A trap
     (out-of-bounds subscript) is a reportable per-configuration
     failure, not a crash. Each outcome's hex encoding and digit
     decomposition are made once, for every configuration sharing it. *)
  let executed =
    Obs.Span.with_span "difftest.exec" @@ fun () ->
    Obs.Span.settle
      (Exec.Pool.map ~jobs
         (fun (_, binary) ->
           Obs.Span.deferred (fun () ->
               in_slot (fun () ->
                   match Compiler.Driver.execute binary inputs with
                   | out -> Ok out
                   | exception Irsim.Interp.Trap t ->
                     Error ("execution trapped: " ^ Irsim.Interp.trap_message t))))
         leaders)
  in
  let outcome = Array.make n (Error "") in
  List.iter2
    (fun (lane, _) r ->
      outcome.(lane) <-
        Result.map
          (fun (out : Irsim.Interp.outcome) ->
            let v = out.Irsim.Interp.result in
            (out, Fp.Bits.hex_of_double v, Fp.Digits.prepare v))
          r)
    leaders executed;
  (* Phase 4 — per-configuration accounting, sequential in configuration
     order. Every configuration books its own run — metrics, dedup
     hit/miss, and (when tracing) an Executed event re-entering the
     configuration's lane at seq 1, the stamp the compile event's lane
     left off at — so outputs, totals, and trace bytes are identical to
     executing each configuration separately. *)
  let by_cell =
    Array.make (Array.length Compiler.Personality.all * n_levels) None
  in
  let outputs, failures =
    let outs = ref [] and fails = ref [] in
    Array.iteri
      (fun i r ->
        match r with
        | Either.Right (config, msg) -> fails := (config, msg) :: !fails
        | Either.Left ((config : Compiler.Config.t), binary) -> begin
          let lane = leader.(i) in
          match outcome.(lane) with
          | Error msg ->
            fails :=
              (config, Printf.sprintf "%s: %s" (Compiler.Config.name config) msg)
              :: !fails
          | Ok (out, hex, digits) ->
            Obs.Metrics.incr
              (if lane = i then m_dedup_misses else m_dedup_hits);
            if Obs.Trace.on () then
              in_slot (fun () ->
                  Obs.Trace.with_lane ~seq:1 i (fun () ->
                      Compiler.Driver.account ~hex binary out))
            else Compiler.Driver.account ~hex binary out;
            let o =
              {
                config;
                value = out.Irsim.Interp.result;
                hex;
                ops = out.Irsim.Interp.fp_ops;
                work = binary.Compiler.Driver.work;
              }
            in
            outs := o :: !outs;
            by_cell.(cell config.personality config.level) <- Some (o, digits)
        end)
      compiled;
    (List.rev !outs, List.rev !fails)
  in
  let find personality level = by_cell.(cell personality level) in
  let cross, within =
    Obs.Span.with_span "difftest.compare" @@ fun () ->
    let cross =
      List.concat_map
        (fun level ->
          List.filter_map
            (fun (a, b) ->
              match (find a level, find b level) with
              | Some left, Some right ->
                Some ((a, b), compare_outputs level left right)
              | _ -> None)
            Compiler.Personality.pairs)
        (Array.to_list Compiler.Optlevel.all)
    in
    let within =
      List.concat_map
        (fun personality ->
          List.filter_map
            (fun level ->
              if level = Compiler.Optlevel.O0_nofma then None
              else
                match
                  ( find personality Compiler.Optlevel.O0_nofma,
                    find personality level )
                with
                | Some baseline, Some other ->
                  Some (personality, compare_outputs level baseline other)
                | _ -> None)
            (Array.to_list Compiler.Optlevel.all))
        (Array.to_list Compiler.Personality.all)
    in
    (cross, within)
  in
  let cross_hits =
    List.fold_left (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
      0 cross
  in
  Obs.Metrics.incr m_programs;
  Obs.Metrics.incr ~by:(List.length cross) m_cross;
  Obs.Metrics.incr ~by:(List.length within) m_within;
  Obs.Metrics.incr ~by:cross_hits m_cross_incons;
  Obs.Metrics.incr
    ~by:
      (List.fold_left
         (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
         0 within)
    m_within_incons;
  List.iter
    (fun (_, c) ->
      if c.inconsistent then Obs.Metrics.observe m_digits (float_of_int c.digits))
    cross;
  if Obs.Trace.on () then begin
    let slot = Obs.Trace.current_slot () in
    List.iter
      (fun (pair, c) ->
        if c.inconsistent then
          Obs.Trace.emit
            (Obs.Event.Inconsistency_found
               {
                 slot;
                 pair = Compiler.Personality.pair_name pair;
                 level = Compiler.Optlevel.name c.level;
                 left_hex = c.left.hex;
                 right_hex = c.right.hex;
                 digits = c.digits;
               }))
      cross;
    Obs.Trace.emit
      (Obs.Event.Compared
         {
           slot;
           cross = List.length cross;
           within = List.length within;
           inconsistent = cross_hits;
         })
  end;
  {
    outputs;
    failures;
    cross;
    within;
    total_work = List.fold_left (fun acc o -> acc + o.work) 0 outputs;
    total_ops = List.fold_left (fun acc o -> acc + o.ops) 0 outputs;
  }

(* The coverage projection: one ledger key per inconsistent comparison,
   cross first then within, each list in its construction (level-major)
   order — the deterministic feed order of the campaign's ledger. *)
let coverage_keys result =
  let key kind pair (c : comparison) =
    {
      Obs.Coverage.kind;
      pair;
      level = Compiler.Optlevel.name c.level;
      classes = Fp.Bits.class_pair_name c.class_left c.class_right;
    }
  in
  List.filter_map
    (fun (pair, c) ->
      if c.inconsistent then
        Some (key "cross" (Compiler.Personality.pair_name pair) c)
      else None)
    result.cross
  @ List.filter_map
      (fun (p, c) ->
        if c.inconsistent then
          Some (key "within" (Compiler.Personality.name p) c)
        else None)
      result.within

let cross_inconsistencies result =
  List.fold_left
    (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
    0 result.cross

let has_inconsistency result = cross_inconsistencies result > 0
