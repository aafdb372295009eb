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

let test ?configs program inputs =
  let configs =
    match configs with Some cs -> cs | None -> Compiler.Config.all ()
  in
  let fronts = Compiler.Driver.fronts program in
  (* One pass in configuration order: compile, execute, book. The
     driver sorted the binaries into execution classes as it built them
     (post-pipeline IR and runtime equal under [Stdlib.compare],
     NaN-tolerant unlike [=], so folded NaN constants still share), so
     the first configuration of a class runs it and the rest reuse its
     outcome, found by a physical comparison. A trap (out-of-bounds
     subscript) is a reportable per-configuration failure, not a crash.
     Each outcome's hex encoding and digit decomposition are made once,
     for every configuration sharing it, and every configuration still
     books its own run: metrics, dedup hit or miss, and an Executed
     event right after its Compiled one. *)
  let executed = ref [] in
  let by_cell =
    Array.make (Array.length Compiler.Personality.all * n_levels) None
  in
  let outs = ref [] and fails = ref [] in
  List.iter
    (fun (config : Compiler.Config.t) ->
      match Compiler.Driver.compile_with fronts config with
      | Error msg -> fails := (config, msg) :: !fails
      | Ok binary -> begin
        let outcome, hit =
          match
            List.find_opt
              (fun (b, _) -> Compiler.Driver.same_exec_class b binary)
              !executed
          with
          | Some (_, outcome) -> (outcome, true)
          | None ->
            let outcome =
              match Compiler.Driver.execute binary inputs with
              | out ->
                let v = out.Irsim.Interp.result in
                Ok (out, Fp.Bits.hex_of_double v, Fp.Digits.prepare v)
              | exception Irsim.Interp.Trap t ->
                Error ("execution trapped: " ^ Irsim.Interp.trap_message t)
            in
            executed := (binary, outcome) :: !executed;
            (outcome, false)
        in
        match outcome with
        | Error msg ->
          fails :=
            (config, Printf.sprintf "%s: %s" (Compiler.Config.name config) msg)
            :: !fails
        | Ok (out, hex, digits) ->
          Obs.Metrics.incr (if hit then m_dedup_hits else m_dedup_misses);
          Compiler.Driver.account ~hex binary out;
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
    configs;
  let outputs = List.rev !outs and failures = List.rev !fails in
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
