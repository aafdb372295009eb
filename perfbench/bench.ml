(* The repository benchmark: one seeded workload, timed as a closed loop
   from a single process at jobs = 1, with its outputs checked and every
   metric printed by name and unit. perfbench/README.md explains the
   workloads, the metrics and how to run both modes.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --workdir DIR

   Untraced (--trace 0) the last stdout line carries the end-to-end
   metrics; traced (--trace 1) it carries the per-layer metrics of a
   replay that calls each layer's public functions one at a time inside
   the benchmark's own spans (Ledger). The line before it is a detail
   object: host fingerprint, the workload-specific rates, the output
   digests (signatures, Table-3 scores) and the check counts. *)

open Harness

let now = Ledger.now
let median = Ledger.median
let sum = Ledger.sum

(* ------------------------------------------------------------------ *)
(* Workloads and their sizes. A rep is one complete run of the workload
   at a fixed size. Per-seed cost is heavy-tailed (mutated loop-heavy
   programs dominate), so a run times hundreds of reps on independent
   sub-seeds and reports medians. *)

type workload = Llm4fp_loop | Bandit_loop | Table3

let workloads =
  [ ("campaign-llm4fp", Llm4fp_loop);
    ("campaign-bandit", Bandit_loop);
    ("table3-codebleu", Table3) ]

let name_of w = fst (List.find (fun (_, w') -> w' = w) workloads)

let llm4fp_budget = 20
let bandit_budget = 30
let checkpoint_interval = 10  (* for the recorded re-runs of retained reps *)
let corpus_sets = 12          (* Table-3 inputs: seeded sets of four corpora *)
let corpus_budget = 20        (* campaign slots behind each corpus *)
let corpus_size = 16          (* programs kept per corpus: 120 exact pairs *)
let retained = 12             (* reps whose outcomes the checks and replay keep *)
let signature_probes = 8      (* reps whose signatures are printed *)
let min_reps = 8
let heap_probes = 32          (* forked reps behind peak_heap_mb *)

(* Timed passes over a campaign run's sub-seeds. The later passes repeat
   the first in order and a sub-seed's wall is the fastest of its reps:
   the host runs memory-bound code up to 1.7x slower for seconds at a
   time, and reps many seconds apart rarely all fall in such a phase. *)
let passes = 3

(* Set-up is timed several times and setup_s is the median. A campaign
   workload's set-up builds the configuration matrix and runs one warm-up
   campaign, so that first-call costs stay out of the timed loop; the
   warm-up is not an input, and its fixed seed gives set-up the same work
   on every run. It is cheap and leaves no state, so it is repeated
   before each timed pass and its samples span the run's slow and fast
   phases as the reps do. Table 3's set-up builds the corpus sets, three
   times before the loop. *)
let setup_repeats = function Table3 -> 3 | Llm4fp_loop | Bandit_loop -> 4
let warmup_seed = 1

(* A campaign's cost has no upper bound: a grown or mutated loop-heavy
   program can keep the VM busy for seconds to minutes (one budget-30
   bandit sub-seed in 6000 took 14 s, 360x the median). The workloads
   draw only campaigns that finish within [campaign_cap_s]: a candidate
   sub-seed still running at the cap is abandoned and the next one is
   drawn. The cap is some 30x the median campaign, so it trims ~0.2% of
   draws and keeps every later step of the run bounded. *)
let campaign_cap_s = 1.0

(* Sub-seeds: SplitMix64 over (seed, index), so every rep of every run
   draws decorrelated inputs that depend on --seed alone. *)
let sub_seed seed i =
  let open Int64 in
  let z =
    add (mul (of_int seed) 0x9E3779B97F4A7C15L)
      (mul (of_int (i + 1)) 0xD1B54A32D192ED03L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFL)

(* [capped f] is [Some (f ())], or [None] once [f] has run for
   [campaign_cap_s]: a repeating real-time timer raises [Over_cap] inside
   [f] at its next poll point, and [armed] keeps a tick that arrives
   after [f] returned from raising anywhere else. *)
exception Over_cap

let armed = ref false

let set_timer value interval =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = value; it_interval = interval })

let capped f =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !armed then raise Over_cap));
  armed := true;
  set_timer campaign_cap_s 0.05;
  let disarm () =
    armed := false;
    set_timer 0. 0.
  in
  match f () with
  | r -> disarm (); Some r
  | exception Over_cap -> disarm (); None
  | exception e -> disarm (); raise e

(* ------------------------------------------------------------------ *)
(* Files. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* JSON output. *)

let jnum x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let jstr s = Printf.sprintf "%S" s
let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"
let jlist xs = "[" ^ String.concat ", " xs ^ "]"

(* ------------------------------------------------------------------ *)
(* Host fingerprint: seeds reproduce only modulo architecture, OS and
   tool versions, and a slower host shows in the calibration loop. *)

let calibration_ns () =
  let loop () =
    let x = ref 0.5 and k = ref 0 in
    for i = 1 to 2_000_000 do
      x := (!x *. 1.0000001) +. 1e-9;
      k := !k lxor (i * 2654435761)
    done;
    ignore (Sys.opaque_identity (!x, !k))
  in
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         loop ();
         (now () -. t0) *. 1e9))

let host () =
  jobj
    [ ("ocaml", jstr Sys.ocaml_version);
      ("os_type", jstr Sys.os_type);
      ("word_size", string_of_int Sys.word_size);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("calibration_ns", jnum (calibration_ns ())) ]

(* ------------------------------------------------------------------ *)
(* Output checks, outside every timed section. *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 8 then failures := what :: !failures
  end

let signature (o : Campaign.outcome) =
  let i, c, s, g, sim = Campaign.signature o in
  Printf.sprintf "%d %d %d %d %.17g" i c s g sim

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* (a) The VM result of every configuration's binary must be bit-equal,
   result bits and fp_ops, to the independent reference interpreter.
   Programs come from the campaign cases in a seeded order; checking
   stops at [deadline] after at least one program. *)
let reference_check ~seed ~deadline (outcomes : Campaign.outcome list) =
  let cases = Array.of_list (List.concat_map (fun o -> o.Campaign.cases) outcomes) in
  Util.Rng.shuffle (Util.Rng.of_int (sub_seed seed 7_000_001)) cases;
  let configs = Compiler.Config.all () in
  let run f = match f () with r -> Ok r | exception Irsim.Interp.Trap t -> Error t in
  let same a b =
    match (a, b) with
    | Ok (x : Irsim.Interp.outcome), Ok (y : Irsim.Interp.outcome) ->
      same_bits x.result y.result && x.fp_ops = y.fp_ops
    | Error t, Error u -> t = u
    | _ -> false
  in
  let k = ref 0 in
  while !k < Array.length cases && (!k = 0 || now () < deadline) do
    let program, inputs = cases.(!k) in
    let fronts = Compiler.Driver.fronts program in
    List.iter
      (fun config ->
        match Compiler.Driver.front_end fronts (Compiler.Driver.target_of config) with
        | Error _ -> ()
        | Ok front ->
          let b = Compiler.Driver.back_end config front in
          let vm = run (fun () -> Compiler.Driver.execute b inputs) in
          let reference =
            run (fun () ->
                Irsim.Interp.run (Compiler.Config.runtime b.Compiler.Driver.config)
                  b.Compiler.Driver.ir inputs)
          in
          check (same vm reference)
            (Printf.sprintf "vm differs from reference: %s" (Compiler.Config.name config)))
      configs;
    incr k
  done

(* ------------------------------------------------------------------ *)
(* Campaign workloads. *)

type rep = {
  sub : int;
  wall : float;
  programs : int;
  budget : int;
  gen_failures : int;
  incons : int;
  grow_pulls : int;
  sig_ : string;
  outcome : Campaign.outcome option;  (* kept for the first [retained] reps *)
}

let campaign_of = function
  | Llm4fp_loop -> (Approach.Llm4fp, llm4fp_budget)
  | Bandit_loop -> (Approach.Bandit, bandit_budget)
  | Table3 -> invalid_arg "campaign_of"

let make_rep w ~keep sub =
  let approach, budget = campaign_of w in
  let t0 = now () in
  let o = Campaign.run ~budget ~seed:sub approach in
  let wall = now () -. t0 in
  {
    sub;
    wall;
    programs = List.length o.Campaign.programs;
    budget = o.Campaign.budget;
    gen_failures = o.Campaign.generation_failures;
    incons = Difftest.Stats.total_inconsistencies o.Campaign.stats;
    grow_pulls =
      (match o.Campaign.bandit with Some b -> Bandit.pulls b Bandit.Grow | None -> 0);
    sig_ = signature o;
    outcome = (if keep then Some o else None);
  }

(* The timed closed loop: fresh sub-seeds for the first pass's share of
   the time, skipping those over the cap, then the later passes over the
   kept ones in the same order (see [passes]); the signature of a
   repeated sub-seed must not change (check b). Returns the reps with
   their best walls, the time spent inside timed calls and the number of
   sub-seeds skipped. *)
let campaign_loop w ~seed ~seconds ~before_pass =
  let timed = ref 0. and first = ref [] and kept = ref 0 and k = ref 0 and skipped = ref 0 in
  before_pass ();
  while !timed < seconds /. float_of_int passes || !kept < min_reps do
    (match capped (fun () -> make_rep w ~keep:(!kept < retained) (sub_seed seed !k)) with
    | Some r ->
      timed := !timed +. r.wall;
      first := r :: !first;
      incr kept
    | None -> incr skipped);
    incr k
  done;
  let best = Array.of_list (List.rev !first) in
  for _ = 2 to passes do
    before_pass ();
    Array.iteri
      (fun i r1 ->
        let r = make_rep w ~keep:false r1.sub in
        timed := !timed +. r.wall;
        check (r.sig_ = r1.sig_)
          (Printf.sprintf "sub-seed %d: signature differs on repetition" r1.sub);
        best.(i) <- { r1 with wall = Float.min r1.wall r.wall })
      best
  done;
  (Array.to_list best, !timed, !skipped)

(* (b, c) A retained rep runs again, untimed, with a case archive and a
   checkpoint every [checkpoint_interval] slots, as `campaign --record
   --checkpoint` runs it: recording must leave the signature unchanged,
   every archived case must reload, and so must the last checkpoint.
   Returns the checkpoint directory, whose snapshot the traced replay
   writes again. *)
let recorded_check w ~root r =
  let approach, budget = campaign_of w in
  let dir = Filename.concat root (Printf.sprintf "recorded-%d" r.sub) in
  let cases_dir = Filename.concat dir "cases" and ckpt = Filename.concat dir "ckpt" in
  Util.Durable.mkdir_p ckpt;
  let recorder = Difftest.Recorder.create ~dir:cases_dir in
  let o =
    Campaign.run ~budget ~seed:r.sub ~recorder ~checkpoint:(ckpt, checkpoint_interval) approach
  in
  check (signature o = r.sig_) (Printf.sprintf "sub-seed %d: recording changed the signature" r.sub);
  (match Difftest.Recorder.load_dir cases_dir with
  | Ok cases ->
    check (List.length cases = Difftest.Recorder.count recorder) ("archive size differs in " ^ dir)
  | Error msg -> check false msg);
  (match Checkpoint.load ~dir:ckpt with Ok _ -> check true "" | Error msg -> check false msg);
  ckpt

(* ------------------------------------------------------------------ *)
(* Table 3: seeded sets of the four paper approaches' corpora. *)

type corpus = {
  approach : Approach.t;
  corpus_seed : int;
  programs : Lang.Ast.program list;
  source : Campaign.outcome;  (* the campaign the corpus came from *)
}

let corpus_of approach corpus_seed o =
  let programs = List.filteri (fun i _ -> i < corpus_size) o.Campaign.programs in
  { approach; corpus_seed; programs; source = o }

(* The first set-up draws each corpus's seed, skipping those whose
   campaign runs over the cap; later set-ups rebuild the drawn corpora. *)
let draw_corpus_set seed set =
  List.mapi
    (fun k approach ->
      let rec attempt i =
        let corpus_seed = sub_seed seed (1_000 + (1_000 * set) + (100 * k) + i) in
        match capped (fun () -> Campaign.run ~budget:corpus_budget ~seed:corpus_seed approach) with
        | Some o -> corpus_of approach corpus_seed o
        | None -> attempt (i + 1)
      in
      attempt 0)
    (Array.to_list Approach.all)

let rebuild_corpus_set =
  List.map (fun c ->
      corpus_of c.approach c.corpus_seed
        (Campaign.run ~budget:corpus_budget ~seed:c.corpus_seed c.approach))

let pairs_of n = n * (n - 1) / 2
let set_programs set = sum (List.map (fun c -> float_of_int (List.length c.programs)) set)
let set_pairs set = sum (List.map (fun c -> float_of_int (pairs_of (List.length c.programs))) set)

(* One rep: Table 3's diversity columns over one corpus set. *)
let table3_rep set =
  let t0 = now () in
  let scores =
    List.map
      (fun c ->
        let score = Diversity.Codebleu.corpus_mean ~seed:c.corpus_seed c.programs in
        (score, Diversity.Clones.analyze c.programs))
      set
  in
  (now () -. t0, scores)

(* The timed loop cycles through the sets; a set's wall is its fastest
   rep, and its scores must repeat bit-identically (check d). *)
let table3_loop sets ~seconds =
  let m = Array.length sets in
  let best = Array.make m infinity and scores = Array.make m [] in
  let timed = ref 0. and i = ref 0 in
  while !timed < seconds || !i < 2 * m do
    let s = !i mod m in
    let wall, sc = table3_rep sets.(s) in
    timed := !timed +. wall;
    best.(s) <- Float.min best.(s) wall;
    if !i < m then scores.(s) <- sc
    else
      check
        (List.for_all2 (fun (a, _) (b, _) -> same_bits a b) sc scores.(s))
        "Table-3 scores differ between reps";
    incr i
  done;
  (best, scores, !timed, !i)

(* (d) CodeBLEU scores lie in [0, 1], are symmetric and repeat
   bit-identically. *)
let codebleu_check ~seed sets =
  let rng = Util.Rng.of_int (sub_seed seed 7_000_002) in
  Array.iter
    (List.iter (fun c ->
         let s = Array.of_list (List.map Diversity.Codebleu.summarize c.programs) in
         let n = Array.length s in
         if n > 0 then
           for _ = 1 to 16 do
             let i = Util.Rng.int rng n and j = Util.Rng.int rng n in
             let ab = Diversity.Codebleu.symmetric s.(i) s.(j) in
             let ba = Diversity.Codebleu.symmetric s.(j) s.(i) in
             let one = Diversity.Codebleu.pair_score ~candidate:s.(i) ~reference:s.(j) in
             check
               (same_bits ab ba && ab >= 0. && ab <= 1. && one >= 0. && one <= 1.)
               "codebleu pair out of range or asymmetric"
           done))
    sets

(* ------------------------------------------------------------------ *)
(* The traced replay. Each layer's public function is called on the
   run's own data, one call per span. Spans under a "rep" root replay
   the calls the workload makes, so their sum is the ledger that
   [attributed_frac] compares with the untraced wall; spans under an
   "aux" root measure layers on the same data that the workload does not
   call (and the front/back/execute decomposition of Run.test), so
   every per-layer metric exists on every workload. *)

type replay = {
  mutable untraced : float;  (* untraced wall of the replayed reps *)
  mutable self_ms : float list;  (* Run.test minus its decomposition *)
  mutable fp_ops : int;
  mutable exec_s : float;
  mutable recorded : int;
  mutable recorded_programs : int;
  mutable ckpt_bytes : int;
}

let timed name f =
  let t0 = now () in
  let r = Ledger.span name f in
  (r, now () -. t0)

(* The prompts a campaign's LLM calls used: LLM4FP draws a fair coin
   between the grammar prompt and a mutation once it has an example; the
   bandit splits its pulls between the three LLM arms. *)
let prompts (o : Campaign.outcome) =
  let precision = Lang.Ast.F64 in
  let programs = Array.of_list o.Campaign.programs in
  let example k = programs.(k mod max 1 (Array.length programs)) in
  let grammar = Llm.Prompt.Grammar { precision } in
  let mutate k = Llm.Prompt.Mutate { precision; example = example k } in
  match o.Campaign.approach with
  | Approach.Llm4fp ->
    List.init o.Campaign.budget (fun k ->
        if k mod 2 = 0 || Array.length programs = 0 then grammar else mutate k)
  | Approach.Direct_prompt ->
    List.init o.Campaign.budget (fun _ -> Llm.Prompt.Direct { precision })
  | Approach.Grammar_guided -> List.init o.Campaign.budget (fun _ -> grammar)
  | Approach.Varity -> []
  | Approach.Bandit ->
    let b = Option.get o.Campaign.bandit in
    List.init (Bandit.pulls b Bandit.Direct) (fun _ -> Llm.Prompt.Direct { precision })
    @ List.init (Bandit.pulls b Bandit.Grammar) (fun _ -> grammar)
    @ List.init (Bandit.pulls b Bandit.Mutate) mutate

let varity_calls (o : Campaign.outcome) =
  match (o.Campaign.approach, o.Campaign.bandit) with
  | Approach.Varity, _ -> o.Campaign.budget
  | Approach.Bandit, Some b -> Bandit.pulls b Bandit.Varity
  | _ -> 0

let grow_calls (o : Campaign.outcome) =
  match o.Campaign.bandit with Some b -> Bandit.pulls b Bandit.Grow | None -> 0

(* Front end, back ends and deduplicated executions of one program,
   each in its own span; returns their summed duration. *)
let decompose st configs program inputs =
  let fronts = Compiler.Driver.fronts program in
  let host, th = timed "compiler.front_end" (fun () -> Compiler.Driver.front_end fronts `Host) in
  let device, td =
    timed "compiler.front_end" (fun () -> Compiler.Driver.front_end fronts `Device)
  in
  let leaders = ref [] and spent = ref (th +. td) in
  List.iter
    (fun config ->
      match (match Compiler.Driver.target_of config with `Host -> host | `Device -> device) with
      | Error _ -> ()
      | Ok front ->
        let b, t = timed "compiler.back_end" (fun () -> Compiler.Driver.back_end config front) in
        spent := !spent +. t;
        let key = (b.Compiler.Driver.ir, Compiler.Config.runtime b.Compiler.Driver.config) in
        if not (List.exists (fun (k, _) -> Stdlib.compare k key = 0) !leaders) then
          leaders := (key, b) :: !leaders)
    configs;
  List.iter
    (fun (_, b) ->
      let out, t =
        timed "irsim.execute" (fun () ->
            match Compiler.Driver.execute b inputs with
            | o -> Some o
            | exception Irsim.Interp.Trap _ -> None)
      in
      spent := !spent +. t;
      st.exec_s <- st.exec_s +. t;
      Option.iter (fun (o : Irsim.Interp.outcome) -> st.fp_ops <- st.fp_ops + o.fp_ops) out)
    (List.rev !leaders);
  !spent

(* Replay one campaign outcome: the calls the campaign makes under the
   "rep" root; recording its findings, writing [snapshot] as often as a
   checkpointed run would, and decomposing each difftest under "aux". *)
let replay_campaign st ~root ~configs ~snapshot ~sub (o : Campaign.outcome) =
  let client = Llm.Client.create ~seed:(sub lxor 0x5eed) () in
  let rng = Util.Rng.of_int sub in
  let programs = Array.of_list o.Campaign.programs in
  let seed_of k = programs.(k mod Array.length programs) in
  let rec_dir = Filename.concat root "replay-cases" in
  rm_rf rec_dir;
  let recorder = Difftest.Recorder.create ~dir:rec_dir in
  let results = ref [] in
  let record k program inputs result =
    Ledger.span "difftest.record" (fun () ->
        List.iter
          (fun case -> ignore (Difftest.Recorder.record recorder case))
          (Difftest.Case.of_result ~seed:sub ~slot:(k + 1) ~program ~inputs result));
    st.recorded_programs <- st.recorded_programs + 1
  in
  let write_checkpoints () =
    Option.iter
      (fun snap ->
        let dir = Filename.concat root "replay-ckpt" in
        for _ = 1 to (o.Campaign.budget - 1) / checkpoint_interval do
          Ledger.span "checkpoint.write" (fun () -> Checkpoint.write ~dir snap)
        done;
        st.ckpt_bytes <- file_size (Checkpoint.path ~dir))
      snapshot
  in
  Ledger.span "rep" (fun () ->
      List.iter
        (fun prompt ->
          let response =
            Ledger.span "llm.generate" (fun () -> Llm.Client.generate client prompt)
          in
          match
            Ledger.span "cparse.parse" (fun () ->
                Cparse.Parse.program response.Llm.Client.source)
          with
          | Ok p -> ignore (Ledger.span "analysis.validate" (fun () -> Analysis.Validate.check p))
          | Error _ -> ())
        (prompts o);
      for _ = 1 to varity_calls o do
        ignore (Ledger.span "gen.varity" (fun () -> Gen.Varity.generate rng))
      done;
      if Array.length programs > 0 then
        for k = 1 to grow_calls o do
          ignore (Ledger.span "gen.grow" (fun () -> Gen.Grow.grow rng (seed_of k)))
        done;
      List.iteri
        (fun k (program, inputs) ->
          ignore
            (Ledger.span "gen.inputs" (fun () ->
                 Gen.Generate.gen_inputs rng Llm.Client.generation_config program));
          let result, t =
            timed "difftest.test" (fun () -> Difftest.Run.test ~configs program inputs)
          in
          results := (k, program, inputs, result, t) :: !results)
        o.Campaign.cases);
  Ledger.span "aux" (fun () ->
      List.iter
        (fun (k, program, inputs, result, t) ->
          record k program inputs result;
          st.self_ms <- ((t -. decompose st configs program inputs) *. 1e3) :: st.self_ms)
        (List.rev !results);
      if grow_calls o = 0 then
        Array.iter (fun p -> ignore (Ledger.span "gen.grow" (fun () -> Gen.Grow.grow rng p))) programs;
      write_checkpoints ());
  st.recorded <- st.recorded + Difftest.Recorder.count recorder

(* CodeBLEU and clone layers over one corpus, under [root_name]. *)
let replay_diversity ?(max_programs = max_int) root_name programs =
  let programs = List.filteri (fun i _ -> i < max_programs) programs in
  Ledger.span root_name (fun () ->
      let s =
        Array.of_list
          (List.map
             (fun p -> Ledger.span "diversity.summarize" (fun () -> Diversity.Codebleu.summarize p))
             programs)
      in
      let n = Array.length s in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          ignore (Ledger.span "diversity.pair" (fun () -> Diversity.Codebleu.symmetric s.(i) s.(j)))
        done
      done;
      ignore (Ledger.span "diversity.clones" (fun () -> Diversity.Clones.analyze programs)))

(* A checkpoint snapshot to time writes with, from an extra run of a
   corpus campaign. *)
let snapshot_of ~root ~budget ~seed approach =
  let dir = Filename.concat root "snapshot" in
  rm_rf dir;
  ignore (Campaign.run ~budget ~seed ~checkpoint:(dir, checkpoint_interval) approach);
  Result.to_option (Checkpoint.load ~dir)

(* Peak heap of one rep from the state after set-up, the median over
   [probes] reps. The runtime's top-heap figure never falls, so each
   probe runs in a forked child, which starts from the parent's heap and
   reports its own top through a pipe. [run k] is false when rep [k] was
   skipped over the cap; the probes then go on to the next [k]. *)
let peak_heap_mb probes run =
  let probe k =
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let code =
        match run k with
        | true ->
          let top = string_of_int (Gc.quick_stat ()).Gc.top_heap_words in
          ignore (Unix.write_substring wr top 0 (String.length top));
          0
        | false -> 3
        | exception _ -> 1
      in
      Unix._exit code
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let top = In_channel.input_all ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Some (float_of_string top)
      | _, Unix.WEXITED 3 -> None
      | _ -> failwith "peak-heap probe failed")
  in
  let rec collect k tops =
    if List.length tops = probes then tops
    else collect (k + 1) (match probe k with Some t -> t :: tops | None -> tops)
  in
  median (collect 0 []) *. float_of_int (Sys.word_size / 8) /. 1048576.

let counter name = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter name))
let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

(* Per-layer metrics: replay for 0.6 x [seconds] of the run's retained
   data, then summarize the spans. *)
let layer_metrics ~workload ~seed ~seconds ~root ~reps ~recorded ~sets ~set_walls =
  let configs = Compiler.Config.all () in
  let st =
    { untraced = 0.; self_ms = []; fp_ops = 0; exec_s = 0.; recorded = 0;
      recorded_programs = 0; ckpt_bytes = 0 }
  in
  let deadline = now () +. (0.6 *. seconds) in
  (match workload with
  | Llm4fp_loop | Bandit_loop ->
    List.iteri
      (fun i (r, ckpt) ->
        if i = 0 || now () < deadline then begin
          let o = Option.get r.outcome in
          let snapshot = Result.to_option (Checkpoint.load ~dir:ckpt) in
          replay_campaign st ~root ~configs ~snapshot ~sub:r.sub o;
          st.untraced <- st.untraced +. r.wall;
          if i = 0 then replay_diversity ~max_programs:20 "aux" o.Campaign.programs
        end)
      recorded
  | Table3 ->
    let i = ref 0 in
    while !i = 0 || now () < deadline do
      let s = !i mod Array.length sets in
      Ledger.span "rep" (fun () ->
          List.iter (fun c -> replay_diversity "corpus" c.programs) sets.(s));
      st.untraced <- st.untraced +. set_walls.(s);
      incr i
    done;
    (* campaign layers on the first set's corpus campaigns, all off the
       workload's path *)
    let set = sets.(0) in
    let llm = List.find (fun c -> c.approach = Approach.Llm4fp) set in
    let snapshot =
      snapshot_of ~root ~budget:corpus_budget ~seed:llm.corpus_seed Approach.Llm4fp
    in
    List.iter
      (fun c ->
        Ledger.span "aux" (fun () ->
            replay_campaign st ~root ~configs ~snapshot:(if c == llm then snapshot else None)
              ~sub:c.corpus_seed c.source))
      set);
  let spans = Ledger.spans () in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Ledger.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec root_name (s : Ledger.span) =
    if s.parent < 0 then s.name else root_name (Hashtbl.find by_id s.parent)
  in
  let rep_spans = List.filter (fun s -> root_name s = "rep") spans in
  let us name = median (Ledger.durations name) *. 1e6 in
  let ms name = median (Ledger.durations name) *. 1e3 in
  let p99 name = Ledger.quantile 0.99 (Ledger.durations name) in
  let frac f total xs =
    float_of_int (List.fold_left (fun n x -> n + f x) 0 xs)
    /. float_of_int (List.fold_left (fun n x -> n + total x) 0 xs)
  in
  let reject_frac, grow_frac =
    match workload with
    | Table3 ->
      let srcs = List.concat_map (List.map (fun c -> c.source)) (Array.to_list sets) in
      (frac (fun o -> o.Campaign.generation_failures) (fun o -> o.Campaign.budget) srcs, 0.)
    | Llm4fp_loop | Bandit_loop ->
      ( frac (fun r -> r.gen_failures) (fun r -> r.budget) reps,
        frac (fun r -> r.grow_pulls) (fun r -> r.budget) reps )
  in
  Util.Durable.mkdir_p ".bench_out";
  Ledger.write
    (Filename.concat ".bench_out"
       (Printf.sprintf "spans-%s-seed%d.jsonl" (name_of workload) seed));
  let on_path_layers =
    match workload with
    | Table3 -> [ "diversity.summarize"; "diversity.pair"; "diversity.clones" ]
    | Llm4fp_loop | Bandit_loop ->
      [ "llm.generate"; "cparse.parse"; "analysis.validate"; "gen.varity"; "gen.grow";
        "gen.inputs"; "difftest.test" ]
  in
  (* The ledger: the on-path layer calls under the "rep" roots. Its
     cost: the spans recorded there times what one span adds. *)
  let ledger =
    sum
      (List.filter_map
         (fun (s : Ledger.span) -> if List.mem s.name on_path_layers then Some s.dur else None)
         rep_spans)
  in
  let overhead = float_of_int (List.length rep_spans) *. Ledger.span_cost () in
  [ ("llm.generate_us", us "llm.generate", "us");
    ("gen.grow_us", us "gen.grow", "us");
    ("gen.inputs_us", us "gen.inputs", "us");
    ("cparse.parse_us", us "cparse.parse", "us");
    ("analysis.validate_us", us "analysis.validate", "us");
    ("analysis.reject_frac", reject_frac, "ratio");
    ("compiler.front_end_us", us "compiler.front_end", "us");
    ("compiler.back_end_us", us "compiler.back_end", "us");
    ("compiler.back_end_alloc_w", median (Ledger.words "compiler.back_end"), "words");
    ( "compiler.frontend_hit_ratio",
      ratio (counter "compiler.frontend.cache_hits") (counter "compiler.frontend.runs"),
      "ratio" );
    ("irsim.dedup_ratio", ratio (counter "exec.dedup.hits") (counter "exec.dedup.misses"), "ratio");
    ("irsim.execute_us_p50", us "irsim.execute", "us");
    ("irsim.execute_us_p99", p99 "irsim.execute" *. 1e6, "us");
    ("irsim.fp_ops_per_s", float_of_int st.fp_ops /. st.exec_s, "1/s");
    ("irsim.execute_alloc_w", median (Ledger.words "irsim.execute"), "words");
    ("difftest.test_ms_p50", ms "difftest.test", "ms");
    ("difftest.test_ms_p99", p99 "difftest.test" *. 1e3, "ms");
    ("difftest.self_ms_p50", median st.self_ms, "ms");
    ("difftest.record_ms", ms "difftest.record", "ms");
    ( "difftest.cases_per_program",
      float_of_int st.recorded /. float_of_int (max 1 st.recorded_programs), "count" );
    ("checkpoint.write_ms", ms "checkpoint.write", "ms");
    ("checkpoint.bytes", float_of_int st.ckpt_bytes, "bytes");
    ("harness.grow_pull_frac", grow_frac, "ratio");
    ("diversity.summarize_us", us "diversity.summarize", "us");
    ("diversity.pair_us", us "diversity.pair", "us");
    ("diversity.pair_alloc_w", median (Ledger.words "diversity.pair"), "words");
    ("diversity.clones_ms", ms "diversity.clones", "ms");
    ("attributed_frac", ledger /. st.untraced, "ratio");
    ("trace_overhead_frac", overhead /. st.untraced, "ratio") ]

(* ------------------------------------------------------------------ *)
(* Driver. *)

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  workdir : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1)
  and workdir = ref ".bench_work" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory (removed at exit)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let fail msg = prerr_endline ("bench: " ^ msg); exit 2 in
  let workload =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ jstr !workload)
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  { workload; seed = !seed; seconds = !seconds; trace = !trace = 1; workdir = !workdir }

let print_result metrics =
  print_endline
    (jobj
       [ ("correct", if !failed = 0 then "true" else "false");
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           jobj
             (List.map
                (fun (name, value, unit) ->
                  (name, jobj [ ("value", jnum value); ("unit", jstr unit) ]))
                metrics) ) ])

let () =
  let a = parse_args () in
  let root = a.workdir in
  (* ---- set-up, several times; the median is reported ---- *)
  (* The layer counters read by the traced run cover the campaigns a
     workload runs: the timed reps, or for Table 3 the corpus campaigns
     of its set-up. *)
  Obs.Metrics.reset ();
  rm_rf root;
  Util.Durable.mkdir_p root;
  let setup_times = ref [] and drawn = ref None in
  let setup () =
    let t0 = now () in
    let sets =
      match (a.workload, !drawn) with
      | Table3, None ->
        let sets = Array.init corpus_sets (draw_corpus_set a.seed) in
        drawn := Some sets;
        sets
      | Table3, Some sets -> Array.map rebuild_corpus_set sets
      | (Llm4fp_loop | Bandit_loop), _ ->
        ignore (Sys.opaque_identity (Compiler.Config.all ()));
        ignore (make_rep a.workload ~keep:false warmup_seed);
        [||]
    in
    setup_times := (now () -. t0) :: !setup_times;
    sets
  in
  let setups () = List.init (setup_repeats a.workload) (fun _ -> setup ()) in
  let sets =
    match a.workload with
    | Llm4fp_loop | Bandit_loop -> [||]
    | Table3 ->
      let all = setups () in
      (* (b) the corpus campaigns' signatures repeat across set-ups *)
      let set_sigs sets = Array.map (List.map (fun c -> signature c.source)) sets in
      List.iter
        (fun s -> check (set_sigs s = set_sigs (List.hd all)) "corpus signature differs")
        all;
      List.hd all
  in
  let peak_heap_mb =
    match a.workload with
    | Table3 ->
      peak_heap_mb (Array.length sets) (fun k ->
          ignore (table3_rep sets.(k));
          true)
    | Llm4fp_loop | Bandit_loop ->
      peak_heap_mb heap_probes (fun k ->
          capped (fun () -> make_rep a.workload ~keep:false (sub_seed a.seed k)) <> None)
  in
  (* ---- the timed closed loop, its checks and its figures ---- *)
  let detail = ref [] in
  let add_detail k v = detail := (k, v) :: !detail in
  let median_over f xs = median (List.map f xs) in
  let reps, recorded, set_walls, timed_s, reps_run, figures =
    match a.workload with
    | Llm4fp_loop | Bandit_loop ->
      let reps, timed_s, skipped =
        campaign_loop a.workload ~seed:a.seed ~seconds:a.seconds ~before_pass:(fun () ->
            ignore (setups ()))
      in
      add_detail "skipped_over_cap" (string_of_int skipped);
      let kept = List.filter (fun r -> r.outcome <> None) reps in
      let recorded = List.map (fun r -> (r, recorded_check a.workload ~root r)) kept in
      reference_check ~seed:a.seed ~deadline:(now () +. 1.5)
        (List.filter_map (fun r -> r.outcome) kept);
      let rate f = median_over (fun r -> float_of_int (f r) /. r.wall) reps in
      add_detail "inconsistencies_per_s" (jnum (rate (fun r -> r.incons)));
      add_detail "signatures"
        (jlist
           (List.filteri (fun i _ -> i < signature_probes)
              (List.map (fun r -> jstr (Printf.sprintf "%d: %s" r.sub r.sig_)) reps)));
      ( reps, recorded, [||], timed_s, List.length reps,
        (median_over (fun r -> r.wall) reps, rate (fun r -> r.programs)) )
    | Table3 ->
      let walls, scores, timed_s, n = table3_loop sets ~seconds:a.seconds in
      let per_set f = median (Array.to_list (Array.mapi (fun s w -> f sets.(s) /. w) walls)) in
      List.iter
        (fun (score, _) -> check (score >= 0. && score <= 1.) "corpus mean out of [0, 1]")
        (List.concat (Array.to_list scores));
      reference_check ~seed:a.seed ~deadline:(now () +. 1.0)
        (List.map (fun c -> c.source) sets.(0));
      codebleu_check ~seed:a.seed sets;
      add_detail "pairs_per_s" (jnum (per_set set_pairs));
      add_detail "codebleu"
        (jlist
           (Array.to_list
              (Array.mapi
                 (fun s sc ->
                   jobj
                     (List.map2
                        (fun c (score, clones) ->
                          ( Approach.name c.approach,
                            jobj
                              [ ("score", jstr (Printf.sprintf "%.17g" score));
                                ("programs", string_of_int (List.length c.programs));
                                ( "clones_1_2_2c",
                                  Printf.sprintf "[%d, %d, %d]" clones.Diversity.Clones.type1
                                    clones.Diversity.Clones.type2
                                    clones.Diversity.Clones.type2c ) ] ))
                        sets.(s) sc))
                 scores)));
      ([], [], walls, timed_s, n, (median (Array.to_list walls), per_set set_programs))
  in
  let wall_s, programs_per_s = figures in
  let printed =
    if a.trace then
      layer_metrics ~workload:a.workload ~seed:a.seed ~seconds:a.seconds ~root ~reps ~recorded
        ~sets ~set_walls
    else
      [ ("setup_s", median !setup_times, "s");
        ("wall_s", wall_s, "s");
        ("programs_per_s", programs_per_s, "1/s");
        ("peak_heap_mb", peak_heap_mb, "MB") ]
  in
  rm_rf root;
  print_endline
    (jobj
       ([ ("workload", jstr (name_of a.workload));
          ("seed", string_of_int a.seed);
          ("trace", if a.trace then "1" else "0");
          ("host", host ());
          ("reps", string_of_int reps_run);
          ("timed_s", jnum timed_s);
          ("failed_frac", jnum (float_of_int !failed /. float_of_int (max 1 !attempted)));
          ("failures", jlist (List.rev_map jstr !failures)) ]
       @ List.rev !detail));
  print_result printed
