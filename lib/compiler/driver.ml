type exec_class = unit ref

type binary = {
  config : Config.t;
  source : string;
  ir : Irsim.Ir.t;
  vm : Irsim.Vm.program;
  work : int;
  exec_class : exec_class;
}

let m_compile_ok = Obs.Metrics.counter "compiler.compile.ok"
let m_compile_error = Obs.Metrics.counter "compiler.compile.error"
let m_front_runs = Obs.Metrics.counter "compiler.frontend.runs"
let m_front_hits = Obs.Metrics.counter "compiler.frontend.cache_hits"
let m_work = Obs.Metrics.counter "compiler.work"
let m_runs = Obs.Metrics.counter "compiler.runs"
let m_fp_ops = Obs.Metrics.counter "compiler.fp_ops"
let m_retries = Obs.Metrics.counter "retry.compiler.retries"
let m_exhausted = Obs.Metrics.counter "retry.compiler.exhausted"
let max_attempts = 3

(* Transient-failure policy shared by every driver stage: the stage
   entry point is re-attempted up to [max_attempts] times with
   deterministic exponential backoff charged to the attached simulated
   clock; exhaustion re-raises the original failure. The stages
   themselves are deterministic, so a retry repeats the work exactly. *)
let inject_with_retry stage =
  let rec go attempt =
    match Exec.Faults.inject stage with
    | () -> ()
    | exception (Exec.Faults.Transient _ as e) ->
        if attempt >= max_attempts then begin
          Obs.Metrics.incr m_exhausted;
          raise e
        end
        else begin
          Obs.Metrics.incr m_retries;
          Obs.Span.charge_sim (Exec.Faults.backoff ~attempt);
          go (attempt + 1)
        end
  in
  go 1

let rec body_size body =
  List.fold_left
    (fun acc (s : Irsim.Ir.stmt) ->
      acc
      +
      match s with
      | Irsim.Ir.Store (_, e) -> 1 + Irsim.Ir.expr_size e
      | Irsim.Ir.Store_arr (_, _, e) -> 2 + Irsim.Ir.expr_size e
      | Irsim.Ir.If { lhs; rhs; body; _ } ->
        1 + Irsim.Ir.expr_size lhs + Irsim.Ir.expr_size rhs + body_size body
      | Irsim.Ir.For { body; _ } -> 2 + body_size body)
    0 body

let pipeline (config : Config.t) ir =
  let ir = Irsim.Fold.run config.fold ir in
  let ir =
    match config.fastmath with
    | None -> ir
    | Some fm -> Irsim.Fastmath.run fm ir
  in
  let ir = Irsim.Contract.run config.contract ir in
  if config.dce then Irsim.Dce.run ir else ir

(* ------------------------------------------------------------------ *)
(* Front end: emit + parse + validate + lower. Only the target decides
   the translation unit (gcc and clang share the host C unit; nvcc gets
   the CUDA one), so the whole 18-configuration matrix needs exactly two
   front-end passes. *)

type target = [ `Host | `Device ]

(* One back-end output of a program: its optimized IR, the runtime its
   flattened program binds, and the class of outputs equal to it under
   [Stdlib.compare]. *)
type built = {
  b_ir : Irsim.Ir.t;
  b_rt : Irsim.Interp.runtime;
  b_vm : Irsim.Vm.program;
  b_work : int;
  b_class : exec_class;
}

type front = {
  f_source : string;       (* the emitted translation unit *)
  f_ir : Irsim.Ir.t;       (* lowered, before the pass pipeline *)
  f_precision : Lang.Ast.precision;  (* of the re-parsed unit *)
  f_builts : built list ref;  (* the program's, shared by both targets *)
  mutable f_backs : (Config.t * built) list;  (* one per distinct pipeline *)
}

(* [builts]: the program's back-end outputs, across both targets,
   pairwise not [Identical]; newest first. *)
type fronts = {
  program : Lang.Ast.program;
  builts : built list ref;
  mutable host : (front, string) result option;
  mutable device : (front, string) result option;
}

let target_of (config : Config.t) : target =
  if Personality.is_host config.personality then `Host else `Device

(* Error strings carry no configuration name; [compile_with] prefixes
   the config so per-configuration failure messages keep their historic
   shape ("<config>: front end: …" / "<config>: …" / "<config>:
   lowering: …"). *)
let run_front_end (target : target) fronts =
  Obs.Span.with_span "compiler.front_end" @@ fun () ->
  inject_with_retry Exec.Faults.Front_end;
  Obs.Metrics.incr m_front_runs;
  (* Emit the translation unit for the target, then run the front end on
     that text: the device path really goes through the C-to-CUDA
     translation. *)
  let source =
    match target with
    | `Host -> Lang.Pp.to_c fronts.program
    | `Device -> Lang.Pp.to_cuda fronts.program
  in
  match Cparse.Parse.program source with
  | Error msg -> Error (Printf.sprintf "front end: %s" msg)
  | Ok parsed -> begin
    match Analysis.Validate.check parsed with
    | Error issues ->
      Error
        (String.concat "; "
           (List.map Analysis.Validate.issue_to_string issues))
    | Ok () -> begin
      match Irsim.Lower.program parsed with
      | exception Irsim.Lower.Error msg ->
        Error (Printf.sprintf "lowering: %s" msg)
      | ir ->
        Ok
          { f_source = source; f_ir = ir;
            f_precision = parsed.Lang.Ast.precision;
            f_builts = fronts.builts; f_backs = [] }
    end
  end

let fronts program = { program; builts = ref []; host = None; device = None }

let front_end fronts (target : target) =
  let cached =
    match target with `Host -> fronts.host | `Device -> fronts.device
  in
  match cached with
  | Some r ->
    Obs.Metrics.incr m_front_hits;
    r
  | None ->
    let r = run_front_end target fronts in
    (match target with
    | `Host -> fronts.host <- Some r
    | `Device -> fronts.device <- Some r);
    r

(* ------------------------------------------------------------------ *)
(* Back end: the configuration's pass pipeline over the shared
   (immutable) lowered IR, then one flatten per distinct output.

   Two levels of sharing, both confined to one program's [fronts]:
   configurations whose pipeline and runtime agree run the pipeline once
   per front (9 of the 18 configurations at FP64, 10 at FP32, where
   nvcc's -use_fast_math differs from -O3); and pipelines whose outputs
   are [Identical] with equal runtimes, on either target, share one
   flattened program — 6.4–6.6 per program on LLM4FP campaigns. *)

let of_ir ~(config : Config.t) ~source ~work ir =
  { config; source; ir; vm = Irsim.Vm.flatten (Config.runtime config) ir; work;
    exec_class = ref () }

let same_runtime (a : Irsim.Interp.runtime) (b : Irsim.Interp.runtime) =
  a.libm == b.libm && Bool.equal a.ftz b.ftz
  && Bool.equal a.nan_cmp_taken b.nan_cmp_taken

(* Two configurations build the same back end when everything but their
   identity agrees: the pass pipeline and the runtime. The fields are
   immediates, compared as such; fast-math settings are the personality
   tables, so physical equality almost always decides. *)
let same_back_end (a : Config.t) (b : Config.t) =
  Bool.equal a.fold.fold_arith b.fold.fold_arith
  && Option.equal ( == ) a.fold.fold_calls b.fold.fold_calls
  && a.contract == b.contract
  && Option.equal (fun x y -> x == y || x = y) a.fastmath b.fastmath
  && Bool.equal a.dce b.dce && a.libm == b.libm && Bool.equal a.ftz b.ftz
  && Bool.equal a.nan_cmp_taken b.nan_cmp_taken

(* How [ir] under [rt] stands against [builts]: [`Same b] for an
   [Identical] one, else the class of a [Compare_equal] one if any.
   Classes are unions under [Stdlib.compare], which is an equivalence,
   so any member names the class. *)
let rec classify ir rt cls (builts : built list) =
  match builts with
  | [] -> `Class cls
  | b :: rest ->
    if not (same_runtime rt b.b_rt) then classify ir rt cls rest
    else begin
      match Irsim.Ir.likeness ir b.b_ir with
      | Irsim.Ir.Identical -> `Same b
      | Irsim.Ir.Compare_equal -> classify ir rt (Some b.b_class) rest
      | Irsim.Ir.Different -> classify ir rt cls rest
    end

(* The program's output for [ir] under [rt]: an [Identical] one already
   built, or a new flatten. *)
let share builts ir rt =
  match classify ir rt None !builts with
  | `Same b -> b
  | `Class cls ->
    let b_class = match cls with Some c -> c | None -> ref () in
    let b =
      { b_ir = ir; b_rt = rt; b_vm = Irsim.Vm.flatten rt ir;
        b_work = body_size ir.body; b_class }
    in
    builts := b :: !builts;
    b

(* Fault injection comes first, so a [backend@N] plan hits the N-th
   configuration whether or not its output is shared. Each
   configuration gets its own binary record, naming its own
   configuration. *)
let back_end (config : Config.t) (front : front) =
  inject_with_retry Exec.Faults.Back_end;
  let applied = Config.effective config front.f_precision in
  let b =
    match
      List.find_map
        (fun (c, built) -> if same_back_end c applied then Some built else None)
        front.f_backs
    with
    | Some b -> b
    | None ->
      let b =
        share front.f_builts (pipeline applied front.f_ir)
          (Config.runtime applied)
      in
      front.f_backs <- (applied, b) :: front.f_backs;
      b
  in
  { config = applied; source = front.f_source; ir = b.b_ir; vm = b.b_vm;
    work = b.b_work; exec_class = b.b_class }

let same_exec_class (a : binary) (b : binary) = a.exec_class == b.exec_class

let compile_with fronts (config : Config.t) =
  Obs.Span.with_span "compiler.compile" @@ fun () ->
  let result =
    match front_end fronts (target_of config) with
    | Error msg -> Error (Printf.sprintf "%s: %s" (Config.name config) msg)
    | Ok front ->
      Ok (Obs.Span.with_span "compiler.back_end" (fun () -> back_end config front))
  in
  (match result with
  | Ok binary ->
    Obs.Metrics.incr m_compile_ok;
    Obs.Metrics.incr ~by:binary.work m_work;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Event.Compiled
           {
             slot = Obs.Trace.current_slot ();
             config = Config.name config;
             ok = true;
             work = binary.work;
           })
  | Error _ ->
    Obs.Metrics.incr m_compile_error;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Event.Compiled
           {
             slot = Obs.Trace.current_slot ();
             config = Config.name config;
             ok = false;
             work = 0;
           }));
  result

let compile (config : Config.t) (program : Lang.Ast.program) =
  compile_with (fronts program) config

let execute binary inputs =
  Obs.Span.with_span "compiler.interp" @@ fun () ->
  inject_with_retry Exec.Faults.Execution;
  Irsim.Vm.run binary.vm inputs

let account ?hex binary (out : Irsim.Interp.outcome) =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:out.Irsim.Interp.fp_ops m_fp_ops;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Executed
         {
           slot = Obs.Trace.current_slot ();
           config = Config.name binary.config;
           hex =
             (match hex with
             | Some h -> h
             | None -> Fp.Bits.hex_of_double out.Irsim.Interp.result);
           ops = out.Irsim.Interp.fp_ops;
         })

let run binary inputs =
  let out = execute binary inputs in
  account binary out;
  out

let run_hex binary inputs = Fp.Bits.hex_of_double (run binary inputs).result

let matrix ?configs program =
  let configs =
    match configs with Some cs -> cs | None -> Config.all ()
  in
  let fronts = fronts program in
  List.map
    (fun config ->
      match compile_with fronts config with
      | Ok binary -> Either.Left (config, binary)
      | Error msg -> Either.Right (config, msg))
    configs
