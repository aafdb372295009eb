type binary = {
  config : Config.t;
  source : string;
  ir : Irsim.Ir.t;
  vm : Irsim.Vm.program;
  work : int;
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

(* What a back end's output depends on: its pass pipeline (fold,
   contract, fastmath, dce) and the runtime its flattened program binds.
   Plain data, compared structurally. *)
type back_key =
  Irsim.Fold.config
  * Irsim.Contract.policy
  * Irsim.Fastmath.config option
  * bool
  * Irsim.Interp.runtime

type front = {
  f_source : string;       (* the emitted translation unit *)
  f_ir : Irsim.Ir.t;       (* lowered, before the pass pipeline *)
  f_precision : Lang.Ast.precision;  (* of the re-parsed unit *)
  f_lock : Mutex.t;
  mutable f_backs : (back_key * binary) list;  (* one per distinct back end *)
}

type fronts = {
  program : Lang.Ast.program;
  lock : Mutex.t;
  mutable host : (front, string) result option;
  mutable device : (front, string) result option;
}

let target_of (config : Config.t) : target =
  if Personality.is_host config.personality then `Host else `Device

(* Error strings carry no configuration name; [compile_with] prefixes
   the config so per-configuration failure messages keep their historic
   shape ("<config>: front end: …" / "<config>: …" / "<config>:
   lowering: …"). *)
let run_front_end (target : target) program =
  Obs.Span.with_span "compiler.front_end" @@ fun () ->
  inject_with_retry Exec.Faults.Front_end;
  Obs.Metrics.incr m_front_runs;
  (* Emit the translation unit for the target, then run the front end on
     that text: the device path really goes through the C-to-CUDA
     translation. *)
  let source =
    match target with
    | `Host -> Lang.Pp.to_c program
    | `Device -> Lang.Pp.to_cuda program
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
            f_lock = Mutex.create (); f_backs = [] }
    end
  end

let fronts program =
  { program; lock = Mutex.create (); host = None; device = None }

let front_end fronts (target : target) =
  Mutex.lock fronts.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock fronts.lock)
    (fun () ->
      let cached =
        match target with `Host -> fronts.host | `Device -> fronts.device
      in
      match cached with
      | Some r ->
        Obs.Metrics.incr m_front_hits;
        r
      | None ->
        let r = run_front_end target fronts.program in
        (match target with
        | `Host -> fronts.host <- Some r
        | `Device -> fronts.device <- Some r);
        r)

(* ------------------------------------------------------------------ *)
(* Back end: the configuration's pass pipeline over the shared
   (immutable) lowered IR. Configurations whose effective pipeline and
   runtime agree get the same output, so each front holds one entry per
   distinct key: 9 of the 18 configurations at FP64 (10 at FP32, where
   nvcc's -use_fast_math differs from -O3). *)

(* Every binary carries its flattened program: the flatten pass runs
   exactly once per back-end output, so run-many execution never
   re-walks the tree. *)
let of_ir ~(config : Config.t) ~source ~work ir =
  { config; source; ir; vm = Irsim.Vm.flatten (Config.runtime config) ir; work }

let back_key (c : Config.t) : back_key =
  (c.fold, c.contract, c.fastmath, c.dce, Config.runtime c)

(* The first binary built for [key] on this front. [build] runs outside
   the lock; when two workers race on one key, the first stored binary
   wins and the other adopts it, so sharing holds at any job count. *)
let shared_back_end front key build =
  let lookup () = List.assoc_opt key front.f_backs in
  match Mutex.protect front.f_lock lookup with
  | Some first -> first
  | None ->
    let built = build () in
    Mutex.protect front.f_lock (fun () ->
        match lookup () with
        | Some first -> first
        | None ->
          front.f_backs <- (key, built) :: front.f_backs;
          built)

(* Fault injection comes first, so a [backend@N] plan hits the N-th
   configuration whether or not its output is shared. Each
   configuration gets its own binary record, naming its own
   configuration. *)
let back_end (config : Config.t) (front : front) =
  inject_with_retry Exec.Faults.Back_end;
  let applied = Config.effective config front.f_precision in
  let first =
    shared_back_end front (back_key applied) (fun () ->
        let ir = pipeline applied front.f_ir in
        of_ir ~config:applied ~source:front.f_source ~work:(body_size ir.body) ir)
  in
  { first with config = applied }

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

let account binary (out : Irsim.Interp.outcome) =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:out.Irsim.Interp.fp_ops m_fp_ops;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Executed
         {
           slot = Obs.Trace.current_slot ();
           config = Config.name binary.config;
           hex = Fp.Bits.hex_of_double out.Irsim.Interp.result;
           ops = out.Irsim.Interp.fp_ops;
         })

let run binary inputs =
  let out = execute binary inputs in
  account binary out;
  out

let run_hex binary inputs = Fp.Bits.hex_of_double (run binary inputs).result

let matrix ?configs ?(jobs = 1) program =
  let configs =
    match configs with Some cs -> cs | None -> Config.all ()
  in
  let fronts = fronts program in
  let slot = Obs.Trace.current_slot () in
  let compile_one config =
    match compile_with fronts config with
    | Ok binary -> Either.Left (config, binary)
    | Error msg -> Either.Right (config, msg)
  in
  let task (lane, config) =
    (* Re-establish the caller's slot context inside pool workers so
       Compiled events stay correlated, and lane-stamp by matrix index
       so ordered sinks can serialize them deterministically. Retry
       backoff is settled in configuration order. *)
    let go () = Obs.Trace.with_lane lane (fun () -> compile_one config) in
    Obs.Span.deferred (fun () ->
        match slot with
        | Some s -> Obs.Trace.with_slot s go
        | None -> go ())
  in
  Obs.Span.settle
    (Exec.Pool.map ~jobs task (List.mapi (fun i c -> (i, c)) configs))
