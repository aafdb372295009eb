open Lang
open Gen

type t = {
  rng : Util.Rng.t;
  sampler : Sampler.t;
  mutable skeletons : Ast.program list;
  seen_structures : (string, unit) Hashtbl.t;
      (** blind-rename structural fingerprints of everything emitted: a
          temperature-1.2 model rarely reproduces a structure verbatim,
          so the client usually (not always) re-rolls on collision *)
  mutable calls : int;
  mutable total_latency : float;
}

type response = {
  source : string;
  latency : float;
  prompt_tokens : int;
  output_tokens : int;
}

let create ?(params = Sampler.paper_params) ~seed () =
  {
    rng = Util.Rng.of_int seed;
    sampler = Sampler.create params;
    skeletons = [];
    seen_structures = Hashtbl.create 256;
    calls = 0;
    total_latency = 0.0;
  }

let calls t = t.calls
let total_latency t = t.total_latency

(* --------------------------------------------------------------- *)
(* Durable snapshots. Skeleton programs are carried as their C
   rendering: [Pp] and [Cparse.Parse] are structural inverses (see
   Pp's parenthesization contract), so re-parsing rebuilds the exact
   ASTs and the restored session replays the original's stream. *)

type snapshot = {
  snap_rng : int64 * float option;
  snap_sampler : (string * int) list;
  snap_skeletons : string list;  (** newest first, as held in session *)
  snap_seen : string list;  (** sorted clone keys *)
  snap_calls : int;
  snap_total_latency : float;
}

let snapshot t =
  {
    snap_rng = Util.Rng.state t.rng;
    snap_sampler = Sampler.usage_snapshot t.sampler;
    snap_skeletons = List.map Pp.to_c t.skeletons;
    snap_seen =
      Hashtbl.fold (fun k () acc -> k :: acc) t.seen_structures []
      |> List.sort String.compare;
    snap_calls = t.calls;
    snap_total_latency = t.total_latency;
  }

let restore t snap =
  let rec parse_all acc = function
    | [] -> Ok (List.rev acc)
    | src :: rest -> (
        match Cparse.Parse.program src with
        | Ok p -> parse_all (p :: acc) rest
        | Error msg ->
            Error
              (Printf.sprintf "client snapshot: unparseable skeleton (%s)" msg))
  in
  match parse_all [] snap.snap_skeletons with
  | Error _ as e -> e
  | Ok skeletons ->
      Util.Rng.set_state t.rng snap.snap_rng;
      Sampler.restore_usage t.sampler snap.snap_sampler;
      t.skeletons <- skeletons;
      Hashtbl.reset t.seen_structures;
      List.iter (fun k -> Hashtbl.replace t.seen_structures k ()) snap.snap_seen;
      t.calls <- snap.snap_calls;
      t.total_latency <- snap.snap_total_latency;
      Ok ()

let generation_config =
  {
    Gen_config.varity with
    Gen_config.min_params = 2;
    max_params = 4;
    p_array_param = 0.5;
    min_stmts = 3;
    max_stmts = 8;
    max_expr_depth = 4;
    p_loop = 0.45;
    p_if = 0.15;
    p_decl = 0.4;
    p_call = 0.33;
    p_compound_assign = 0.6;
    loop_bound_min = 4;
    loop_bound_max = 64;
    literal_log10_min = -3.0;
    literal_log10_max = 3.0;
    input_profile = Gen_config.Sensible;
  }

let flaw_rate = function
  | Prompt.Direct _ -> 0.04
  | Prompt.Grammar _ -> 0.015
  | Prompt.Mutate _ -> 0.01

(* --------------------------------------------------------------- *)
(* Instantiation: corpus kernels come out with fresh human names and
   lightly jittered constants, like a model re-deriving an idiom. *)

let human_names = Generate.human_naming

let rename_fresh t (p : Ast.program) =
  let table = Hashtbl.create 16 in
  let taken = Hashtbl.create 16 in
  Hashtbl.add taken Ast.comp_name ();
  let pool =
    Array.append human_names.Generate.param_pool human_names.Generate.temp_pool
  in
  let fresh_for original =
    if Util.Rng.chance t.rng 0.3 then original (* keep some semantic names *)
    else begin
      let base = Util.Rng.choose t.rng pool in
      let rec go candidate n =
        if Hashtbl.mem taken candidate then
          go (Printf.sprintf "%s%d" base n) (n + 1)
        else candidate
      in
      go base 1
    end
  in
  let map name =
    match Hashtbl.find_opt table name with
    | Some fresh -> fresh
    | None ->
      let fresh =
        let candidate = fresh_for name in
        if Hashtbl.mem taken candidate then name else candidate
      in
      Hashtbl.replace table name fresh;
      Hashtbl.replace taken fresh ();
      fresh
  in
  (* Pre-register existing names so renaming stays injective. *)
  List.iter (fun n -> Hashtbl.replace taken n ()) (Ast.declared_names p);
  Ast.rename map p

(* Gentle constant jitter: enough to make literals differ between
   generations, small enough to keep kernels in their intended dynamic
   regime (an LLM re-deriving a logistic map still writes r ≈ 3.7). *)
let jitter_literals t ?(prob = 0.3) (p : Ast.program) =
  let rec visit e =
    match e with
    | Ast.Lit v when Util.Rng.chance t.rng prob ->
      let factor =
        Util.Rng.choose t.rng [| 1.05; 0.95; 1.1; 0.9; 1.02; 0.98; 1.005 |]
      in
      let v' = v *. factor in
      Ast.Lit (if Float.is_finite v' && v' <> 0.0 then v' else v)
    | Ast.Lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Index _ -> e
    | Ast.Neg inner -> Ast.Neg (visit inner)
    | Ast.Bin (op, a, b) -> Ast.Bin (op, visit a, visit b)
    | Ast.Call (fn, args) -> Ast.Call (fn, List.map visit args)
  in
  { p with body = Ast.map_exprs visit p.body }

(* A structural shake ensures fresh generations are not literal clones of
   the template: [n] structure-changing mutations (each retried until one
   takes effect). *)
let structural_shake ?(n = 1) t (p : Ast.program) =
  (* Only clone-key-changing strategies: operand swaps and constant
     retuning are invisible to blind-rename comparison. *)
  let strategies =
    [ Mutate.Swap_math_fn; Mutate.Add_control_flow;
      Mutate.Insert_intermediates ]
  in
  let weight s = ignore s; 1.0 in
  let pick () =
    Sampler.pick t.sampler t.rng
      (Array.of_list
         (List.map (fun s -> ("shake:" ^ Mutate.name s, weight s, s)) strategies))
  in
  let rec once p attempts =
    if attempts = 0 then fst (Mutate.apply t.rng Mutate.Add_control_flow p)
    else
      let p', changed = Mutate.apply t.rng (pick ()) p in
      if changed then p' else once p (attempts - 1)
  in
  let rec go p k = if k = 0 then p else go (once p 4) (k - 1) in
  go p (max 1 n)

(* Weave one extra math-library call into a program — corpus kernels are
   frequently call-free (pure reductions), while LLM-authored numerical
   code habitually decorates them with transcendentals. *)
let call_enrich t (p : Ast.program) =
  let fn =
    Util.Rng.choose t.rng
      [| Ast.Sin; Ast.Cos; Ast.Tanh; Ast.Exp; Ast.Log1p; Ast.Atan |]
  in
  let scalar =
    match
      List.filter_map (function Ast.P_fp n -> Some n | _ -> None) p.params
    with
    | [] -> Ast.Lit 0.7853981633974483
    | ps -> Ast.Var (Util.Rng.choose_list t.rng ps)
  in
  let amount = Ast.Lit (Util.Rng.choose t.rng [| 0.5; 0.25; 1.0; 0.125 |]) in
  let decorated = ref false in
  let decorate rhs =
    Ast.Bin
      (Ast.Add, rhs, Ast.Bin (Ast.Mul, amount, Ast.Call (fn, [ scalar ])))
  in
  let rec walk body =
    List.map
      (fun s ->
        match s with
        | Ast.Assign { lhs = Ast.Lv_var v; op; rhs }
          when v = Ast.comp_name && not !decorated ->
          decorated := true;
          Ast.Assign { lhs = Ast.Lv_var v; op; rhs = decorate rhs }
        | Ast.For r -> Ast.For { r with body = walk r.body }
        | s -> s)
      body
  in
  let body = walk p.body in
  if !decorated then { p with body } else p

(* The "safe and common patterns" an unconstrained model falls back to
   (§3.2.3's analysis of Direct-Prompt): plain reductions and one-shot
   formulas without named product temporaries or call-heavy loops. *)
let safe_kernels =
  [ "dot_product"; "running_mean"; "horner_polynomial"; "kahan_sum";
    "weighted_average"; "rms_energy"; "cosine_similarity";
    "compound_interest"; "quadratic_roots"; "range_normalize" ]

let pick_from_pool t pool =
  let items =
    Array.map (fun (e : Corpus.entry) -> ("corpus:" ^ e.Corpus.name, 1.0, e)) pool
  in
  Sampler.pick t.sampler t.rng items

let safe_pool =
  lazy
    (Array.of_list
       (List.filter
          (fun (e : Corpus.entry) -> List.mem e.Corpus.name safe_kernels)
          (Array.to_list Corpus.entries)))

let corpus_pick ?(safe_bias = false) t ~common_bias =
  if safe_bias && Util.Rng.chance t.rng 0.94 then
    pick_from_pool t (Lazy.force safe_pool)
  else begin
    let items =
      Array.map
        (fun (e : Corpus.entry) ->
          let w = if e.common then common_bias else 1.0 in
          ("corpus:" ^ e.name, w, e))
        Corpus.entries
    in
    Sampler.pick t.sampler t.rng items
  end

(* --------------------------------------------------------------- *)
(* Mistake injection: plausible LLM failure modes that surface as
   compilation errors downstream. *)

let replace_first haystack needle replacement =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then haystack
    else if String.sub haystack i nn = needle then
      String.sub haystack 0 i ^ replacement
      ^ String.sub haystack (i + nn) (nh - i - nn)
    else scan (i + 1)
  in
  scan 0

type flaw = Unknown_function | Uninitialized_variable | Undefined_call

let flaws = [| Unknown_function; Uninitialized_variable; Undefined_call |]

(* The anchor is the accumulator's declaration in the response's own
   precision: "double comp = 0.0;" or "float comp = 0.0;". *)
let apply_flaw precision flaw source =
  let ty = Pp.fp_type_name precision in
  let comp_decl = ty ^ " comp = 0.0;" in
  match flaw with
  | Unknown_function ->
    (* unsupported math function (outside the allowed headers' subset) *)
    replace_first source comp_decl (ty ^ " comp = erf(0.5);")
  | Uninitialized_variable ->
    (* uninitialized variable: the grammar requires an initializer *)
    replace_first source comp_decl
      (comp_decl ^ "\n  " ^ ty ^ " uninitialized_value;")
  | Undefined_call ->
    (* call to a function that does not exist *)
    replace_first source comp_decl (comp_decl ^ "\n  comp = randval();")

let inject_flaw t precision source =
  apply_flaw precision flaws.(Util.Rng.int t.rng (Array.length flaws)) source

(* --------------------------------------------------------------- *)

let rec fresh_grammar_program t =
  let mode =
    Sampler.pick t.sampler t.rng
      [| ("gen:corpus", 4.0, `Corpus); ("gen:grammar", 0.3, `Grammar);
         ("gen:hybrid", 1.5, `Hybrid) |]
  in
  let maybe_enrich p =
    if Util.Rng.chance t.rng 0.08 then call_enrich t p else p
  in
  match mode with
  | `Corpus ->
    let entry = corpus_pick t ~common_bias:1.2 in
    Corpus.program entry |> rename_fresh t |> jitter_literals t
    |> maybe_enrich
    |> structural_shake ~n:2 t
  | `Grammar ->
    Generate.generate t.rng generation_config Generate.human_naming
  | `Hybrid ->
    (* corpus kernel with extra grammar-derived statements appended *)
    let entry = corpus_pick t ~common_bias:1.0 in
    let base = Corpus.program entry |> rename_fresh t |> jitter_literals t in
    append_grammar_tail t base

and append_grammar_tail ?(mild = false) t (base : Ast.program) =
    let tail_config =
      if mild then
        { generation_config with
          Gen_config.min_stmts = 1; max_stmts = 2; p_call = 0.06;
          p_loop = 0.15 }
      else { generation_config with Gen_config.min_stmts = 1; max_stmts = 3 }
    in
    let extra = Generate.generate t.rng tail_config Generate.human_naming in
    (* merge: rename extra's names away from base's, drop extra's params,
       keep only statements that reference base's scalars or literals *)
    let base_names = Ast.declared_names base in
    let renamed_extra =
      Ast.rename
        (fun n -> if List.mem n base_names then n ^ "_x" else n)
        extra
    in
    let scalar_params =
      List.filter_map
        (function Ast.P_fp n -> Some n | _ -> None)
        base.params
    in
    let retarget e =
      (* map extra's parameter reads onto base's scalars *)
      let extra_params = List.map Ast.param_name renamed_extra.params in
      let rec visit e =
        match e with
        | Ast.Var n when List.mem n extra_params -> begin
          match scalar_params with
          | [] -> Ast.Lit 1.5
          | ps -> Ast.Var (List.nth ps (Hashtbl.hash n mod List.length ps))
        end
        | Ast.Index (n, _) when List.mem n extra_params -> begin
          match scalar_params with
          | [] -> Ast.Lit 0.5
          | ps -> Ast.Var (List.hd ps)
        end
        | Ast.Lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Index _ -> e
        | Ast.Neg inner -> Ast.Neg (visit inner)
        | Ast.Bin (op, a, b) -> Ast.Bin (op, visit a, visit b)
        | Ast.Call (fn, args) -> Ast.Call (fn, List.map visit args)
      in
      visit e
    in
    (* extra's parameters were dropped, so writes through them (array
       stores, or stores to its scalar/int parameters) must go too — at
       any nesting depth. Reads were already retargeted. *)
    let extra_param_names = List.map Ast.param_name renamed_extra.params in
    let rec drop_param_writes body =
      List.filter_map
        (fun s ->
          match s with
          | Ast.Assign { lhs = Ast.Lv_index _; _ } -> None
          | Ast.Assign { lhs = Ast.Lv_var n; _ }
            when List.mem n extra_param_names ->
            None
          | Ast.If r -> Some (Ast.If { r with body = drop_param_writes r.body })
          | Ast.For r ->
            Some (Ast.For { r with body = drop_param_writes r.body })
          | Ast.Decl _ | Ast.Assign _ -> Some s)
        body
    in
    let extra_body =
      renamed_extra.body |> Ast.map_exprs retarget |> drop_param_writes
    in
    { base with body = base.body @ extra_body }

let skeleton_cap = 40

let remember_skeleton t p =
  t.skeletons <- p :: (if List.length t.skeletons >= skeleton_cap then
                         List.filteri (fun i _ -> i < skeleton_cap - 1) t.skeletons
                       else t.skeletons)

let grammar_generate t =
  let sticky = t.skeletons <> [] && Util.Rng.chance t.rng 0.75 in
  if sticky then begin
    let skeleton = Util.Rng.choose_list t.rng t.skeletons in
    (* An LLM re-deriving its own pattern reuses its own names a lot. *)
    let renamed =
      if Util.Rng.chance t.rng 0.7 then skeleton else rename_fresh t skeleton
    in
    (* Most re-instantiations also get jittered constants and a light
       structural shake; the residue are the Type-2 / Type-2c clones the
       paper observes in grammar-guided generation. *)
    let kept_names = renamed == skeleton in
    let jittered =
      if (not kept_names) && Util.Rng.chance t.rng 0.3 then renamed
      else jitter_literals t ~prob:0.5 renamed
    in
    (* verbatim-named re-derivations always get a structural shake, or
       they would be literal clones of their skeleton *)
    if kept_names || Util.Rng.chance t.rng 0.85 then
      structural_shake ~n:(1 + Util.Rng.int t.rng 2) t jittered
    else jittered
  end
  else begin
    let p = fresh_grammar_program t in
    remember_skeleton t p;
    p
  end

let direct_generate t =
  let entry = corpus_pick ~safe_bias:true t ~common_bias:6.0 in
  let p =
    Corpus.program entry |> rename_fresh t |> jitter_literals t ~prob:0.5
  in
  let p = if Util.Rng.chance t.rng 0.03 then call_enrich t p else p in
  let p = structural_shake ~n:(1 + Util.Rng.int t.rng 2) t p in
  (* the model writes its own decorations around the remembered idiom,
     which keeps unconstrained outputs structurally distinct *)
  if Util.Rng.chance t.rng 0.8 then append_grammar_tail ~mild:true t p else p

(* Mutations that only reorder operands or retune constants leave Type-2
   clones of the seed (blind renaming hides both); the paper's LLM4FP
   indeed shows the highest clone share of all approaches, so a small
   such fraction is deliberate — but most mutants must change the clone
   key: new control flow, a different function, or a new temporary. *)
let changes_clone_key = function
  | Mutate.Change_constants | Mutate.Reorder_or_nest -> false
  | Mutate.Add_control_flow | Mutate.Swap_math_fn
  | Mutate.Insert_intermediates ->
    true

let mutate_generate t example =
  let n = 1 + Util.Rng.int t.rng 2 in
  let strategies =
    List.init n (fun _ ->
        Sampler.pick t.sampler t.rng
          (Array.map
             (fun s -> ("mut:" ^ Mutate.name s, 1.0, s))
             Mutate.all))
  in
  let strategies =
    if List.exists changes_clone_key strategies then strategies
    else if Util.Rng.chance t.rng 0.9 then
      strategies
      @ [ (if Util.Rng.bool t.rng then Mutate.Insert_intermediates
           else Mutate.Add_control_flow) ]
    else strategies
  in
  let mutated, changed = Mutate.apply_n t.rng strategies example in
  if changed > 0 then mutated
  else if Util.Rng.chance t.rng 0.03 then example (* rare verbatim echo *)
  else fst (Mutate.apply t.rng Mutate.Change_constants example)

(* Sampling at temperature 1.2 essentially never reproduces byte-identical
   text, and only rarely an exact structural repeat. The client re-rolls:
   always (twice if needed) on an exact-text repeat, usually (once) on a
   blind-rename structural repeat. The residue models the clones the
   paper still observes in LLM4FP's output. Each candidate is rendered
   once and both keys come from that text; the keys are pure, so
   computing both up front leaves the draw sequence unchanged. Returns
   the accepted program with its C rendering. *)
let avoid_repeats t make =
  let rec roll attempts =
    let candidate = make () in
    let text = Pp.to_c candidate in
    let exact = "1:" ^ text in
    let structural = "2:" ^ Diversity.Clones.type2_key_of_unit text in
    if attempts > 0 && Hashtbl.mem t.seen_structures exact then
      roll (attempts - 1)
    else if
      attempts > 0
      && Hashtbl.mem t.seen_structures structural
      && Util.Rng.chance t.rng 0.85
    then roll 0 (* one structural re-roll, accepted as-is *)
    else begin
      Hashtbl.replace t.seen_structures exact ();
      Hashtbl.replace t.seen_structures structural ();
      (candidate, text)
    end
  in
  roll 2

let rtt = 0.5
let input_rate = 500.0
let output_rate = 55.0

let m_calls = Obs.Metrics.counter "llm.calls"
let m_prompt_tokens = Obs.Metrics.counter "llm.prompt_tokens"
let m_output_tokens = Obs.Metrics.counter "llm.output_tokens"

let m_latency =
  Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]
    "llm.latency_s"

let m_retries = Obs.Metrics.counter "retry.llm.retries"
let m_exhausted = Obs.Metrics.counter "retry.llm.exhausted"
let max_attempts = 3

(* Transient-failure policy: the request is re-sent up to [max_attempts]
   times with deterministic exponential backoff; exhaustion re-raises
   the original failure. The injection point sits before any generation
   RNG draw, so a retried call produces the identical program — only
   the modelled latency grows by the backoff. *)
let rec request_with_retry ~attempt backoff_acc =
  match Exec.Faults.inject Exec.Faults.Llm_call with
  | () -> backoff_acc
  | exception (Exec.Faults.Transient _ as e) ->
      if attempt >= max_attempts then begin
        Obs.Metrics.incr m_exhausted;
        raise e
      end
      else begin
        Obs.Metrics.incr m_retries;
        request_with_retry ~attempt:(attempt + 1)
          (backoff_acc +. Exec.Faults.backoff ~attempt)
      end

let prompt_precision = function
  | Prompt.Direct { precision } | Prompt.Grammar { precision }
  | Prompt.Mutate { precision; _ } ->
    precision

let generate t prompt =
  Obs.Span.with_span "llm.generate" @@ fun () ->
  let backoff_latency = request_with_retry ~attempt:1 0.0 in
  let program, text =
    match prompt with
    | Prompt.Direct _ -> avoid_repeats t (fun () -> direct_generate t)
    | Prompt.Grammar _ -> avoid_repeats t (fun () -> grammar_generate t)
    | Prompt.Mutate { example; _ } ->
      avoid_repeats t (fun () -> mutate_generate t example)
  in
  let precision = prompt_precision prompt in
  let source =
    if program.Ast.precision = precision then text
    else Pp.to_c { program with Ast.precision }
  in
  let source =
    if Util.Rng.chance t.rng (flaw_rate prompt) then
      inject_flaw t precision source
    else source
  in
  let prompt_tokens = Prompt.tokens prompt in
  let output_tokens = Prompt.token_count source in
  let latency =
    rtt
    +. (float_of_int prompt_tokens /. input_rate)
    +. (float_of_int output_tokens /. output_rate)
    +. backoff_latency
  in
  t.calls <- t.calls + 1;
  t.total_latency <- t.total_latency +. latency;
  Obs.Metrics.incr m_calls;
  Obs.Metrics.incr ~by:prompt_tokens m_prompt_tokens;
  Obs.Metrics.incr ~by:output_tokens m_output_tokens;
  Obs.Metrics.observe m_latency latency;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Generated
         {
           slot = Obs.Trace.current_slot ();
           prompt = Prompt.kind prompt;
           latency_s = latency;
           prompt_tokens;
           output_tokens;
         });
  { source; latency; prompt_tokens; output_tokens }
