(* Epsilon-greedy multi-armed bandit over the five generation arms.

   Each campaign slot is one pull. The reward signal is the one the
   coverage observatory already measures for strategies: inconsistencies
   per simulated second, over a rolling window of the simulated clock
   (default {!Obs.Coverage.default_window}), so an arm that was hot an
   hour of simulated time ago but has gone cold is demoted the same way
   a strategy's efficiency rate decays.

   Draw discipline: selection consumes {e exactly two} uniform draws
   from the bandit's own split stream per slot — one explore/exploit
   decision, one arm pick — no matter which branch is taken (warmup,
   exploration or exploitation). A fixed draw count is what keeps
   kill/resume byte-identical: the posterior and the stream position
   both travel in the checkpoint, and neither depends on data-dependent
   control flow. *)

type arm = Mutate | Varity | Direct | Grammar | Grow

let arms = [| Mutate; Varity; Direct; Grammar; Grow |]

(* Arm names double as campaign strategy names, so Slot_started events,
   the coverage ledger and the flight deck label bandit slots with the
   same vocabulary as fixed-arm campaigns. *)
let arm_name = function
  | Mutate -> "mutate"
  | Varity -> "varity"
  | Direct -> "direct"
  | Grammar -> "grammar"
  | Grow -> "grow"

let arm_of_name = function
  | "mutate" -> Some Mutate
  | "varity" -> Some Varity
  | "direct" -> Some Direct
  | "grammar" -> Some Grammar
  | "grow" -> Some Grow
  | _ -> None

type post = {
  mutable pulls : int;
  mutable inconsistencies : int;  (* lifetime total *)
  mutable sim_cost : float;       (* lifetime simulated seconds *)
  mutable window : (float * int * float) list;
      (* newest first: (completion sim-time, inconsistency delta,
         simulated cost) — entries older than the window are pruned *)
}

type t = {
  rng : Util.Rng.t;
  epsilon : float;
  window_s : float;
  posts : post array;  (* indexed like [arms] *)
}

let default_epsilon = 0.1

let create ?(epsilon = default_epsilon)
    ?(window = Obs.Coverage.default_window) ~rng () =
  {
    rng;
    epsilon;
    window_s = window;
    posts =
      Array.map
        (fun _ ->
          { pulls = 0; inconsistencies = 0; sim_cost = 0.0; window = [] })
        arms;
  }

let index arm =
  let rec go i = if arms.(i) = arm then i else go (i + 1) in
  go 0

let prune t post ~now =
  let cutoff = now -. t.window_s in
  post.window <- List.filter (fun (at, _, _) -> at >= cutoff) post.window

(* Windowed inconsistencies per simulated second; 0 before any cost has
   been charged in the window. *)
let reward t arm ~now =
  let post = t.posts.(index arm) in
  prune t post ~now;
  let incons, cost =
    List.fold_left
      (fun (i, c) (_, di, dc) -> (i + di, c +. dc))
      (0, 0.0) post.window
  in
  if cost <= 0.0 then 0.0 else float_of_int incons /. cost

let pulls t arm = t.posts.(index arm).pulls

type choice = {
  arm : arm;
  pulls_before : int;
  estimate : float;  (** windowed reward of the chosen arm at choice time *)
  explore : bool;    (** warmup or epsilon-exploration, not exploitation *)
}

let select t ~now ~mutate_ok ~grow_ok =
  (* Both draws happen up front, unconditionally: the stream position
     after [select] is a pure function of the position before it. *)
  let u_explore = Util.Rng.float t.rng 1.0 in
  let u_pick = Util.Rng.float t.rng 1.0 in
  let ok = function
    | Mutate -> mutate_ok
    | Grow -> grow_ok
    | Varity | Direct | Grammar -> true
  in
  let eligible = Array.to_list arms |> List.filter ok in
  let pick =
    match List.find_opt (fun a -> pulls t a = 0) eligible with
    | Some a -> (a, true) (* warmup: every eligible arm gets a first pull *)
    | None ->
      if u_explore < t.epsilon then begin
        let n = List.length eligible in
        let i = int_of_float (u_pick *. float_of_int n) in
        (List.nth eligible (min i (n - 1)), true)
      end
      else
        (* Exploit: best windowed rate; ties resolve to the fixed arm
           order, so exploitation is draw-free and deterministic. *)
        let best =
          List.fold_left
            (fun acc a ->
              match acc with
              | None -> Some (a, reward t a ~now)
              | Some (_, best_r) ->
                let r = reward t a ~now in
                if r > best_r then Some (a, r) else acc)
            None eligible
        in
        (fst (Option.get best), false)
  in
  let arm, explore = pick in
  { arm; pulls_before = pulls t arm; estimate = reward t arm ~now; explore }

let update t arm ~inconsistencies ~sim_cost ~now =
  let post = t.posts.(index arm) in
  post.pulls <- post.pulls + 1;
  post.inconsistencies <- post.inconsistencies + inconsistencies;
  post.sim_cost <- post.sim_cost +. sim_cost;
  post.window <- (now, inconsistencies, sim_cost) :: post.window;
  prune t post ~now

(* ------------------------------------------------------------------ *)
(* Serialization: the posterior array plus the stream position, stored
   verbatim in the campaign checkpoint (schema 3). *)

let rng_to_json (state, spare) =
  Obs.Json.Obj
    [ ("state", Obs.Json.String (Printf.sprintf "%016Lx" state));
      ( "spare",
        match spare with
        | None -> Obs.Json.Null
        | Some f -> Obs.Json.Float f ) ]

let to_json t =
  Obs.Json.Obj
    [ ("epsilon", Obs.Json.Float t.epsilon);
      ("window_s", Obs.Json.Float t.window_s);
      ("rng", rng_to_json (Util.Rng.state t.rng));
      ( "arms",
        Obs.Json.List
          (Array.to_list
             (Array.mapi
                (fun i post ->
                  Obs.Json.Obj
                    [ ("arm", Obs.Json.String (arm_name arms.(i)));
                      ("pulls", Obs.Json.Int post.pulls);
                      ( "inconsistencies",
                        Obs.Json.Int post.inconsistencies );
                      ("sim_cost", Obs.Json.Float post.sim_cost);
                      ( "window",
                        Obs.Json.List
                          (List.map
                             (fun (at, di, dc) ->
                               Obs.Json.List
                                 [ Obs.Json.Float at; Obs.Json.Int di;
                                   Obs.Json.Float dc ])
                             post.window) ) ])
                t.posts)) ) ]

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let number = function
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int n -> Ok (float_of_int n)
  | _ -> err "expected a number"

let float_field name json =
  match Obs.Json.member name json with
  | Some v -> number v
  | None -> err "missing field %S" name

let int_field name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Int n) -> Ok n
  | _ -> err "missing or non-int field %S" name

let restore t json =
  let* epsilon = float_field "epsilon" json in
  let* window_s = float_field "window_s" json in
  let* () =
    if epsilon = t.epsilon && window_s = t.window_s then Ok ()
    else err "checkpoint has epsilon %g window %g, caller built %g/%g"
        epsilon window_s t.epsilon t.window_s
  in
  let* rng_json =
    match Obs.Json.member "rng" json with
    | Some j -> Ok j
    | None -> err "missing field \"rng\""
  in
  let* state_s =
    match Obs.Json.member "state" rng_json with
    | Some (Obs.Json.String s) -> Ok s
    | _ -> err "malformed rng state"
  in
  let* state =
    match Int64.of_string_opt ("0x" ^ state_s) with
    | Some v -> Ok v
    | None -> err "rng state %S is not 16 hex digits" state_s
  in
  let* spare =
    match Obs.Json.member "spare" rng_json with
    | Some Obs.Json.Null -> Ok None
    | Some v -> Result.map Option.some (number v)
    | None -> err "malformed rng spare"
  in
  let* arm_list =
    match Obs.Json.member "arms" json with
    | Some (Obs.Json.List items) -> Ok items
    | _ -> err "missing or non-list field \"arms\""
  in
  let* () =
    if List.length arm_list = Array.length arms then Ok ()
    else err "expected %d arms, found %d" (Array.length arms)
        (List.length arm_list)
  in
  let* posts =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* name =
          match Obs.Json.member "arm" item with
          | Some (Obs.Json.String s) -> Ok s
          | _ -> err "arm entry without a name"
        in
        let* arm =
          match arm_of_name name with
          | Some a -> Ok a
          | None -> err "unknown arm %S" name
        in
        let* pulls = int_field "pulls" item in
        let* inconsistencies = int_field "inconsistencies" item in
        let* sim_cost = float_field "sim_cost" item in
        let* window =
          match Obs.Json.member "window" item with
          | Some (Obs.Json.List entries) ->
            List.fold_left
              (fun acc entry ->
                let* acc = acc in
                match entry with
                | Obs.Json.List [ at; di; dc ] ->
                  let* at = number at in
                  let* di =
                    match di with
                    | Obs.Json.Int n -> Ok n
                    | _ -> err "malformed window entry"
                  in
                  let* dc = number dc in
                  Ok ((at, di, dc) :: acc)
                | _ -> err "malformed window entry")
              (Ok []) entries
            |> Result.map List.rev
          | _ -> err "arm entry without a window"
        in
        Ok ((arm, pulls, inconsistencies, sim_cost, window) :: acc))
      (Ok []) arm_list
    |> Result.map List.rev
  in
  Util.Rng.set_state t.rng (state, spare);
  List.iter
    (fun (arm, pulls, inconsistencies, sim_cost, window) ->
      let post = t.posts.(index arm) in
      post.pulls <- pulls;
      post.inconsistencies <- inconsistencies;
      post.sim_cost <- sim_cost;
      post.window <- window)
    posts;
  Ok ()

(* Per-arm rows for reports (the CLI's per-arm table), in fixed arm order:
   (name, pulls, inconsistencies, sim seconds, windowless lifetime
   rate). *)
let table t =
  Array.to_list
    (Array.mapi
       (fun i post ->
         let rate =
           if post.sim_cost <= 0.0 then 0.0
           else float_of_int post.inconsistencies /. post.sim_cost
         in
         (arm_name arms.(i), post.pulls, post.inconsistencies, post.sim_cost,
          rate))
       t.posts)
