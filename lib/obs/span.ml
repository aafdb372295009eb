(* Timed spans for hot-path profiling.

   Disabled (the default), [with_span] is one atomic read around the
   thunk. Enabled, each span records real wall-clock seconds and — when
   a simulated clock is attached — the simulated seconds that elapsed
   inside it. Aggregation is keyed by the span's *path*: the stack of
   enclosing span labels, tracked in a domain-local stack, so the same
   label reached through different parents aggregates separately and
   [tree] can reconstruct the call hierarchy with per-node self time.
   The flat [summary] view merges paths on their leaf label, preserving
   the historical per-label totals (a nested span still accounts its
   own label and its time is also inside its parent's).

   Domain safety: every domain aggregates into its own table (DLS), so
   recording stays lock-free even under the pool; tables register
   themselves in a mutex-guarded list on first use and [summary]/[tree]
   merge them at read time. The label stack is domain-local too, which
   means spans recorded inside pool workers become roots of that
   domain's tree (the worker cannot see the submitting domain's stack);
   at jobs = 1 the pool runs tasks inline and nesting is preserved.
   The attached simulated clock is domain-local as well, so concurrent
   campaigns each attribute simulated time to their own clock. Take
   summaries after parallel sections have drained. *)

type agg = {
  mutable count : int;
  mutable total : float;
  mutable max : float;
  mutable sim : float;
}

(* Keyed by the span path in leaf-first order (the natural stack
   order — pushing a child is O(1)). *)
type table = (string list, agg) Hashtbl.t

let registry_lock = Mutex.create ()
let tables : table list ref = ref []

let local_table : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let t : table = Hashtbl.create 32 in
      Mutex.lock registry_lock;
      tables := t :: !tables;
      Mutex.unlock registry_lock;
      t)

let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let clock_key : Util.Sim_clock.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_clock c = Domain.DLS.set clock_key c

let with_clock c f =
  let saved = Domain.DLS.get clock_key in
  Domain.DLS.set clock_key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set clock_key saved) f

let sim_now () =
  match Domain.DLS.get clock_key with
  | Some c -> Util.Sim_clock.elapsed c
  | None -> 0.0

let charge_sim seconds =
  match Domain.DLS.get clock_key with
  | Some c -> Util.Sim_clock.advance c seconds
  | None -> ()

let record path dt dsim =
  let table = Domain.DLS.get local_table in
  let agg =
    match Hashtbl.find_opt table path with
    | Some a -> a
    | None ->
      let a = { count = 0; total = 0.0; max = 0.0; sim = 0.0 } in
      Hashtbl.replace table path a;
      a
  in
  agg.count <- agg.count + 1;
  agg.total <- agg.total +. dt;
  if dt > agg.max then agg.max <- dt;
  agg.sim <- agg.sim +. dsim

let with_span label f =
  if not (Atomic.get enabled) then f ()
  else begin
    let parent = Domain.DLS.get stack_key in
    let path = label :: parent in
    Domain.DLS.set stack_key path;
    let t0 = Unix.gettimeofday () in
    let s0 = sim_now () in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set stack_key parent;
        record path (Unix.gettimeofday () -. t0) (sim_now () -. s0))
      f
  end

(* Merged (path -> agg) snapshot across all domain tables. *)
let merged_paths () =
  let merged : table = Hashtbl.create 32 in
  Mutex.lock registry_lock;
  let snapshot = !tables in
  Mutex.unlock registry_lock;
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun path (a : agg) ->
          match Hashtbl.find_opt merged path with
          | Some m ->
            m.count <- m.count + a.count;
            m.total <- m.total +. a.total;
            if a.max > m.max then m.max <- a.max;
            m.sim <- m.sim +. a.sim
          | None ->
            Hashtbl.replace merged path
              { count = a.count; total = a.total; max = a.max; sim = a.sim })
        t)
    snapshot;
  merged

type row = {
  label : string;
  count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
  sim_s : float;
}

let summary () =
  (* Flat view: merge paths on their leaf label, so per-label totals are
     independent of where in the tree a span ran (what the [profile]
     table keys on). *)
  let by_label : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun path (a : agg) ->
      let label = List.hd path in
      match Hashtbl.find_opt by_label label with
      | Some m ->
        m.count <- m.count + a.count;
        m.total <- m.total +. a.total;
        if a.max > m.max then m.max <- a.max;
        m.sim <- m.sim +. a.sim
      | None ->
        Hashtbl.replace by_label label
          { count = a.count; total = a.total; max = a.max; sim = a.sim })
    (merged_paths ());
  Hashtbl.fold
    (fun label (a : agg) acc ->
      {
        label;
        count = a.count;
        total_s = a.total;
        mean_s = (if a.count = 0 then 0.0 else a.total /. float_of_int a.count);
        max_s = a.max;
        sim_s = a.sim;
      }
      :: acc)
    by_label []
  |> List.sort (fun a b -> String.compare a.label b.label)

type node = {
  n_label : string;
  n_path : string list;
  n_count : int;
  n_total_s : float;
  n_self_s : float;
  n_max_s : float;
  n_sim_s : float;
  n_sim_self_s : float;
  n_children : node list;
}

let tree () =
  (* Entries as (root-first path, agg); group recursively on the head
     label under the current prefix. *)
  let entries =
    Hashtbl.fold
      (fun path a acc -> (List.rev path, a) :: acc)
      (merged_paths ()) []
  in
  let rec build prefix_rev entries =
    let labels =
      List.sort_uniq String.compare
        (List.filter_map
           (fun (path, _) ->
             match path with label :: _ -> Some label | [] -> None)
           entries)
    in
    List.map
      (fun label ->
        let own : agg option ref = ref None in
        let sub =
          List.filter_map
            (fun (path, a) ->
              match path with
              | [ l ] when String.equal l label ->
                own := Some a;
                None
              | l :: rest when String.equal l label -> Some (rest, a)
              | _ -> None)
            entries
        in
        let children = build (label :: prefix_rev) sub in
        let child_total =
          List.fold_left (fun s c -> s +. c.n_total_s) 0.0 children
        in
        let child_sim =
          List.fold_left (fun s c -> s +. c.n_sim_s) 0.0 children
        in
        (* A path can lack its own aggregate only if the summary was
           taken while the span was still open; synthesize it from the
           children so the tree stays consistent. *)
        let count, total, max_s, sim =
          match !own with
          | Some a -> (a.count, a.total, a.max, a.sim)
          | None -> (0, child_total, 0.0, child_sim)
        in
        {
          n_label = label;
          n_path = List.rev (label :: prefix_rev);
          n_count = count;
          n_total_s = total;
          n_self_s = Float.max 0.0 (total -. child_total);
          n_max_s = max_s;
          n_sim_s = sim;
          n_sim_self_s = Float.max 0.0 (sim -. child_sim);
          n_children = children;
        })
      labels
  in
  build [] entries

let render () =
  let seconds v = Printf.sprintf "%.4f" v in
  let rows =
    List.map
      (fun r ->
        [ r.label;
          string_of_int r.count;
          seconds r.total_s;
          Printf.sprintf "%.6f" r.mean_s;
          Printf.sprintf "%.6f" r.max_s;
          seconds r.sim_s ])
      (summary ())
  in
  Report.Table.render
    ~title:"span profile (real seconds; sim = simulated-clock share)"
    ~header:[ "span"; "count"; "total s"; "mean s"; "max s"; "sim s" ]
    rows

let render_tree () =
  let seconds v = Printf.sprintf "%.4f" v in
  let rows = ref [] in
  let rec walk depth n =
    let indent = String.concat "" (List.init depth (fun _ -> "  ")) in
    rows :=
      [ indent ^ n.n_label;
        string_of_int n.n_count;
        seconds n.n_total_s;
        seconds n.n_self_s;
        seconds n.n_sim_s ]
      :: !rows;
    List.iter (walk (depth + 1)) n.n_children
  in
  List.iter (walk 0) (tree ());
  Report.Table.render
    ~title:"span tree (real seconds; self = total minus children)"
    ~header:[ "span"; "count"; "total s"; "self s"; "sim s" ]
    (List.rev !rows)

let flame () =
  (* Chrome trace-event export. The tree holds aggregates, not
     individual span instances, so the timeline is synthetic: a DFS
     lays each node out as one complete event whose duration is
     max(own total, sum of children durations) — the clamp keeps every
     child interval nested inside its parent even when a summary was
     taken mid-span. The layout is computed in integer microseconds —
     rounding durations before placing children, not after — so
     siblings tile exactly and never overlap by a rounding ulp.
     Timestamps are microseconds from an arbitrary origin at 0. *)
  let rec duration n =
    max
      (int_of_float (Float.round (n.n_total_s *. 1e6)))
      (List.fold_left (fun s c -> s + duration c) 0 n.n_children)
  in
  let events = ref [] in
  let rec emit ts n =
    let dur = duration n in
    events :=
      Json.Obj
        [
          ("name", Json.String n.n_label);
          ("cat", Json.String "span");
          ("ph", Json.String "X");
          ("ts", Json.Int ts);
          ("dur", Json.Int dur);
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ( "args",
            Json.Obj
              [
                ("count", Json.Int n.n_count);
                ("self_s", Json.Float n.n_self_s);
                ("sim_s", Json.Float n.n_sim_s);
              ] );
        ]
      :: !events;
    ignore
      (List.fold_left (fun t c -> emit t c; t + duration c) ts n.n_children)
  in
  ignore (List.fold_left (fun t n -> emit t n; t + duration n) 0 (tree ()));
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms");
    ]

let reset () =
  Mutex.lock registry_lock;
  List.iter Hashtbl.reset !tables;
  Mutex.unlock registry_lock
