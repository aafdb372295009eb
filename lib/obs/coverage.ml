(* Search-space coverage ledger.

   Cells live in a hashtable keyed by the rendered-name tuple; every
   listing sorts by key, so hash order never leaks into output. The
   rolling window is an oldest-first queue of (sim_s, strategy, novel)
   hit records pruned on each [record] — recordings arrive in
   nondecreasing simulated time, so the expired hits are always at the
   front, each is dropped once, and pruning as we go keeps exactly the
   entries a from-scratch replay would keep. That makes the serialized
   snapshot a complete continuation state: a ledger restored from
   [of_json] records onwards byte-identically to the original. *)

type key = { kind : string; pair : string; level : string; classes : string }

type cell = {
  hits : int;
  first_slot : int;
  first_sim_s : float;
  strategy : string;
}

type hit = { h_sim_s : float; h_strategy : string; h_novel : bool }

type t = {
  w : float;
  tbl : (key, cell) Hashtbl.t;
  recent : hit Queue.t; (* oldest first *)
  mutable last_novel : float;
  mutable total_hits : int;
}

let default_window = 600.0

let create ?(window = default_window) () =
  if window <= 0.0 then invalid_arg "Coverage.create: window must be positive";
  { w = window; tbl = Hashtbl.create 64; recent = Queue.create ();
    last_novel = 0.0; total_hits = 0 }

let window t = t.w

(* Drop the hits that are not newer than [since]: a prefix of the
   queue, since hits arrive in nondecreasing simulated time. *)
let rec prune q since =
  match Queue.peek_opt q with
  | Some h when not (h.h_sim_s > since) ->
    ignore (Queue.take q);
    prune q since
  | _ -> ()

let record t ~slot ~strategy ~sim_s key =
  prune t.recent (sim_s -. t.w);
  t.total_hits <- t.total_hits + 1;
  let novel = not (Hashtbl.mem t.tbl key) in
  (if novel then begin
     Hashtbl.replace t.tbl key
       { hits = 1; first_slot = slot; first_sim_s = sim_s; strategy };
     t.last_novel <- sim_s
   end
   else
     let c = Hashtbl.find t.tbl key in
     Hashtbl.replace t.tbl key { c with hits = c.hits + 1 });
  Queue.add { h_sim_s = sim_s; h_strategy = strategy; h_novel = novel } t.recent;
  novel

let find t key = Hashtbl.find_opt t.tbl key

let cells t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_cells t = Hashtbl.length t.tbl

let kind_cells t kind =
  Hashtbl.fold (fun k _ acc -> if k.kind = kind then acc + 1 else acc) t.tbl 0

let total_hits t = t.total_hits

let last_novel t = t.last_novel

type strategy_rate = {
  strategy : string;
  window_hits : int;
  window_novel : int;
  hits_per_sim_s : float;
  novel_per_sim_s : float;
}

let strategy_rates t ~now =
  let live =
    Queue.fold
      (fun acc h -> if h.h_sim_s > now -. t.w then h :: acc else acc)
      [] t.recent
  in
  let names =
    List.sort_uniq String.compare (List.map (fun h -> h.h_strategy) live)
  in
  let span = Float.min t.w now in
  List.map
    (fun strategy ->
      let mine = List.filter (fun h -> h.h_strategy = strategy) live in
      let window_hits = List.length mine in
      let window_novel =
        List.length (List.filter (fun h -> h.h_novel) mine)
      in
      let rate n =
        if span <= 0.0 then 0.0 else float_of_int n /. span
      in
      {
        strategy;
        window_hits;
        window_novel;
        hits_per_sim_s = rate window_hits;
        novel_per_sim_s = rate window_novel;
      })
    names

let plateaued t ~now = now -. t.last_novel >= t.w

let plateau_at t ~now =
  if plateaued t ~now then Some (t.last_novel +. t.w) else None

(* ------------------------------------------------------------------ *)
(* Merging *)

(* Total order on hit records: newest first, ties broken by strategy
   then novelty, so the merged window is a deterministic function of
   the two hit multisets, never of list construction order. *)
let compare_hit a b =
  match Float.compare b.h_sim_s a.h_sim_s with
  | 0 -> begin
    match String.compare a.h_strategy b.h_strategy with
    | 0 -> Bool.compare a.h_novel b.h_novel
    | c -> c
  end
  | c -> c

(* First-discovery provenance of a cell seen by both sides: the
   earlier (slot, sim_s, strategy) wins — a total order, so the choice
   is commutative and associative. Fleet shards report disjoint global
   slot ranges, so in practice the slot alone decides. *)
let earlier_cell a b =
  let key c = (c.first_slot, c.first_sim_s, c.strategy) in
  if key a <= key b then a else b

let merge a b =
  let w = Float.max a.w b.w in
  let tbl = Hashtbl.create 64 in
  let add_cells src =
    Hashtbl.iter
      (fun k c ->
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.replace tbl k c
        | Some prev ->
          let first = earlier_cell prev c in
          Hashtbl.replace tbl k { first with hits = prev.hits + c.hits })
      src.tbl
  in
  add_cells a;
  add_cells b;
  let hits =
    List.sort compare_hit
      (List.of_seq (Seq.append (Queue.to_seq a.recent) (Queue.to_seq b.recent)))
  in
  (* Re-prune against the merged frontier: the window ends at the
     newest hit either side has seen. Pruning against the running max
     commutes with union, which keeps the merge associative. *)
  let now = match hits with [] -> 0.0 | h :: _ -> h.h_sim_s in
  let recent = Queue.create () in
  List.iter
    (fun h -> if h.h_sim_s > now -. w then Queue.add h recent)
    (List.rev hits);
  {
    w;
    tbl;
    recent;
    last_novel = Float.max a.last_novel b.last_novel;
    total_hits = a.total_hits + b.total_hits;
  }

(* ------------------------------------------------------------------ *)
(* JSON snapshot *)

let json_schema = "llm4fp-coverage/1"

let cell_to_json (k, c) =
  Json.Obj
    [ ("kind", Json.String k.kind);
      ("pair", Json.String k.pair);
      ("level", Json.String k.level);
      ("classes", Json.String k.classes);
      ("hits", Json.Int c.hits);
      ("first_slot", Json.Int c.first_slot);
      ("first_sim_s", Json.Float c.first_sim_s);
      ("strategy", Json.String c.strategy) ]

let hit_to_json h =
  Json.Obj
    [ ("sim_s", Json.Float h.h_sim_s);
      ("strategy", Json.String h.h_strategy);
      ("novel", Json.Bool h.h_novel) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.String json_schema);
      ("window", Json.Float t.w);
      ("last_novel", Json.Float t.last_novel);
      ("total_hits", Json.Int t.total_hits);
      ("cells", Json.List (List.map cell_to_json (cells t)));
      ("recent",
       Json.List (List.of_seq (Seq.map hit_to_json (Queue.to_seq t.recent)))) ]

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error ("coverage: " ^ m)) fmt

let str name json =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | _ -> err "missing or non-string field %S" name

let int name json =
  match Json.member name json with
  | Some (Json.Int n) -> Ok n
  | _ -> err "missing or non-int field %S" name

let num name json =
  match Json.member name json with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int n) -> Ok (float_of_int n)
  | _ -> err "missing or non-number field %S" name

let bool name json =
  match Json.member name json with
  | Some (Json.Bool b) -> Ok b
  | _ -> err "missing or non-bool field %S" name

let cell_of_json json =
  let* kind = str "kind" json in
  let* pair = str "pair" json in
  let* level = str "level" json in
  let* classes = str "classes" json in
  let* hits = int "hits" json in
  let* first_slot = int "first_slot" json in
  let* first_sim_s = num "first_sim_s" json in
  let* strategy = str "strategy" json in
  Ok ({ kind; pair; level; classes },
      { hits; first_slot; first_sim_s; strategy })

let hit_of_json json =
  let* h_sim_s = num "sim_s" json in
  let* h_strategy = str "strategy" json in
  let* h_novel = bool "novel" json in
  Ok { h_sim_s; h_strategy; h_novel }

let list_field name of_item json =
  match Json.member name json with
  | Some (Json.List items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* v = of_item item in
        Ok (v :: acc))
      (Ok []) items
    |> Result.map List.rev
  | _ -> err "missing or non-list field %S" name

let of_json json =
  let* schema = str "schema" json in
  let* () =
    if schema = json_schema then Ok ()
    else err "unsupported schema %S" schema
  in
  let* w = num "window" json in
  let* () = if w > 0.0 then Ok () else err "non-positive window" in
  let* last_novel = num "last_novel" json in
  let* total_hits = int "total_hits" json in
  let* cell_list = list_field "cells" cell_of_json json in
  let* recent = list_field "recent" hit_of_json json in
  (* [record] prunes the window from its oldest end, which needs the
     hits in the order [to_json] writes them *)
  let* () =
    let rec oldest_first = function
      | a :: (b :: _ as rest) -> a.h_sim_s <= b.h_sim_s && oldest_first rest
      | _ -> true
    in
    if oldest_first recent then Ok ()
    else err "field \"recent\" is not in time order"
  in
  let t =
    { w; tbl = Hashtbl.create 64; recent = Queue.of_seq (List.to_seq recent);
      last_novel; total_hits }
  in
  let* () =
    List.fold_left
      (fun acc (k, c) ->
        let* () = acc in
        if Hashtbl.mem t.tbl k then
          err "duplicate cell %s/%s/%s/%s" k.kind k.pair k.level k.classes
        else begin
          Hashtbl.replace t.tbl k c;
          Ok ()
        end)
      (Ok ()) cell_list
  in
  Ok t
