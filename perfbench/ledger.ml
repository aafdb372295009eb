(* The traced run's span ledger and the order statistics every metric
   uses.

   Spans live in memory only while the run lasts: each records its name,
   its parent span, its start, its duration and the minor-heap words
   allocated inside it. [write] dumps them as JSON lines once the run is
   over, so the recording itself never touches the disk. *)

(* Monotonic seconds at nanosecond resolution: layer calls of a few
   microseconds need finer ticks than [Unix.gettimeofday]'s. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- order statistics ---- *)

let sum = List.fold_left ( +. ) 0.

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method); [q] in [0, 1]. *)
let quantile q = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  start : float;
  dur : float;
  words : float;
}

let recorded = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  current := parent;
  recorded :=
    { id; parent; name; start = t0; dur = t1 -. t0; words = w1 -. w0 }
    :: !recorded;
  r

let spans () = List.rev !recorded

let named name = List.filter (fun s -> s.name = name) (spans ())
let durations name = List.map (fun s -> s.dur) (named name)
let words name = List.map (fun s -> s.words) (named name)

(* Seconds one span adds around its thunk: the median of five batches
   of empty spans, which are then discarded. *)
let span_cost () =
  let saved = !recorded and saved_id = !next_id in
  let batch = 10_000 in
  let cost =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           for _ = 1 to batch do
             span "calibration" ignore
           done;
           (now () -. t0) /. float_of_int batch))
  in
  recorded := saved;
  next_id := saved_id;
  cost

let write path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"dur_s\":%.9f,\"minor_words\":%.0f}\n"
        s.id s.parent s.name s.start s.dur s.words)
    (spans ());
  close_out oc
