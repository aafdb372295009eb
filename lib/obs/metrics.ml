(* Process-wide metrics registry.

   Instruments are created once (get-or-create by name, typically at
   module initialization) and updated through lock-free atomics, so the
   always-on cost of a counter bump is one fetch-and-add — cheap enough
   to leave enabled unconditionally, and safe to bump from any pool
   domain (see {!Exec.Pool}): parallel runs produce exactly the totals
   of the equivalent sequential run. Histograms serialize on a
   per-instrument mutex (they sit off the per-op hot path). The
   registry itself is mutex-guarded; snapshots are name-sorted, making
   the rendered table deterministic. *)

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;    (* length = Array.length bounds + 1 (overflow) *)
  mutable observations : int;
  mutable sum : float;
  mutable lo : float;    (* the smallest and largest observation *)
  mutable hi : float;
}

type instrument = C of counter | G of gauge | H of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let default_buckets = [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0 |]

let get_or_create name project create =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> begin
        match project existing with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another kind" name)
      end
      | None ->
        let v, wrapped = create () in
        Hashtbl.replace registry name wrapped;
        v)

let counter name =
  get_or_create name
    (function C c -> Some c | _ -> None)
    (fun () ->
      let c = { c_name = name; count = Atomic.make 0 } in
      (c, C c))

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.count by)
let counter_value c = Atomic.get c.count
let counter_name c = c.c_name

let gauge name =
  get_or_create name
    (function G g -> Some g | _ -> None)
    (fun () ->
      let g = { g_name = name; value = Atomic.make 0.0 } in
      (g, G g))

let set g v = Atomic.set g.value v

let rec add g v =
  let cur = Atomic.get g.value in
  if not (Atomic.compare_and_set g.value cur (cur +. v)) then add g v

let gauge_value g = Atomic.get g.value
let gauge_name g = g.g_name

let histogram ?(buckets = default_buckets) name =
  let ok = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
    buckets;
  if (not !ok) || Array.length buckets = 0 then
    invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing";
  get_or_create name
    (function H h -> Some h | _ -> None)
    (fun () ->
      let h =
        {
          h_name = name;
          h_lock = Mutex.create ();
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          observations = 0;
          sum = 0.0;
          lo = infinity;
          hi = neg_infinity;
        }
      in
      (h, H h))

let observe h x =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || x <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  Mutex.lock h.h_lock;
  h.counts.(i) <- h.counts.(i) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. x;
  if x < h.lo then h.lo <- x;
  if x > h.hi then h.hi <- x;
  Mutex.unlock h.h_lock

let histogram_count h =
  Mutex.lock h.h_lock;
  let n = h.observations in
  Mutex.unlock h.h_lock;
  n

let histogram_name h = h.h_name

(* Prometheus-style bucket quantile: find the bucket holding rank
   ceil(q*n) and interpolate linearly between its bounds, clamped to the
   observed range [lo, hi]. *)
let percentile_of ~range:(lo, hi) ~bounds ~counts q =
  if q <= 0.0 || q > 1.0 then
    invalid_arg "Obs.Metrics.percentile_of: q must be in (0, 1]";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else rank in
    let n_bounds = Array.length bounds in
    (* the bucket holding the rank (n_bounds: the overflow bucket) and the
       observations before it *)
    let rec find i cum_before =
      let cum = cum_before + counts.(i) in
      if i = n_bounds || rank <= cum then (i, cum_before) else find (i + 1) cum
    in
    let i, cum_before = find 0 0 in
    let lower = if i = 0 then lo else Float.max bounds.(i - 1) lo
    and upper = if i < n_bounds then Float.min bounds.(i) hi else hi in
    let within = float_of_int (rank - cum_before) in
    lower +. ((upper -. lower) *. within /. float_of_int counts.(i))
  end

let histogram_percentile h q =
  Mutex.lock h.h_lock;
  let counts = Array.copy h.counts and range = (h.lo, h.hi) in
  Mutex.unlock h.h_lock;
  percentile_of ~range ~bounds:h.bounds ~counts q

(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      count : int;
      sum : float;
      lo : float;
      hi : float;
    }

let snapshot () =
  Mutex.lock registry_lock;
  let entries =
    Hashtbl.fold
      (fun name instrument acc ->
        let v =
          match instrument with
          | C c -> Counter (Atomic.get c.count)
          | G g -> Gauge (Atomic.get g.value)
          | H h ->
            Mutex.lock h.h_lock;
            let v =
              Histogram
                {
                  bounds = Array.copy h.bounds;
                  counts = Array.copy h.counts;
                  count = h.observations;
                  sum = h.sum;
                  lo = h.lo;
                  hi = h.hi;
                }
            in
            Mutex.unlock h.h_lock;
            v
        in
        (name, v) :: acc)
      registry []
  in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ instrument ->
      match instrument with
      | C c -> Atomic.set c.count 0
      | G g -> Atomic.set g.value 0.0
      | H h ->
        Mutex.lock h.h_lock;
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.observations <- 0;
        h.sum <- 0.0;
        h.lo <- infinity;
        h.hi <- neg_infinity;
        Mutex.unlock h.h_lock)
    registry;
  Mutex.unlock registry_lock

let render_value = function
  | Counter n -> ("counter", Report.Table.commas n)
  | Gauge v -> ("gauge", Printf.sprintf "%.6g" v)
  | Histogram { bounds; counts; count; sum; lo; hi } ->
    let buckets =
      Array.to_list
        (Array.mapi
           (fun i b -> Printf.sprintf "le%.3g:%d" b counts.(i))
           bounds)
      @ [ Printf.sprintf "inf:%d" counts.(Array.length bounds) ]
    in
    let quantiles =
      (* An empty histogram has no quantiles: percentile_of returns nan
         and the dump shows "-" rather than a misleading number. *)
      let p q =
        let v = percentile_of ~range:(lo, hi) ~bounds ~counts q in
        if Float.is_nan v then "-" else Printf.sprintf "%.6g" v
      in
      Printf.sprintf "  p50=%s p95=%s p99=%s" (p 0.50) (p 0.95) (p 0.99)
    in
    ( "histogram",
      Printf.sprintf "n=%d sum=%.6g  %s%s" count sum
        (String.concat " " buckets)
        quantiles )

let render_percentiles () =
  let rows =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Histogram { bounds; counts; count; lo; hi; _ } ->
          let p q =
            let v = percentile_of ~range:(lo, hi) ~bounds ~counts q in
            if Float.is_nan v then "-" else Printf.sprintf "%.6g" v
          in
          Some [ name; string_of_int count; p 0.50; p 0.95; p 0.99 ]
        | _ -> None)
      (snapshot ())
  in
  Report.Table.render ~title:"histogram percentiles"
    ~header:[ "histogram"; "n"; "p50"; "p95"; "p99" ]
    rows

let render_table () =
  let rows =
    List.map
      (fun (name, v) ->
        let kind, rendered = render_value v in
        [ name; kind; rendered ])
      (snapshot ())
  in
  Report.Table.render ~title:"metrics registry"
    ~header:[ "metric"; "type"; "value" ]
    ~align:[ Report.Table.Left; Report.Table.Left; Report.Table.Left ]
    rows
