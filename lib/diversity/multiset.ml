type t = {
  toks : string array;  (* every key is a window of [n] consecutive tokens *)
  n : int;
  hashes : int array;  (* per distinct key, ascending; equal hashes ordered by key *)
  starts : int array;  (* where the key first occurs in [toks] *)
  counts : int array;
  weights : int array;
  cardinal : int;
  weighted_cardinal : int;
}

let rec compare_windows ta i tb j n =
  if n = 0 then 0
  else
    let c = String.compare ta.(i) tb.(j) in
    if c <> 0 then c else compare_windows ta (i + 1) tb (j + 1) (n - 1)

let compare_keys (ha : int) ta i hb tb j n =
  if ha < hb then -1 else if ha > hb then 1 else compare_windows ta i tb j n

(* The multiset of the windows of [n] tokens at starts 0 .. length hash - 1,
   given each window's hash and weight. *)
let collapse toks n hash weight =
  let compare_occ i j = compare_keys hash.(i) toks i hash.(j) toks j n in
  let order = Array.init (Array.length hash) Fun.id in
  Array.stable_sort compare_occ order;
  (* each run of equal keys becomes its first occurrence and a count *)
  let first = Array.make (Array.length order) 0 in
  let counts = Array.make (Array.length order) 0 in
  let d = ref (-1) in
  Array.iteri
    (fun r i ->
      if r = 0 || compare_occ order.(r - 1) i <> 0 then begin
        incr d;
        first.(!d) <- i
      end;
      counts.(!d) <- counts.(!d) + 1)
    order;
  let starts = Array.sub first 0 (!d + 1) and counts = Array.sub counts 0 (!d + 1) in
  let weights = Array.map (fun i -> weight.(i)) starts in
  let weighted_cardinal = ref 0 in
  Array.iteri
    (fun d c -> weighted_cardinal := !weighted_cardinal + (weights.(d) * c))
    counts;
  {
    toks;
    n;
    hashes = Array.map (fun i -> hash.(i)) starts;
    starts;
    counts;
    weights;
    cardinal = Array.length hash;
    weighted_cardinal = !weighted_cardinal;
  }

let windows ?(weight = fun _ -> 1) max_n toks =
  let len = Array.length toks in
  let tok_hash = Array.map Hashtbl.hash toks and tok_weight = Array.map weight toks in
  (* hash and weight of the window at each start, extended by one token
     per length *)
  let hash = Array.copy tok_hash and w = Array.map (Int.max 1) tok_weight in
  Array.init max_n (fun k ->
      let count = Int.max 0 (len - k) in
      if k > 0 then
        for i = 0 to count - 1 do
          hash.(i) <- (31 * hash.(i)) + tok_hash.(i + k);
          w.(i) <- Int.max w.(i) tok_weight.(i + k)
        done;
      collapse toks (k + 1) (Array.sub hash 0 count) (Array.sub w 0 count))

let of_array keys = (windows 1 keys).(0)

let cardinal t = t.cardinal
let weighted_cardinal t = t.weighted_cardinal

let inter a b =
  let na = Array.length a.hashes and nb = Array.length b.hashes in
  let i = ref 0 and j = ref 0 and plain = ref 0 and weighted = ref 0 in
  while !i < na && !j < nb do
    let c =
      compare_keys a.hashes.(!i) a.toks a.starts.(!i) b.hashes.(!j) b.toks
        b.starts.(!j) a.n
    in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      let m = Int.min a.counts.(!i) b.counts.(!j) in
      plain := !plain + m;
      weighted := !weighted + (a.weights.(!i) * m);
      incr i;
      incr j
    end
  done;
  (!plain, !weighted)

let fraction candidate matched =
  if candidate.cardinal = 0 then 1.0
  else float_of_int matched /. float_of_int candidate.cardinal
