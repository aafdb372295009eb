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

(* Physically equal tokens (interned ones) skip [String.compare]. *)
let rec compare_windows ta i tb j n =
  if n = 0 then 0
  else
    let x = ta.(i) and y = tb.(j) in
    if x == y then compare_windows ta (i + 1) tb (j + 1) (n - 1)
    else
      let c = String.compare x y in
      if c <> 0 then c else compare_windows ta (i + 1) tb (j + 1) (n - 1)

(* Sorts the window starts 0 .. count - 1 into [order] by their hash,
   stably, with [buckets] (at least [count + 1] slots) for counters. A
   counting pass spreads the starts, in start order, over [count]
   buckets that split the hashes' range evenly; an insertion pass then
   orders each bucket. Hashes spread evenly over their range, so a
   bucket holds few distinct hashes and the insertion pass moves a start
   only within its bucket. *)
let sort_by_hash (hash : int array) (order : int array) buckets count =
  if count > 0 then begin
    let least = ref hash.(0) and greatest = ref hash.(0) in
    for i = 1 to count - 1 do
      least := Int.min !least hash.(i);
      greatest := Int.max !greatest hash.(i)
    done;
    (* An offset from the least hash fits in 63 bits read unsigned (the
       subtraction may wrap); the shift brings every offset below
       [count], at most 62 places (none for one start). *)
    let least = !least and range = !greatest - !least in
    let shift = ref 0 in
    while range lsr !shift < 0 || range lsr !shift >= count do incr shift done;
    let shift = !shift in
    let bucket i = (hash.(i) - least) lsr shift in
    Array.fill buckets 0 (count + 1) 0;
    for i = 0 to count - 1 do
      let b = bucket i + 1 in
      buckets.(b) <- buckets.(b) + 1
    done;
    for b = 1 to count do
      buckets.(b) <- buckets.(b) + buckets.(b - 1)
    done;
    for i = 0 to count - 1 do
      let b = bucket i in
      order.(buckets.(b)) <- i;
      buckets.(b) <- buckets.(b) + 1
    done;
    for r = 1 to count - 1 do
      let x = order.(r) in
      let h = hash.(x) in
      let s = ref (r - 1) in
      while !s >= 0 && hash.(order.(!s)) > h do
        order.(!s + 1) <- order.(!s);
        decr s
      done;
      order.(!s + 1) <- x
    done
  end

(* Sorts a run of equal hashes by key, stably. Only a hash collision puts
   distinct keys in one run, so runs sorted here are short. *)
let sort_run toks n order lo hi =
  for r = lo + 1 to hi - 1 do
    let x = order.(r) in
    let s = ref (r - 1) in
    while !s >= lo && compare_windows toks order.(!s) toks x n > 0 do
      order.(!s + 1) <- order.(!s);
      decr s
    done;
    order.(!s + 1) <- x
  done

(* The multiset of the [count] windows of [n] tokens at starts
   0 .. count - 1, given each window's hash and weight. [order] and
   [scratch] are buffers of at least [count] and [count + 1] slots. *)
let collapse toks n count hash weight order scratch =
  sort_by_hash hash order scratch count;
  (* Mark in [scratch] each rank where a new key begins. Equal keys have
     equal hashes, so tokens are compared only inside a run of equal
     hashes. *)
  let distinct = ref 0 and r = ref 0 in
  while !r < count do
    let lo = !r and h = hash.(order.(!r)) in
    incr r;
    while !r < count && hash.(order.(!r)) = h do incr r done;
    let hi = !r in
    let differs = ref (lo + 1) in
    while
      !differs < hi && compare_windows toks order.(lo) toks order.(!differs) n = 0
    do
      incr differs
    done;
    scratch.(lo) <- 1;
    incr distinct;
    if !differs = hi then Array.fill scratch (lo + 1) (hi - lo - 1) 0
    else begin
      sort_run toks n order lo hi;
      for s = lo + 1 to hi - 1 do
        let fresh = compare_windows toks order.(s - 1) toks order.(s) n <> 0 in
        scratch.(s) <- Bool.to_int fresh;
        if fresh then incr distinct
      done
    end
  done;
  let hashes = Array.make !distinct 0 and starts = Array.make !distinct 0 in
  let counts = Array.make !distinct 0 and weights = Array.make !distinct 0 in
  let d = ref (-1) and weighted_cardinal = ref 0 in
  for s = 0 to count - 1 do
    let i = order.(s) in
    if scratch.(s) = 1 then begin
      incr d;
      hashes.(!d) <- hash.(i);
      starts.(!d) <- i;
      weights.(!d) <- weight.(i)
    end;
    counts.(!d) <- counts.(!d) + 1;
    weighted_cardinal := !weighted_cardinal + weights.(!d)
  done;
  {
    toks;
    n;
    hashes;
    starts;
    counts;
    weights;
    cardinal = count;
    weighted_cardinal = !weighted_cardinal;
  }

let windows ?(weight = fun _ -> 1) max_n toks =
  let len = Array.length toks in
  (* per token, then per window start (extended by one token per order):
     the hash and the weight, at least 1 *)
  let tok_hash = Array.make len 0 and tok_weight = Array.make len 0 in
  let hash = Array.make len 0 and w = Array.make len 0 in
  for i = 0 to len - 1 do
    let h = Hashtbl.hash toks.(i) and wt = weight toks.(i) in
    tok_hash.(i) <- h;
    hash.(i) <- h;
    tok_weight.(i) <- wt;
    w.(i) <- Int.max 1 wt
  done;
  (* the sort buffers serve every order *)
  let order = Array.make len 0 and scratch = Array.make (len + 1) 0 in
  Array.init max_n (fun k ->
      let count = Int.max 0 (len - k) in
      if k > 0 then
        for i = 0 to count - 1 do
          hash.(i) <- (31 * hash.(i)) + tok_hash.(i + k);
          w.(i) <- Int.max w.(i) tok_weight.(i + k)
        done;
      collapse toks (k + 1) count hash w order scratch)

let of_array keys = (windows 1 keys).(0)

let cardinal t = t.cardinal
let weighted_cardinal t = t.weighted_cardinal

(* One merge of the two hash columns, windows compared only when their
   hashes tie. The indices stay below the lengths the loop tests, so the
   reads go unchecked; an unequal pair advances one side without a
   branch. *)
let inter a b =
  let ha = a.hashes and hb = b.hashes in
  let na = Array.length ha and nb = Array.length hb in
  let i = ref 0 and j = ref 0 and plain = ref 0 and weighted = ref 0 in
  while !i < na && !j < nb do
    let x = Array.unsafe_get ha !i and y = Array.unsafe_get hb !j in
    if x <> y then begin
      i := !i + Bool.to_int (x < y);
      j := !j + Bool.to_int (x > y)
    end
    else begin
      let c =
        compare_windows a.toks (Array.unsafe_get a.starts !i) b.toks
          (Array.unsafe_get b.starts !j) a.n
      in
      if c < 0 then incr i
      else if c > 0 then incr j
      else begin
        let m = Int.min (Array.unsafe_get a.counts !i) (Array.unsafe_get b.counts !j) in
        plain := !plain + m;
        weighted := !weighted + (Array.unsafe_get a.weights !i * m);
        incr i;
        incr j
      end
    end
  done;
  (!plain, !weighted)

let fraction candidate matched =
  if candidate.cardinal = 0 then 1.0
  else float_of_int matched /. float_of_int candidate.cardinal
