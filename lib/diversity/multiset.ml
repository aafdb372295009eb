type t = {
  vocab : int;  (* the identity of the vocabulary the ids belong to *)
  ids : int array;  (* distinct, ascending *)
  counts : int array;
  weights : int array;
  cardinal : int;
  weighted_cardinal : int;
}

(* One least-significant-digit radix pass: the pairs (keys.(i), vals.(i))
   of i = 0 .. n - 1, ordered stably by the byte of the key at [shift],
   into (dk, dv). [count] has 256 slots. *)
let radix_pass keys vals dk dv n shift count =
  Array.fill count 0 256 0;
  for i = 0 to n - 1 do
    let d = (Array.unsafe_get keys i lsr shift) land 255 in
    Array.unsafe_set count d (Array.unsafe_get count d + 1)
  done;
  let sum = ref 0 in
  for d = 0 to 255 do
    let c = count.(d) in
    count.(d) <- !sum;
    sum := !sum + c
  done;
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    let d = (k lsr shift) land 255 in
    let p = Array.unsafe_get count d in
    Array.unsafe_set dk p k;
    Array.unsafe_set dv p (Array.unsafe_get vals i);
    Array.unsafe_set count d (p + 1)
  done

(* Radix passes from the byte at [shift] on, while [top] (the union of
   the keys' bits) has bits left: from (keys, vals) into (dk, dv), then
   back and forth between (dk, dv) and (ok, ov). Returns the pair of
   arrays that holds the result. *)
let rec radix keys vals dk dv ok ov n top shift count =
  if top lsr shift = 0 then (keys, vals)
  else begin
    radix_pass keys vals dk dv n shift count;
    radix dk dv ok ov dk dv n top (shift + 8) count
  end

(* Buffers for sorting up to [n] pairs: two pairs of arrays and the
   radix counters. *)
type buffers = {
  ka : int array;
  va : int array;
  kb : int array;
  vb : int array;
  count : int array;
}

let buffers n =
  let make () = Array.make n 0 in
  {
    ka = make ();
    va = make ();
    kb = make ();
    vb = make ();
    count = Array.make 256 0;
  }

(* Sorts the pairs of 0 .. n - 1 by key, one radix pass per byte of the
   largest key, and returns the pair of arrays that holds the result;
   [keys] and [vals] are left as they are. *)
let sort b keys vals n =
  let top = ref 0 in
  for i = 0 to n - 1 do
    top := !top lor keys.(i)
  done;
  radix keys vals b.ka b.va b.kb b.vb n !top 0 b.count

(* The multiset of the sorted pairs (id, weight) of 0 .. n - 1. *)
let collapse vocab ids weights n =
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || ids.(i) <> ids.(i - 1) then incr distinct
  done;
  let d = !distinct in
  let out_ids = Array.make d 0 and counts = Array.make d 0 in
  let out_weights = Array.make d 0 in
  let k = ref (-1) and weighted_cardinal = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || ids.(i) <> ids.(i - 1) then begin
      incr k;
      out_ids.(!k) <- ids.(i);
      out_weights.(!k) <- weights.(i)
    end;
    counts.(!k) <- counts.(!k) + 1;
    weighted_cardinal := !weighted_cardinal + weights.(i)
  done;
  {
    vocab;
    ids = out_ids;
    counts;
    weights = out_weights;
    cardinal = n;
    weighted_cardinal = !weighted_cardinal;
  }

let windows v max_n ~weights toks =
  let len = Array.length toks in
  (* per window start, extended by one token per order: the n-gram's id
     and its weight *)
  let grams = Array.copy toks and w = Array.map (Int.max 1) weights in
  let b = buffers len and vocab = Vocab.identity v in
  Array.init max_n (fun k ->
      let n = Int.max 0 (len - k) in
      if k > 0 then
        for i = 0 to n - 1 do
          grams.(i) <- Vocab.gram v grams.(i) toks.(i + k);
          w.(i) <- Int.max w.(i) weights.(i + k)
        done;
      let ids, ws = sort b grams w n in
      collapse vocab ids ws n)

let of_ids v ids n =
  let ids, ws = sort (buffers n) ids (Array.make n 1) n in
  collapse (Vocab.identity v) ids ws n

let cardinal t = t.cardinal
let weighted_cardinal t = t.weighted_cardinal

(* One merge of the two id columns. The indices stay below the lengths
   the loop tests, so the reads go unchecked; an unequal pair advances
   one side without a branch. *)
let inter a b =
  if a.vocab <> b.vocab then
    invalid_arg "Multiset.inter: multisets of different vocabularies";
  let ia = a.ids and ib = b.ids in
  let na = Array.length ia and nb = Array.length ib in
  let i = ref 0 and j = ref 0 and plain = ref 0 and weighted = ref 0 in
  while !i < na && !j < nb do
    let x = Array.unsafe_get ia !i and y = Array.unsafe_get ib !j in
    if x <> y then begin
      i := !i + Bool.to_int (x < y);
      j := !j + Bool.to_int (x > y)
    end
    else begin
      let m = Int.min (Array.unsafe_get a.counts !i) (Array.unsafe_get b.counts !j) in
      plain := !plain + m;
      weighted := !weighted + (Array.unsafe_get a.weights !i * m);
      incr i;
      incr j
    end
  done;
  (!plain, !weighted)

let fraction candidate matched =
  if candidate.cardinal = 0 then 1.0
  else float_of_int matched /. float_of_int candidate.cardinal
