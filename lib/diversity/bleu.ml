let max_order = 4

type table = {
  len : int;
  (* per order (index 0 = unigrams): the n-grams, each weighted by its
     heaviest token *)
  grams : Multiset.t array;
}

let table ?weights v toks =
  let len = Array.length toks in
  let weights = match weights with Some w -> w | None -> Array.make len 1 in
  { len; grams = Multiset.windows v max_order ~weights toks }

type overlap = { plain : int array; weighted : int array }

let overlap a b =
  let plain = Array.make max_order 0 and weighted = Array.make max_order 0 in
  for k = 0 to max_order - 1 do
    let p, w = Multiset.inter a.grams.(k) b.grams.(k) in
    plain.(k) <- p;
    weighted.(k) <- w
  done;
  { plain; weighted }

let directed ?(weighted = false) ~candidate ~reference ov =
  if candidate.len = 0 then if reference.len = 0 then 1.0 else 0.0
  else begin
    let matched = if weighted then ov.weighted else ov.plain
    and cardinal = if weighted then Multiset.weighted_cardinal else Multiset.cardinal in
    let log_sum = ref 0.0 in
    for k = 0 to max_order - 1 do
      let total = cardinal candidate.grams.(k) in
      let precision =
        if total <= 0 then 1.0 (* candidate shorter than the order *)
        else Float.max (float_of_int matched.(k) /. float_of_int total) 1e-9
      in
      log_sum := !log_sum +. log precision
    done;
    let geo = exp (!log_sum /. float_of_int max_order) in
    let bp =
      if candidate.len >= reference.len then 1.0
      else exp (1.0 -. (float_of_int reference.len /. float_of_int candidate.len))
    in
    geo *. bp
  end

let score ~candidate ~reference =
  directed ~candidate ~reference (overlap candidate reference)
