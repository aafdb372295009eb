(* A packed key is [tag] in bits 56-61 and the fields [a] and [b] in bits
   28-55 and 0-27: always non-negative, so -1 marks an empty slot. Tag 0
   is an n-gram, 1 an edge, 2 + kind a syntax-tree node. (A stdlib
   [Hashtbl] over the packed keys made Table 3 1.2x slower; DESIGN.md
   "Diversity metrics".) *)
let field_bits = 28

module Strings = Hashtbl.Make (String)

type t = {
  identity : int;
  strings : int Strings.t;
  (* open addressing, linear probing: slot i holds a packed key at 2i
     (-1 when empty) and its id at 2i + 1 *)
  mutable slots : int array;
  mutable shift : int;  (* 63 - log2 (slots), for the multiplicative hash *)
  mutable free : int;  (* keys the table takes before it doubles *)
  mutable next : int;  (* the next id, for strings and packed keys alike *)
}

let identities = Atomic.make 0

let rec log2_at_least n b = if 1 lsl b >= n then b else log2_at_least n (b + 1)

(* Room for [keys] keys at a load of at most three quarters. *)
let table keys =
  let bits = log2_at_least (4 * keys / 3) 4 in
  (Array.make (2 lsl bits) (-1), 63 - bits, 3 * (1 lsl bits) / 4)

let create ?(size = 256) () =
  let slots, shift, free = table size in
  {
    identity = Atomic.fetch_and_add identities 1;
    strings = Strings.create 256;
    slots;
    shift;
    free;
    next = 0;
  }

let identity v = v.identity

let fresh v =
  let id = v.next in
  if id lsr field_bits <> 0 then failwith "Vocab: more than 2^28 ids";
  v.next <- id + 1;
  id

let string v s =
  match Strings.find v.strings s with
  | id -> id
  | exception Not_found ->
    let id = fresh v in
    Strings.add v.strings s id;
    id

(* The first slot, from index [i] on, that holds [key] or is empty. The
   mask keeps every index in bounds and even. *)
let rec probe slots mask key i =
  let k = Array.unsafe_get slots i in
  if k = key || k < 0 then i else probe slots mask key ((i + 2) land mask)

let start v key = ((key * 0x2545F4914F6CDD1D) lsr v.shift) lsl 1

let grow v =
  let old = v.slots in
  let slots, shift, free = table (3 * Array.length old / 4) in
  v.slots <- slots;
  v.shift <- shift;
  v.free <- free;
  let mask = Array.length slots - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let key = old.(2 * i) in
    if key >= 0 then begin
      let j = probe slots mask key (start v key) in
      slots.(j) <- key;
      slots.(j + 1) <- old.((2 * i) + 1);
      v.free <- v.free - 1
    end
  done

let id_of_key v key =
  let slots = v.slots in
  let i = probe slots (Array.length slots - 1) key (start v key) in
  if Array.unsafe_get slots i = key then Array.unsafe_get slots (i + 1)
  else begin
    let id = fresh v in
    slots.(i) <- key;
    slots.(i + 1) <- id;
    v.free <- v.free - 1;
    if v.free = 0 then grow v;
    id
  end

let pack tag a b =
  if (a lor b) lsr field_bits <> 0 then invalid_arg "Vocab: field out of range";
  (tag lsl (2 * field_bits)) lor (a lsl field_bits) lor b

let gram v prefix last = id_of_key v (pack 0 prefix last)
let edge v def use = id_of_key v (pack 1 def use)

let node v kind a b =
  if kind < 0 || kind > 61 then invalid_arg "Vocab.node: kind out of range";
  id_of_key v (pack (2 + kind) a b)
