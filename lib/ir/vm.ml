open Lang

(* One flat three-address instruction. Operands are register indices
   resolved at flatten time: the float register file is laid out as
   [program slots | pooled constants | expression temps], the int file
   as [program slots | pooled constants | temps]. Slot loads and
   constants therefore cost no instructions at all — they are read
   directly as operands — and jump targets are absolute code indices.
   Call instructions carry the site's libm kernel, bound at flatten
   time; the function itself stays for [disasm]. *)
type instr =
  (* float registers *)
  | Fmov of int * int (* dst <- src *)
  | Load_arr of int * int * int (* dst <- array[idx reg]; checked *)
  | Itof of int * int (* dst <- float of int reg *)
  | Fneg of int * int
  | Fadd of int * int * int (* dst <- a op b *)
  | Fsub of int * int * int
  | Fmul of int * int * int
  | Fdiv of int * int * int
  | Call1 of Ast.math_fn * (float -> float) * int * int
  | Call2 of Ast.math_fn * (float -> float -> float) * int * int * int
  | Fma of int * int * int * int
  | Recip of int * int
  (* int registers *)
  | Iconst of int * int (* dst <- literal (loop init) *)
  | Ineg of int * int
  | Iadd of int * int * int
  | Isub of int * int * int
  | Imul of int * int * int
  | Idiv of int * int * int
  | Iaddi of int * int * int (* dst <- src + immediate *)
  (* effects and control *)
  | Check_arr of int * int (* array, idx reg; trap before the value runs *)
  | Store_arr of int * int * int (* array, idx reg, value reg *)
  | Branch of Ast.cmpop * int * int * int (* lhs, rhs, jump when NOT taken *)
  | Loop of int * int * int (* islot reg, bound, back-edge target *)
  | Loop_ff of int * int * int * ff (* a [Loop] that fast-forwards *)

(* What a fast-forward loop carries from one iteration to the next — the
   float slots and arrays its body stores to — and where its snapshot of
   that state lives: float registers [n_fregs + snap] on, one per slot,
   and [n_fregs + asnap] on, one per array element; and int register
   [n_iregs + id], the [fp_ops] count at the last back-edge. All sit
   past the register files [flatten] sizes, so [run] allocates them with
   the registers. *)
and ff = {
  fslots : int list;
  arrays : int list;
  snap : int;
  asnap : int;
  id : int;
}

type program = {
  code : instr array;
  n_f : int; (* float slots: registers [0, n_f) *)
  n_i : int; (* int slots: registers [0, n_i) *)
  consts : float array; (* pooled, pre-rounded: registers [n_f, n_f + .) *)
  iconsts : int array; (* pooled: registers [n_i, n_i + .) *)
  n_fregs : int; (* slots + consts + temps *)
  n_iregs : int;
  snap_len : int; (* float snapshot registers past [n_fregs] *)
  n_ff : int; (* fast-forward loops: int registers past [n_iregs] *)
  arr_lens : int array;
  bindings : Ir.param_binding list;
  comp_slot : int;
  f32 : bool;
  ftz : bool;
  nan_cmp_taken : bool;
}

let code_size p = Array.length p.code

let instr_name p ins =
  let nc = Array.length p.consts and nic = Array.length p.iconsts in
  let fr r =
    if r < p.n_f then Printf.sprintf "f%d" r
    else if r < p.n_f + nc then Printf.sprintf "c%d" (r - p.n_f)
    else Printf.sprintf "t%d" (r - p.n_f - nc)
  in
  let irg r =
    if r < p.n_i then Printf.sprintf "i%d" r
    else if r < p.n_i + nic then Printf.sprintf "k%d" (r - p.n_i)
    else Printf.sprintf "j%d" (r - p.n_i - nic)
  in
  match ins with
  | Fmov (d, s) -> Printf.sprintf "fmov %s <- %s" (fr d) (fr s)
  | Load_arr (d, id, ki) ->
    Printf.sprintf "load_arr %s <- a%d[%s]" (fr d) id (irg ki)
  | Itof (d, s) -> Printf.sprintf "itof %s <- %s" (fr d) (irg s)
  | Fneg (d, s) -> Printf.sprintf "fneg %s <- %s" (fr d) (fr s)
  | Fadd (d, a, b) -> Printf.sprintf "fadd %s <- %s %s" (fr d) (fr a) (fr b)
  | Fsub (d, a, b) -> Printf.sprintf "fsub %s <- %s %s" (fr d) (fr a) (fr b)
  | Fmul (d, a, b) -> Printf.sprintf "fmul %s <- %s %s" (fr d) (fr a) (fr b)
  | Fdiv (d, a, b) -> Printf.sprintf "fdiv %s <- %s %s" (fr d) (fr a) (fr b)
  | Call1 (fn, _, d, a) ->
    Printf.sprintf "call1 %s %s <- %s" (Ast.math_fn_name fn) (fr d) (fr a)
  | Call2 (fn, _, d, a, b) ->
    Printf.sprintf "call2 %s %s <- %s %s" (Ast.math_fn_name fn) (fr d) (fr a)
      (fr b)
  | Fma (d, a, b, c) ->
    Printf.sprintf "fma %s <- %s %s %s" (fr d) (fr a) (fr b) (fr c)
  | Recip (d, s) -> Printf.sprintf "recip %s <- %s" (fr d) (fr s)
  | Iconst (d, v) -> Printf.sprintf "iconst %s <- %d" (irg d) v
  | Ineg (d, s) -> Printf.sprintf "ineg %s <- %s" (irg d) (irg s)
  | Iadd (d, a, b) -> Printf.sprintf "iadd %s <- %s %s" (irg d) (irg a) (irg b)
  | Isub (d, a, b) -> Printf.sprintf "isub %s <- %s %s" (irg d) (irg a) (irg b)
  | Imul (d, a, b) -> Printf.sprintf "imul %s <- %s %s" (irg d) (irg a) (irg b)
  | Idiv (d, a, b) -> Printf.sprintf "idiv %s <- %s %s" (irg d) (irg a) (irg b)
  | Iaddi (d, s, imm) ->
    Printf.sprintf "iaddi %s <- %s + %d" (irg d) (irg s) imm
  | Check_arr (id, ki) -> Printf.sprintf "check_arr a%d[%s]" id (irg ki)
  | Store_arr (id, ki, v) ->
    Printf.sprintf "store_arr a%d[%s] <- %s" id (irg ki) (fr v)
  | Branch (cmp, l, r, t) ->
    Printf.sprintf "branch %s %s %s -> %d" (fr l) (Ast.cmpop_symbol cmp) (fr r)
      t
  | Loop (s, bound, back) ->
    Printf.sprintf "loop %s <%d -> %d" (irg s) bound back
  | Loop_ff (s, bound, back, _) ->
    Printf.sprintf "loop %s <%d -> %d ff" (irg s) bound back

let disasm p =
  Array.to_list
    (Array.mapi (fun k ins -> Printf.sprintf "%3d: %s" k (instr_name p ins))
       p.code)

(* The execution helpers. dune's dev profile compiles every module with
   [-opaque], so no cross-module function is ever inlined and a call to
   {!Interp}'s or {!Fp.Bits}' versions would box its float argument and
   result. These are built only from unboxed primitives and inlined into
   [exec]; {!Interp} keeps the library versions as the oracle. *)

let[@inline] flush ftz x =
  if ftz && Float.abs x < 0x1p-1022 && x <> 0.0 then Float.copy_sign 0.0 x
  else x

let[@inline] round f32 x =
  if f32 then Int32.float_of_bits (Int32.bits_of_float x) else x

(* C comparison semantics, as {!Interp}: a NaN operand makes every
   ordered comparison false and [!=] true, unless [nan_taken]. *)
let[@inline] taken nan_taken (cmp : Ast.cmpop) (a : float) b =
  if a <> a || b <> b then
    nan_taken || match cmp with Ast.Ne -> true | _ -> false
  else
    match cmp with
    | Ast.Lt -> a < b
    | Ast.Le -> a <= b
    | Ast.Gt -> a > b
    | Ast.Ge -> a >= b
    | Ast.Eq -> a = b
    | Ast.Ne -> a <> b

let[@inline never] trap array index length =
  raise (Interp.Trap { Interp.array; index; length })

let[@inline] check_bounds array index length =
  if index < 0 || index >= length then trap array index length

(* Whether [src.(k)] differs in its bits from snapshot register [s]: NaN
   payloads and signed zeros are part of the state, so [=] would not do.
   A differing value is copied into the snapshot. *)
let[@inline] differs (f : float array) s (src : float array) k =
  let v = Array.unsafe_get src k in
  Int64.bits_of_float v <> Int64.bits_of_float (Array.unsafe_get f s)
  && begin
    Array.unsafe_set f s v;
    true
  end

(* The carried float slots, then arrays, against their snapshots from
   float register [at] on. *)
let rec same_slots f at same = function
  | [] -> same
  | s :: rest -> same_slots f (at + 1) ((not (differs f at f s)) && same) rest

let rec same_arrays f arrs at same = function
  | [] -> same
  | a :: rest ->
    let arr = Array.unsafe_get arrs a in
    let same = ref same in
    for e = 0 to Array.length arr - 1 do
      if differs f (at + e) arr e then same := false
    done;
    same_arrays f arrs (at + Array.length arr) !same rest

(* Compare a fast-forward loop's carried state with its snapshot, which
   starts [base] registers past its offsets, and leave the current state
   in the snapshot. True when nothing differed. *)
let unchanged ff (f : float array) (arrs : float array array) base =
  same_arrays f arrs (base + ff.asnap)
    (same_slots f (base + ff.snap) true ff.fslots)
    ff.arrays

(* Flatten in two passes. Pass 1 validates every slot index and binding
   (so execution can use unsafe accessors) and interns the program's
   constants — float literals pre-rounded to storage precision, folded
   through negation chains and [Itof] of int literals, and int literals
   that are not absorbed by [Iaddi] fusion. Interning fixes the
   register-file layout; pass 2 then emits code against absolute
   register indices, giving every expression temp a stack-disciplined
   depth so results never outlive their single use. The two passes walk
   the tree identically (including skipping zero-trip [For] bodies), so
   every constant pass 2 looks up was interned by pass 1, and every call
   pass 2 binds to a kernel has the arity pass 1 checked.

   Pass 2 also decides which loops fast-forward (see vm.mli), from
   events it stamps with the code position [here ()] as it emits: a
   loop whose body starts at position [top] contains exactly the events
   stamped [top] or later until it closes, its nested loops' included.
   Per int slot it keeps when a loop counting in it last opened, and the
   last read made while such a loop was open (an own-counter read) or
   while none was (a free read); per float slot and array, the last
   store. When a loop closes, these stamps give its eligibility and its
   carried state without walking its body again. *)
let flatten (rt : Interp.runtime) (ir : Ir.t) =
  let precision = ir.Ir.precision in
  let f32 = precision = Ast.F32 in
  let prec v = round f32 v in
  let n_arr = Array.length ir.Ir.arr_lens in
  let bad fmt = Printf.ksprintf (fun s -> invalid_arg ("Vm.flatten: " ^ s)) fmt in
  let check_f s = if s < 0 || s >= ir.Ir.n_fslots then bad "float slot f%d out of range" s in
  let check_i s = if s < 0 || s >= ir.Ir.n_islots then bad "int slot i%d out of range" s in
  let check_a s = if s < 0 || s >= n_arr then bad "array slot a%d out of range" s in
  (* a value's whole evaluation folds to a constant when it is a literal
     under negations (negation is exact) or an int literal converted to
     float; the fold applies [prec] exactly where the reference engine
     would *)
  let rec const_value (e : Ir.expr) =
    match e with
    | Ir.Const v -> Some (prec v)
    | Ir.Neg e -> (
      match const_value e with Some v -> Some (-.v) | None -> None)
    | Ir.Itof (Ir.Iconst k) -> Some (prec (float_of_int k))
    | _ -> None
  in
  (* ---- pass 1: validate + intern constants ---- *)
  let fpool = Hashtbl.create 16 in
  let fvals = ref [] in
  let n_fc = ref 0 in
  let intern_f v =
    let key = Int64.bits_of_float v in
    match Hashtbl.find_opt fpool key with
    | Some r -> r
    | None ->
      let r = !n_fc in
      Hashtbl.add fpool key r;
      fvals := v :: !fvals;
      incr n_fc;
      r
  in
  let ipool = Hashtbl.create 16 in
  let ivals = ref [] in
  let n_ic = ref 0 in
  let intern_i v =
    match Hashtbl.find_opt ipool v with
    | Some r -> r
    | None ->
      let r = !n_ic in
      Hashtbl.add ipool v r;
      ivals := v :: !ivals;
      incr n_ic;
      r
  in
  let rec iscan (e : Ir.iexpr) =
    match e with
    | Ir.Iconst n -> ignore (intern_i n)
    | Ir.Iload s -> check_i s
    | Ir.Ineg e -> iscan e
    | Ir.Ibin (Ast.Add, a, Ir.Iconst _)
    | Ir.Ibin (Ast.Add, Ir.Iconst _, a)
    | Ir.Ibin (Ast.Sub, a, Ir.Iconst _) ->
      iscan a
    | Ir.Ibin (_, a, b) ->
      iscan a;
      iscan b
  in
  let rec fscan (e : Ir.expr) =
    match const_value e with
    | Some v -> ignore (intern_f v)
    | None -> (
      match e with
      | Ir.Const _ -> assert false (* covered by [const_value] *)
      | Ir.Load s -> check_f s
      | Ir.Load_arr (s, idx) ->
        check_a s;
        iscan idx
      | Ir.Itof ie -> iscan ie
      | Ir.Neg e -> fscan e
      | Ir.Bin (_, a, b) ->
        fscan a;
        fscan b
      | Ir.Call (fn, args) ->
        let arity = Ast.math_fn_arity fn and n = List.length args in
        if n <> arity then
          bad "%s takes %d argument(s), called with %d" (Ast.math_fn_name fn)
            arity n;
        List.iter fscan args
      | Ir.Fma (a, b, c) ->
        fscan a;
        fscan b;
        fscan c
      | Ir.Recip e -> fscan e)
  in
  let rec scan_stmt (s : Ir.stmt) =
    match s with
    | Ir.Store (slot, e) ->
      check_f slot;
      fscan e
    | Ir.Store_arr (slot, idx, e) ->
      check_a slot;
      iscan idx;
      fscan e
    | Ir.If { lhs; cmp = _; rhs; body } ->
      fscan lhs;
      fscan rhs;
      List.iter scan_stmt body
    | Ir.For { islot; bound; body } ->
      check_i islot;
      (* a zero-trip loop neither initializes nor touches the slot,
         exactly like the reference engine's [for k = 0 to -1] *)
      if bound > 0 then List.iter scan_stmt body
  in
  List.iter scan_stmt ir.Ir.body;
  check_f ir.Ir.comp_slot;
  List.iter
    (fun (b : Ir.param_binding) ->
      match b with
      | Ir.Bind_fp slot -> check_f slot
      | Ir.Bind_int slot -> check_i slot
      | Ir.Bind_arr (slot, declared) ->
        check_a slot;
        if declared <> ir.Ir.arr_lens.(slot) then
          bad "binding for a%d declares length %d, array has %d" slot declared
            ir.Ir.arr_lens.(slot))
    ir.Ir.bindings;
  let consts = Array.of_list (List.rev !fvals) in
  let iconsts = Array.of_list (List.rev !ivals) in
  let n_f = ir.Ir.n_fslots and n_i = ir.Ir.n_islots in
  let ftemp = n_f + Array.length consts in
  let itemp = n_i + Array.length iconsts in
  let fcreg v = n_f + Hashtbl.find fpool (Int64.bits_of_float v) in
  let icreg v = n_i + Hashtbl.find ipool v in
  (* ---- pass 2: emit ---- *)
  let buf = ref (Array.make 64 (Iconst (0, 0))) in
  let len = ref 0 in
  let emit ins =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) (Iconst (0, 0)) in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- ins;
    incr len
  in
  let here () = !len in
  let patch at ins = !buf.(at) <- ins in
  let max_ft = ref 0 and max_it = ref 0 in
  let ftreg fd =
    if fd + 1 > !max_ft then max_ft := fd + 1;
    ftemp + fd
  in
  let itreg id =
    if id + 1 > !max_it then max_it := id + 1;
    itemp + id
  in
  (* One stamp array for the analysis: per int slot [r], the last time a
     loop counting in it opened ([r]), whether one is open now ([live +
     r] is 1 while one is), and its last own-counter and free reads
     ([own + r], [free + r]); per float slot and array, the last store
     ([fstore + s], [astore + a]). -1 is "never". *)
  let live = n_i and own = 2 * n_i and free = 3 * n_i in
  let fstore = 4 * n_i in
  let astore = fstore + n_f in
  let stamp = Array.make (astore + n_arr) (-1) in
  let snap_len = ref 0 and n_ff = ref 0 in
  (* A loop that can skip iterations has three or more: the first
     comparison is at its second back-edge. It is eligible when it
     never reads its own counter and makes no free read of a slot a
     loop inside it counts in. Its carried state is every float slot
     and array stored to since [top]. *)
  let fast_forward islot bound top =
    let eligible = ref (bound > 2 && stamp.(own + islot) < top) in
    for r = 0 to n_i - 1 do
      if stamp.(r) >= top && stamp.(free + r) >= top then eligible := false
    done;
    if not !eligible then None
    else begin
      let snap = !snap_len in
      let fslots = ref [] and arrays = ref [] in
      for s = n_f - 1 downto 0 do
        if stamp.(fstore + s) >= top then begin
          fslots := s :: !fslots;
          incr snap_len
        end
      done;
      let asnap = !snap_len in
      for a = n_arr - 1 downto 0 do
        if stamp.(astore + a) >= top then begin
          arrays := a :: !arrays;
          snap_len := !snap_len + ir.Ir.arr_lens.(a)
        end
      done;
      let ff =
        { fslots = !fslots; arrays = !arrays; snap; asnap; id = !n_ff }
      in
      incr n_ff;
      Some ff
    end
  in
  (* [icompile e id] emits code for [e] using int temps at depth [id]
     and up, returning the register holding the result — a slot or
     pooled-constant register when no code is needed. [i +- literal]
     fuses into a single [Iaddi]. *)
  let rec icompile (e : Ir.iexpr) id =
    match e with
    | Ir.Iconst n -> icreg n
    | Ir.Iload s ->
      stamp.((if stamp.(live + s) > 0 then own else free) + s) <- here ();
      s
    | Ir.Ineg e ->
      let r = icompile e id in
      let d = itreg id in
      emit (Ineg (d, r));
      d
    | Ir.Ibin (Ast.Add, a, Ir.Iconst c) | Ir.Ibin (Ast.Add, Ir.Iconst c, a) ->
      let r = icompile a id in
      let d = itreg id in
      emit (Iaddi (d, r, c));
      d
    | Ir.Ibin (Ast.Sub, a, Ir.Iconst c) ->
      let r = icompile a id in
      let d = itreg id in
      emit (Iaddi (d, r, -c));
      d
    | Ir.Ibin (op, a, b) ->
      let ra = icompile a id in
      let ida = if ra >= itemp then id + 1 else id in
      let rb = icompile b ida in
      let d = itreg id in
      emit
        (match op with
        | Ast.Add -> Iadd (d, ra, rb)
        | Ast.Sub -> Isub (d, ra, rb)
        | Ast.Mul -> Imul (d, ra, rb)
        | Ast.Div -> Idiv (d, ra, rb));
      d
  in
  (* [fcompile ?dst e fd id]: emit code for [e] with float temps at
     depth [fd] and up. [dst] redirects the root instruction's result
     (used by [Store], whose slot must be written last so a trap during
     evaluation leaves it untouched); a leaf under [dst] becomes an
     [Fmov]. Without [dst], leaves return their slot/constant register
     directly — no instruction at all. *)
  let rec fcompile ?dst (e : Ir.expr) fd id =
    let dest fd = match dst with Some d -> d | None -> ftreg fd in
    match const_value e with
    | Some v -> (
      let c = fcreg v in
      match dst with
      | Some d ->
        if d <> c then emit (Fmov (d, c));
        d
      | None -> c)
    | None -> (
      match e with
      | Ir.Const _ -> assert false (* covered by [const_value] *)
      | Ir.Load s -> (
        match dst with
        | Some d ->
          if d <> s then emit (Fmov (d, s));
          d
        | None -> s)
      | Ir.Load_arr (s, idx) ->
        let ri = icompile idx id in
        let d = dest fd in
        emit (Load_arr (d, s, ri));
        d
      | Ir.Itof ie ->
        let ri = icompile ie id in
        let d = dest fd in
        emit (Itof (d, ri));
        d
      | Ir.Neg e ->
        let r = fcompile e fd id in
        let d = dest fd in
        emit (Fneg (d, r));
        d
      | Ir.Bin (op, a, b) ->
        let ra = fcompile a fd id in
        let fda = if ra >= ftemp then fd + 1 else fd in
        let rb = fcompile b fda id in
        let d = dest fd in
        emit
          (match op with
          | Ast.Add -> Fadd (d, ra, rb)
          | Ast.Sub -> Fsub (d, ra, rb)
          | Ast.Mul -> Fmul (d, ra, rb)
          | Ast.Div -> Fdiv (d, ra, rb));
        d
      | Ir.Call (fn, [ a ]) ->
        let ra = fcompile a fd id in
        let d = dest fd in
        emit (Call1 (fn, Mathlib.Libm.kernel1 ~precision rt.Interp.libm fn, d, ra));
        d
      | Ir.Call (fn, [ a; b ]) ->
        let ra = fcompile a fd id in
        let fda = if ra >= ftemp then fd + 1 else fd in
        let rb = fcompile b fda id in
        let d = dest fd in
        emit
          (Call2 (fn, Mathlib.Libm.kernel2 ~precision rt.Interp.libm fn, d, ra, rb));
        d
      | Ir.Call _ -> assert false (* arity checked by pass 1 *)
      | Ir.Fma (a, b, c) ->
        let ra = fcompile a fd id in
        let fda = if ra >= ftemp then fd + 1 else fd in
        let rb = fcompile b fda id in
        let fdb = if rb >= ftemp then fda + 1 else fda in
        let rc = fcompile c fdb id in
        let d = dest fd in
        emit (Fma (d, ra, rb, rc));
        d
      | Ir.Recip e ->
        let r = fcompile e fd id in
        let d = dest fd in
        emit (Recip (d, r));
        d)
  in
  let rec emit_stmt (s : Ir.stmt) =
    match s with
    | Ir.Store (slot, e) ->
      stamp.(fstore + slot) <- here ();
      ignore (fcompile ~dst:slot e 0 0)
    | Ir.Store_arr (slot, idx, e) ->
      stamp.(astore + slot) <- here ();
      let ri = icompile idx 0 in
      (* the reference engine bounds-checks before evaluating the stored
         value; Check_arr preserves that trap order *)
      emit (Check_arr (slot, ri));
      let id = if ri >= itemp then 1 else 0 in
      let rv = fcompile e 0 id in
      emit (Store_arr (slot, ri, rv))
    | Ir.If { lhs; cmp; rhs; body } ->
      let rl = fcompile lhs 0 0 in
      let fd = if rl >= ftemp then 1 else 0 in
      let rr = fcompile rhs fd 0 in
      let site = here () in
      emit (Branch (cmp, rl, rr, 0));
      List.iter emit_stmt body;
      patch site (Branch (cmp, rl, rr, here ()))
    | Ir.For { islot; bound; body } ->
      (* the back-edge reads the counter, so a nested loop must not
         move it; the reference engine's [for] would not notice *)
      if stamp.(live + islot) > 0 then
        bad "nested loop reuses the counter i%d of an enclosing loop" islot;
      if bound > 0 then begin
        emit (Iconst (islot, 0));
        let top = here () in
        stamp.(islot) <- top;
        stamp.(live + islot) <- 1;
        List.iter emit_stmt body;
        stamp.(live + islot) <- 0;
        emit
          (match fast_forward islot bound top with
          | Some ff -> Loop_ff (islot, bound, top, ff)
          | None -> Loop (islot, bound, top))
      end
  in
  List.iter emit_stmt ir.Ir.body;
  {
    code = Array.sub !buf 0 !len;
    n_f;
    n_i;
    consts;
    iconsts;
    n_fregs = ftemp + !max_ft;
    n_iregs = itemp + !max_it;
    snap_len = !snap_len;
    n_ff = !n_ff;
    arr_lens = Array.copy ir.Ir.arr_lens;
    bindings = ir.Ir.bindings;
    comp_slot = ir.Ir.comp_slot;
    f32;
    ftz = rt.Interp.ftz;
    nan_cmp_taken = rt.Interp.nan_cmp_taken;
  }

(* The inner loops. Every register index in [code] was placed by
   [flatten] inside the file it sized, so register and code accesses
   are unsafe; only data-dependent array subscripts keep a check, which
   raises the same {!Interp.Trap} as the reference engine. Only the libm
   kernels allocate: a closure call boxes its argument and result.

   [exec] serves every program. Flush and precision are applied exactly
   where the tree interpreter applies them: operands of arithmetic and
   calls are flushed on read, results are flushed after rounding;
   moves, negation, and int->float conversion copy raw bits.

   [exec_plain] serves the common case, an FP64 program without FTZ,
   where flush and rounding are the identity: it is [exec] with both
   steps left out. Keep the two loops in step.

   Both share the fast-forward back-edge ([Loop_ff]). Leaving iteration
   c (the counter) for iteration c + 1, it compares the carried state
   with the snapshot taken at the previous back-edge; when c > 0 and
   nothing changed, it adds the remaining iterations times the fp_ops
   of iteration c, leaves the counter at bound - 1 and falls through.
   Otherwise it records the state and the op count and loops. *)
let exec p (f : float array) (ints : int array) (arrs : float array array) =
  let code = p.code in
  let stop = Array.length code in
  let ftz = p.ftz and f32 = p.f32 and nan_taken = p.nan_cmp_taken in
  let fsnap = p.n_fregs and isnap = p.n_iregs in
  let ops = ref 0 in
  let pc = ref 0 in
  while !pc < stop do
    let ins = Array.unsafe_get code !pc in
    incr pc;
    match ins with
    | Fmov (d, s) -> Array.unsafe_set f d (Array.unsafe_get f s)
    | Load_arr (d, id, ki) ->
      let arr = Array.unsafe_get arrs id in
      let k = Array.unsafe_get ints ki in
      check_bounds id k (Array.length arr);
      Array.unsafe_set f d (Array.unsafe_get arr k)
    | Itof (d, s) ->
      Array.unsafe_set f d (round f32 (float_of_int (Array.unsafe_get ints s)))
    | Fneg (d, s) -> Array.unsafe_set f d (-.Array.unsafe_get f s)
    | Fadd (d, a, b) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (x +. y)))
    | Fsub (d, a, b) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (x -. y)))
    | Fmul (d, a, b) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (x *. y)))
    | Fdiv (d, a, b) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (x /. y)))
    | Call1 (_, kernel, d, a) ->
      let x = flush ftz (Array.unsafe_get f a) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (kernel x)))
    | Call2 (_, kernel, d, a, b) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (kernel x y)))
    | Fma (d, a, b, c) ->
      let x = flush ftz (Array.unsafe_get f a) in
      let y = flush ftz (Array.unsafe_get f b) in
      let z = flush ftz (Array.unsafe_get f c) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (Fp.Fma.contract x y z)))
    | Recip (d, s) ->
      let v = flush ftz (Array.unsafe_get f s) in
      incr ops;
      Array.unsafe_set f d (flush ftz (round f32 (1.0 /. v)))
    | Iconst (d, v) -> Array.unsafe_set ints d v
    | Ineg (d, s) -> Array.unsafe_set ints d (-Array.unsafe_get ints s)
    | Iadd (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a + Array.unsafe_get ints b)
    | Isub (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a - Array.unsafe_get ints b)
    | Imul (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a * Array.unsafe_get ints b)
    | Idiv (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a / Array.unsafe_get ints b)
    | Iaddi (d, s, imm) ->
      Array.unsafe_set ints d (Array.unsafe_get ints s + imm)
    | Check_arr (id, ki) ->
      check_bounds id (Array.unsafe_get ints ki)
        (Array.length (Array.unsafe_get arrs id))
    | Store_arr (id, ki, v) ->
      let k = Array.unsafe_get ints ki in
      (* already bounds-checked by the paired Check_arr *)
      Array.unsafe_set (Array.unsafe_get arrs id) k (Array.unsafe_get f v)
    | Branch (cmp, la, ra, target) ->
      if not (taken nan_taken cmp (Array.unsafe_get f la) (Array.unsafe_get f ra))
      then pc := target
    | Loop (slot, bound, back) ->
      let k = Array.unsafe_get ints slot + 1 in
      if k < bound then begin
        Array.unsafe_set ints slot k;
        pc := back
      end
    | Loop_ff (slot, bound, back, ff) ->
      let c = Array.unsafe_get ints slot in
      if c + 1 < bound then
        if unchanged ff f arrs fsnap && c > 0 then begin
          ops :=
            !ops + ((bound - c - 1) * (!ops - Array.unsafe_get ints (isnap + ff.id)));
          Array.unsafe_set ints slot (bound - 1)
        end
        else begin
          Array.unsafe_set ints (isnap + ff.id) !ops;
          Array.unsafe_set ints slot (c + 1);
          pc := back
        end
  done;
  !ops

let exec_plain p (f : float array) (ints : int array)
    (arrs : float array array) =
  let code = p.code in
  let stop = Array.length code in
  let nan_taken = p.nan_cmp_taken in
  let fsnap = p.n_fregs and isnap = p.n_iregs in
  let ops = ref 0 in
  let pc = ref 0 in
  while !pc < stop do
    let ins = Array.unsafe_get code !pc in
    incr pc;
    match ins with
    | Fmov (d, s) -> Array.unsafe_set f d (Array.unsafe_get f s)
    | Load_arr (d, id, ki) ->
      let arr = Array.unsafe_get arrs id in
      let k = Array.unsafe_get ints ki in
      check_bounds id k (Array.length arr);
      Array.unsafe_set f d (Array.unsafe_get arr k)
    | Itof (d, s) ->
      Array.unsafe_set f d (float_of_int (Array.unsafe_get ints s))
    | Fneg (d, s) -> Array.unsafe_set f d (-.Array.unsafe_get f s)
    | Fadd (d, a, b) ->
      incr ops;
      Array.unsafe_set f d (Array.unsafe_get f a +. Array.unsafe_get f b)
    | Fsub (d, a, b) ->
      incr ops;
      Array.unsafe_set f d (Array.unsafe_get f a -. Array.unsafe_get f b)
    | Fmul (d, a, b) ->
      incr ops;
      Array.unsafe_set f d (Array.unsafe_get f a *. Array.unsafe_get f b)
    | Fdiv (d, a, b) ->
      incr ops;
      Array.unsafe_set f d (Array.unsafe_get f a /. Array.unsafe_get f b)
    | Call1 (_, kernel, d, a) ->
      incr ops;
      Array.unsafe_set f d (kernel (Array.unsafe_get f a))
    | Call2 (_, kernel, d, a, b) ->
      incr ops;
      Array.unsafe_set f d (kernel (Array.unsafe_get f a) (Array.unsafe_get f b))
    | Fma (d, a, b, c) ->
      incr ops;
      Array.unsafe_set f d
        (Fp.Fma.contract (Array.unsafe_get f a) (Array.unsafe_get f b)
           (Array.unsafe_get f c))
    | Recip (d, s) ->
      incr ops;
      Array.unsafe_set f d (1.0 /. Array.unsafe_get f s)
    | Iconst (d, v) -> Array.unsafe_set ints d v
    | Ineg (d, s) -> Array.unsafe_set ints d (-Array.unsafe_get ints s)
    | Iadd (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a + Array.unsafe_get ints b)
    | Isub (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a - Array.unsafe_get ints b)
    | Imul (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a * Array.unsafe_get ints b)
    | Idiv (d, a, b) ->
      Array.unsafe_set ints d (Array.unsafe_get ints a / Array.unsafe_get ints b)
    | Iaddi (d, s, imm) ->
      Array.unsafe_set ints d (Array.unsafe_get ints s + imm)
    | Check_arr (id, ki) ->
      check_bounds id (Array.unsafe_get ints ki)
        (Array.length (Array.unsafe_get arrs id))
    | Store_arr (id, ki, v) ->
      let k = Array.unsafe_get ints ki in
      (* already bounds-checked by the paired Check_arr *)
      Array.unsafe_set (Array.unsafe_get arrs id) k (Array.unsafe_get f v)
    | Branch (cmp, la, ra, target) ->
      if not (taken nan_taken cmp (Array.unsafe_get f la) (Array.unsafe_get f ra))
      then pc := target
    | Loop (slot, bound, back) ->
      let k = Array.unsafe_get ints slot + 1 in
      if k < bound then begin
        Array.unsafe_set ints slot k;
        pc := back
      end
    | Loop_ff (slot, bound, back, ff) ->
      let c = Array.unsafe_get ints slot in
      if c + 1 < bound then
        if unchanged ff f arrs fsnap && c > 0 then begin
          ops :=
            !ops + ((bound - c - 1) * (!ops - Array.unsafe_get ints (isnap + ff.id)));
          Array.unsafe_set ints slot (bound - 1)
        end
        else begin
          Array.unsafe_set ints (isnap + ff.id) !ops;
          Array.unsafe_set ints slot (c + 1);
          pc := back
        end
  done;
  !ops

let run p (inputs : Inputs.t) =
  if List.length inputs <> List.length p.bindings then
    invalid_arg "Vm.run: input arity mismatch";
  let prec v = round p.f32 v in
  (* fresh storage: slots, temps and arrays zeroed, constant registers
     preloaded from the pools *)
  let f = Array.make (max 1 (p.n_fregs + p.snap_len)) 0.0 in
  Array.blit p.consts 0 f p.n_f (Array.length p.consts);
  let ints = Array.make (max 1 (p.n_iregs + p.n_ff)) 0 in
  Array.blit p.iconsts 0 ints p.n_i (Array.length p.iconsts);
  let arrs = Array.map (fun l -> Array.make l 0.0) p.arr_lens in
  List.iter2
    (fun (binding : Ir.param_binding) (value : Inputs.value) ->
      match (binding, value) with
      | Ir.Bind_fp slot, Inputs.Fp v -> f.(slot) <- prec v
      | Ir.Bind_int slot, Inputs.Int v -> ints.(slot) <- v
      | Ir.Bind_arr (slot, len), Inputs.Arr a ->
        if Array.length a <> len then
          invalid_arg "Vm.run: array length mismatch";
        let dst = arrs.(slot) in
        for k = 0 to len - 1 do
          dst.(k) <- prec a.(k)
        done
      | _ -> invalid_arg "Vm.run: input kind mismatch")
    p.bindings inputs;
  f.(p.comp_slot) <- 0.0;
  let ops =
    if p.ftz || p.f32 then exec p f ints arrs else exec_plain p f ints arrs
  in
  { Interp.result = f.(p.comp_slot); fp_ops = ops }
