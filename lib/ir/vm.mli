(** The flattened execution engine.

    {!Interp} walks the IR tree on every call: each node re-dispatches on
    its constructor, re-decides precision and flush-to-zero behavior, and
    re-chases slot arrays through the environment record. That cost is
    paid once per node {e per execution}, while the campaign loop runs
    every binary once per configuration per generated program — the
    hottest real-time phase of a run.

    This module moves all of that work to a single flatten pass:
    [flatten rt ir] compiles the tree into a flat array of three-address
    instructions over a register file laid out as program slots, pooled
    constants (pre-rounded to the program's storage precision), and
    stack-disciplined expression temps — all indices absolute and
    pre-validated, with the runtime (libm flavor, FTZ, NaN-branch
    polarity, precision) pre-bound into the program value — each call
    site carries its {!Mathlib.Libm.kernel1}/[kernel2] closure. Slot
    reads and constants are plain operand references, so they cost no
    instructions at all. Execution is then a tight loop over unboxed
    [float array] registers — no tree dispatch, no allocation except a
    libm kernel call's boxed argument and result, no bounds checks
    except for data-dependent array subscripts (which raise the same
    {!Interp.Trap} as the reference engine).

    Two loops execute the flat code. The general one applies flush and
    rounding where the tree interpreter does; the other, for programs
    with FTZ off at FP64 — the common case, where both steps are the
    identity — leaves them out. {!run} picks the loop from the
    program's own runtime and precision; there is no option.

    {b Fixed-point fast-forward.} Long loops spend most of their
    iterations at a fixed point: overflowed to ±∞ or NaN, or converged.
    [flatten] marks every loop of three or more iterations whose
    iterations depend only on the state it carries — the float slots and
    arrays its body stores to. At each back-edge of a marked loop both
    loops compare that state, bit for bit, with its snapshot from the
    previous back-edge; when nothing changed they add the remaining
    iterations times the [fp_ops] of the iteration just run, leave the
    counter at [bound - 1] and fall through. Why that is exact:
    - {e Eligibility.} A loop L is marked when its body, nested
      statements included, reads no int slot that a loop inside L (L
      itself included) writes, except from inside the loop that writes
      it. So L never reads its own counter, and reads a nested counter
      only inside that nested loop.
    - {e What stays constant.} Float slots and arrays the body does not
      store to are constant for the whole loop. Only loops write int
      slots, and nested counters are reset before they are read. So
      iteration c + 1 is a function of the carried state at its start,
      and of nothing else.
    - {e Induction.} Suppose the state after iteration c equals the
      state after iteration c - 1 (c >= 1, same entry into the loop).
      Then iteration c + 1 starts where iteration c started: it takes
      the same branches, counts the same ops and ends in the same
      state, and so does every later iteration. Iteration c did not
      trap, so none of them traps. The IR has no [break] or [continue],
      so every iteration reaches the back-edge.
    - {e Bits.} The comparison uses [Int64.bits_of_float], never [=]:
      NaN payloads and signed zeros are part of the state.
    - {e Overflow.} The [fp_ops] product wraps exactly as the one-by-one
      increments of the reference would: int arithmetic is modular.

    Three preconditions carry the argument. Every call kernel must be a
    pure function of its argument bits ({!Mathlib.Perturb} hashes them;
    the reference, polynomial and compare-select kernels keep no
    state): {b a kernel with state would break the fast-forward}. The
    IR has no [break] or [continue]. Counters are scoped: [flatten]
    rejects a nested loop that reuses an enclosing loop's counter.

    Every compiled binary runs on this engine; {!Interp} stays as the
    reference it is checked against. Both loops are bit-exact with
    {!Interp.run} — same values, same [fp_ops] — which the [vm-equiv]
    property suite (every configuration, at FP64 and FP32, so both
    loops) and the harness campaign check enforce; the [irsim › vm]
    tests pin which loop shapes fast-forward. *)

type program
(** A flattened, runtime-bound program, ready to execute many times. *)

val flatten : Interp.runtime -> Ir.t -> program
(** Compile the IR under the given runtime. Validates every slot index
    and binding once, sizes the register file and marks the loops that
    fast-forward; raises [Invalid_argument] on malformed IR (a slot out
    of declared range, a binding whose declared array length disagrees
    with [arr_lens], a call whose argument count is not the function's
    arity, a nested loop that reuses an enclosing loop's counter). *)

val code_size : program -> int
(** Number of flat instructions (for tests and diagnostics). *)

val disasm : program -> string list
(** One printable line per flat instruction, in code order (for tests
    and diagnostics). The back-edge of a loop that fast-forwards ends
    in [" ff"]. *)

val run : program -> Inputs.t -> Interp.outcome
(** Execute one input vector in fresh register storage, on the plain
    loop when the program has FTZ off and FP64 precision, else on the
    general one. The fast-forward snapshots live in that storage too, so
    one [program] may run on several domains at once. Marked loops skip
    their iterations past a fixed point; result, [fp_ops] and traps are
    those of {!Interp.run}, provided every call kernel is a pure
    function of its argument bits (see above). Raises
    [Invalid_argument] on an input vector that does not match the
    program's bindings, {!Interp.Trap} on an out-of-bounds subscript. *)
