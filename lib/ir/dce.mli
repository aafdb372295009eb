(** Dead-store elimination.

    Removes stores to scalar slots that are never loaded anywhere in the
    program (other than the accumulator) and stores to arrays that are
    never read, iterating to a fixpoint. Expressions are pure, so
    removal is semantically transparent; the pass exists because
    {!Forward} leaves behind dead multiply temporaries and because real
    pipelines run it, which keeps IR-size statistics honest. *)

val run : Ir.t -> Ir.t
(** Liveness is marked in flag arrays sized from the IR's slot and
    array counts. When nothing is dead the result is the input value
    itself, not a copy. *)
