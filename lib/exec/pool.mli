(** Work-sharing domain pool for the parallel execution layer.

    One process-wide pool of worker domains (stdlib [Domain] + [Mutex] /
    [Condition], no dependencies) serves both parallel sites in the
    pipeline: the independent seeded campaigns of the experiment suite
    and Table 3's per-approach diversity scoring. Workers are spawned on
    demand, kept for the life of the process (domain spawn is far too
    expensive to pay per batch), and joined at exit.

    Design rules, chosen so that {b job count can never change results}:

    - {!map} returns results in input order, whatever order the items
      finished in;
    - if any application raised, the exception of the {e earliest} input
      is re-raised (with its backtrace) after the whole batch has
      drained — deterministic even when several items fail;
    - [jobs <= 1], empty and singleton batches run sequentially in the
      caller, byte-for-byte the plain [List.map];
    - a {!map} issued from inside a pool worker (a nested parallel
      section) runs sequentially in that worker — nesting cannot
      deadlock and cannot oversubscribe the machine.

    The caller participates: while a batch is in flight the calling
    domain executes queued tasks alongside the workers, so [~jobs:n]
    means [n] domains of compute including the caller ([n - 1] workers
    are spawned). The pool grows to the largest [jobs] ever requested
    and is never shrunk except by {!shutdown}.

    The pool itself is orchestrated from one domain at a time (the
    experiment driver); tasks may freely use the domain-safe
    observability layer ({!Obs.Metrics} atomics, mutex-guarded
    {!Obs.Trace} sinks, per-domain {!Obs.Span} aggregates). *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs], using up to
    [jobs] domains (the caller plus [jobs - 1] pool workers), and
    returns the results in input order. See the determinism rules
    above. [jobs] is clamped below by 1; requesting more jobs than
    items spawns at most [length xs - 1] workers (oversubscription is
    safe). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [--jobs] value
    for "use the whole machine". *)

val worker_count : unit -> int
(** Worker domains currently alive (0 until the first parallel
    {!map}). Exposed for tests and diagnostics. *)

val shutdown : unit -> unit
(** Stop and join every worker. Registered [at_exit] automatically on
    first spawn; callable manually (e.g. between tests). A later
    {!map} transparently respawns workers. *)
