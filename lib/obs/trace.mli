(** Process-wide trace dispatcher: fans {!Event} values out to the
    currently subscribed {!Sink}s.

    With no sink subscribed (the default), [on ()] is [false] and
    instrumentation sites skip event construction entirely — the cost
    of disabled tracing is one atomic read per site.

    Domain safety: delivery serializes on a mutex (sink [emit]s never
    run concurrently, so JSONL lines cannot interleave mid-line) and
    the slot context is domain-local. Campaigns running on several
    domains at once (the experiment suite at [jobs > 1]) interleave
    their events in completion order; one campaign's events arrive in
    the order it emits them. *)

type subscription

val subscribe : Sink.t -> subscription
val unsubscribe : subscription -> unit

val on : unit -> bool
(** At least one sink subscribed? Guard event construction with this:
    [if Trace.on () then Trace.emit (Event.… )]. *)

val emit : Event.t -> unit
(** Deliver to every subscribed sink, in subscription order. *)

val event : (unit -> Event.t) -> unit
(** [event make] = [if on () then emit (make ())] — convenience for
    non-hot paths. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Subscribe, run, then unsubscribe and {!Sink.close} (even on
    exceptions). *)

val sync : unit -> int option
(** Durably flush every subscribed sink ({!Sink.sync}) and return the
    byte position of the first sink that reports one — in practice the
    campaign's JSONL trace file. Campaign checkpoints record this
    offset so a resumed run can truncate the trace back to the
    checkpointed slot boundary. [None] when no sink is positional. *)

val current_slot : unit -> int option
(** The campaign budget slot currently executing, if any. *)

val with_slot : int -> (unit -> 'a) -> 'a
(** Bracket one budget slot; nested layers pick the slot up via
    {!current_slot} when building their events. *)
