(** Pluggable trace sinks: where {!Trace} fans events out to.

    The default state of the process is {e no} sink subscribed, in which
    case instrumentation sites skip event construction entirely
    ({!Trace.on} is one branch) — observability off is effectively
    free. *)

type t

val make :
  ?close:(unit -> unit) -> ?sync:(unit -> int option) -> (Event.t -> unit) -> t
(** A sink from its [emit] function. [sync] durably flushes buffered
    output and reports the current byte position, if the sink has a
    meaningful one (default: [fun () -> None]). *)

val null : t
(** Swallows everything. Subscribing it still turns {!Trace.on} on;
    for zero overhead simply subscribe nothing. *)

val jsonl : out_channel -> t
(** One JSON object per line on [oc]; [close] flushes (the channel
    itself belongs to the caller). [sync] flushes, [fsync]s, and
    returns [Some (pos_out oc)] — the durable byte offset a campaign
    checkpoint records so a resumed run can truncate the trace file
    back to a slot boundary. *)

val ring : ?capacity:int -> unit -> t * (unit -> Event.t list)
(** In-memory ring buffer keeping the last [capacity] (default 1024)
    events; the second component returns them oldest-first. Used by
    tests and interactive inspection. *)

val deliver : t -> Event.t -> unit
(** Feed one event (what {!Trace.emit} calls). *)

val close : t -> unit

val sync : t -> int option
(** Durably flush the sink and return its byte position, when it has
    one. *)
