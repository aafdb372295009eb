(** Incremental JSONL trace follower — the read side of the trace
    protocol, and the streaming-progress foundation the future fleet
    [serve] mode reuses.

    A follower holds a path and a {e committed byte offset}. Every
    {!poll} reopens the file, reads from the offset to the current end,
    decodes the complete lines it finds ({!Event.of_jsonl}) and
    advances the offset past the last newline. The invariants:

    - a partially-written final line (a writer mid-flush) is never
      consumed — it is re-examined on the next poll, so followers
      tolerate tailing a file that is being appended to and [fsync]'d
      concurrently;
    - a file that shrank below the committed offset (rotation, or a
      resumed campaign truncating back to a checkpoint boundary) resets
      the follower to the start of the file and flags the batch as
      [rotated], so the consumer can discard state derived from the
      discarded suffix;
    - a missing file is not an error — the follower reports an empty
      batch and keeps waiting, so a watcher can attach before the
      campaign opens its trace.

    Following a live trace and then concatenating every batch yields
    the byte-identical event stream of a one-shot read of the completed
    file (test-asserted). Followers never write;
    attaching one to a live campaign is purely observational. *)

type t

type batch = {
  events : Event.t list;  (** decoded complete lines, in file order *)
  rotated : bool;
      (** the file shrank since the last poll; the follower restarted
          from offset 0 and [events] begins at the new file's start *)
}

val create : path:string -> t
(** No I/O happens until the first {!poll}; the file need not exist. *)

val path : t -> string

val offset : t -> int
(** The committed byte offset: start of the first unconsumed byte
    (0 initially; always lands just past a newline). *)

val poll : t -> (batch, string) result
(** Read forward from the committed offset. [Error] means an
    undecodable {e complete} line — a corrupt trace, not a mid-write
    artifact — and names the path, line and offset; the offset is not
    advanced past it. *)

val read_all : path:string -> (Event.t list, string) result
(** One-shot read of a completed trace: every complete line decoded in
    file order. Unlike {!poll}, a missing file is an [Error]. *)

(** Following a whole fleet: one committed offset per shard trace,
    polled together. The missing-file tolerance of {!poll} holds per
    path — a shard whose trace has not been created yet (the
    supervisor attaches before the child's first flush) contributes an
    empty batch instead of failing the aggregate poll. *)
module Multi : sig
  type t

  val create : paths:string list -> t
  (** One follower per path, kept in the given order. No I/O until the
      first {!poll}; none of the files need exist. *)

  val paths : t -> string list

  val poll : t -> ((string * batch) list, string) result
  (** Poll every follower in creation order: one [(path, batch)] pair
      per path, missing files yielding empty batches. [Error] (a
      corrupt complete line in one file, as in the single-file
      {!poll}) aborts the aggregate poll at that file; offsets of the
      files polled before it have already advanced. *)
end
