(** Crash-safe (atomic, fsync'd) file writes.

    The durability rule for the whole tree: any file another run may
    later read — case archives, checkpoints, dashboards —
    is produced by {!write_atomic}, never by writing the final path in
    place. A crash at any instant leaves either the previous complete
    file or the new complete file on disk. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (idempotent). *)

val write_atomic : path:string -> (out_channel -> unit) -> unit
(** [write_atomic ~path f] runs [f] on a binary-mode channel over a
    temporary file in [path]'s directory, flushes, [fsync]s, renames the
    temporary over [path], and fsyncs the directory. If [f] raises, the
    temporary is removed and [path] is untouched. Creates missing parent
    directories. *)

val write_string : path:string -> string -> unit
(** [write_string ~path s] is [write_atomic] writing exactly [s]. *)
