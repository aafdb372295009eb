(** Minimal deterministic JSON for trace sinks and on-disk snapshots.

    Serialization is byte-stable: object fields keep construction order
    and floats print as the shortest decimal that round-trips, so two
    runs producing equal values produce identical bytes — the property
    behind the fixed-seed trace reproducibility guarantee. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line, no insignificant whitespace. Non-finite floats encode as
    the strings ["nan"], ["inf"], ["-inf"] (JSON has no number for
    them). *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document (used by tests to check
    emitted trace lines). [\u] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val float_repr : float -> string
(** The serializer's float rendering (exposed for tests). *)
