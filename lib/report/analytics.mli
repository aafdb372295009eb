(** Campaign forensics analytics: fold an archive of inconsistency
    cases (plus optional latency percentiles from the metrics registry)
    into per-compiler-pair / per-optimization-level / per-value-class
    breakdown tables, rendered for the terminal or as a single-file
    HTML dashboard.

    This module sits in [report] deliberately: it knows nothing about
    compilers, difftest or the observability layer — callers project
    their cases into the plain {!case} record
    ({!Difftest.Case.to_analytics}) and their histograms into
    {!latency}. Both renderings are deterministic functions of the
    input (no wall-clock, no hash order): a fixed-seed campaign
    produces a byte-identical dashboard. *)

type case = {
  fingerprint : string;  (** content hash, the case's identity *)
  kind : string;         (** ["cross"] or ["within"] *)
  pair : string;  (** compiler pair, or compiler name for within cases *)
  level : string;        (** compared optimization level *)
  class_pair : string;   (** e.g. ["{Real, Zero}"] *)
  digits : int;          (** decimal digit difference *)
  slot : int;            (** provenance: campaign budget slot *)
}

type latency = {
  metric : string;
  count : int;
  p50 : float;
  p95 : float;
  p99 : float;
}

type t

val build : case list -> t
(** Cases are deduplicated by fingerprint and ordered internally, so
    [build] is insensitive to input order and duplicates. *)

val total : t -> int
val cross_total : t -> int
val within_total : t -> int

val by_pair : t -> string list * string list list
(** [(header, rows)]: per (kind, pair) — case count and digit-difference
    min/max/mean. Also feeds the CSV export. *)

val by_level : t -> string list * string list list
(** Per optimization level: cross cases, within cases, total. *)

val by_class : t -> string list * string list list
(** Per value-class pair: case count and digit statistics. *)

val shade_index : max_n:int -> int -> int
(** Density bucket 0–4 for a cell count against the grid maximum:
    0 for an empty cell, 4 for the densest, rounding up so any
    non-zero count gets at least the lightest shade. *)

val heatmap : t -> string list * string list list
(** The pair × level case-density grid: one row per pair, one column
    per level (both sorted), each populated cell rendered as a shade
    glyph (░▒▓█, scaled to the densest cell) plus the count; empty
    cells as ["·"]. The HTML rendering shows the same grid with
    background shading. *)

val render_tty : ?latencies:latency list -> ?title:string -> t -> string
(** Overview counts plus the three breakdown tables (and the latency
    table when given), as plain text. *)

val render_html :
  ?latencies:latency list -> ?max_cases:int -> title:string -> t -> string
(** The same content as one self-contained HTML document (embedded
    CSS, no external resources, no scripts). The per-case listing is
    capped at [max_cases] (default 100, by fingerprint order) with an
    explicit truncation note — nothing is dropped silently. *)
