(** The simulated compilers (paper §3.1.1): gcc 9.4 and clang 12.0 as host
    compilers, nvcc 12.3 as the device compiler. *)

type t = Gcc | Clang | Nvcc

val all : t array
(** [| Gcc; Clang; Nvcc |]. *)

val name : t -> string
(** ["gcc"], ["clang"], ["nvcc"]. *)

val version : t -> string
(** The versions the paper evaluates. *)

val is_host : t -> bool

val pairs : (t * t) list
(** The three compiler pairs compared by differential testing, in the
    paper's column order: (gcc, clang), (gcc, nvcc), (clang, nvcc). *)

val index : t -> int
(** Position in {!all}. *)

val pair_name : t * t -> string
(** e.g. ["gcc, nvcc"]; one shared string per pair. *)

val of_name : string -> t option
