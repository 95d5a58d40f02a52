(** Minimal JSON: the certification service's wire values.

    Stdlib-only by design (the serving layer adds no opam
    dependencies).  The printer emits a single line — no newlines ever,
    so a value is always exactly one frame of the line-delimited wire
    protocol — and renders floats with enough digits to round-trip
    bit-exactly, which the result cache's bitwise-equality guarantee
    relies on.  The parser accepts standard JSON and raises [Failure]
    with a position on malformed input. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line rendering.  Finite floats round-trip bit-exactly
    through {!of_string}; raises [Failure] on NaN or infinite numbers
    (JSON has no spelling for them — keep them off the wire). *)

val of_string : string -> t
(** Parse one JSON value (surrounding whitespace allowed, nothing
    else).  Raises [Failure] with a character position on malformed
    input. *)

(** {1 Accessors}

    Total lookups for protocol decoding: [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields and non-objects. *)

val to_num : t -> float option

val to_int : t -> int option
(** Numbers with an exact integer value only. *)

val to_list : t -> t list option

val mem_str : string -> t -> string option

val mem_num : string -> t -> float option

val mem_int : string -> t -> int option

val mem_bool : string -> t -> bool option

val mem_list : string -> t -> t list option
