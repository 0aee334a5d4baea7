(** The flat one-object-per-line JSON codec shared by event traces
    ([Gridb_obs.Event]) and conformance reproducers
    ([Gridb_check.Scenario]): string, integer, float and boolean values
    only, no nesting. *)

(** {1 Writer} *)

type field =
  | I of string * int
  | F of string * float
  | S of string * string
  | B of string * bool

val obj : field list -> string
(** One object holding [fields] in order, no trailing newline.  Floats are
    printed with [%.17g], which {!parse_fields} reads back bit-exactly;
    infinities and NaN print as [inf]/[-inf]/[nan] (not strict JSON, but
    the reader accepts them).  Strings escape quotes, backslashes and
    control characters. *)

(** {1 Reader} *)

type scalar = Int of int | Float of float | Str of string | Bool of bool

exception Bad of string
(** A human-readable reason; the parser's reasons end with the byte
    offset. *)

val parse_fields : string -> (string * scalar) list
(** The fields of one object, in order.  A number that reads as an
    integer (other than ["-0"]) is an [Int], any other number a [Float].
    @raise Bad on anything else, trailing garbage included. *)

val geti : (string * scalar) list -> string -> int
val getf : (string * scalar) list -> string -> float
(** Accepts an [Int] too. *)

val gets : (string * scalar) list -> string -> string
val getb : (string * scalar) list -> string -> bool
(** Typed field getters (first occurrence wins).
    @raise Bad ["missing field \"k\""] or ["field \"k\": expected int"]
    (resp. number, string, bool). *)
