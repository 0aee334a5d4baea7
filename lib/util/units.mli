(** Canonical units for the whole code base.

    The paper mixes microseconds (Table 3), milliseconds (Table 2) and
    seconds (every figure).  To avoid unit bugs, every module in this
    repository stores time as {b microseconds} in a [float] and message sizes
    as {b bytes} in an [int]; this module is the single place where
    human-facing conversions live. *)

type time_us = float
(** Time in microseconds. *)

type bytes_ = int
(** Message size in bytes. *)

val us : float -> time_us
val ms : float -> time_us
val seconds : float -> time_us

val to_seconds : time_us -> float

val bytes : int -> bytes_
val kib : int -> bytes_
val mb : int -> bytes_
(** Decimal megabyte (10^6 bytes), the unit of the paper's x axes. *)

val pp_time : Format.formatter -> time_us -> unit
(** Adaptive: "2.45 s", "340 ms", "47.6 us". *)

val pp_bytes : Format.formatter -> bytes_ -> unit
(** Adaptive: "4 MB", "512 KiB", "64 B". *)

val time_to_string : time_us -> string
val bytes_to_string : bytes_ -> string
