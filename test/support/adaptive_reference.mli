(** A reference estimator for differential tests of {!Gridb_des.Adaptive}:
    the same Jacobson/Karn estimator and circuit breaker, with its touched
    links kept in a [Hashtbl] keyed [src * n + dst], as the module stored
    them before it moved to an open-addressed table. *)

type t

val create : config:Gridb_des.Adaptive.config -> n:int -> t

val rto : t -> src:int -> dst:int -> nominal:float -> fallback:float -> float

val on_sample :
  t -> src:int -> dst:int -> rtt:float -> retransmitted:bool -> now:float ->
  [ `No_change | `Opened | `Closed ]

val on_timeout : t -> src:int -> dst:int -> now:float -> bool
val usable : t -> src:int -> dst:int -> now:float -> bool
val usable_now : t -> src:int -> dst:int -> now:float -> bool
val circuit : t -> src:int -> dst:int -> [ `Closed | `Open | `Half_open ]
val srtt : t -> src:int -> dst:int -> float option
val rttvar : t -> src:int -> dst:int -> float option
val samples : t -> src:int -> dst:int -> int
val quality : t -> src:int -> dst:int -> float
