(** Transmission traces of DES executions.

    A session run with a {!Gridb_obs.Sink.memory} sink ({!Session.run}
    [(Config.v ~obs ())]) logs every point-to-point transmission;
    {!of_events} reads the log back and this module analyses it: per-sender
    NIC busy time, the critical path to the last delivery, and a compact
    textual rendering.  Used by the deeper examples and by tests
    that assert structural properties of executions (e.g. that the flat
    tree's root carries all the traffic). *)

type transmission = {
  src : int;
  dst : int;
  start : float;  (** injection start, us *)
  gap_end : float;  (** sender NIC free again *)
  arrival : float;  (** receiver holds the message *)
  msg : int;  (** bytes *)
}

val of_events : Gridb_obs.Event.t list -> transmission list
(** Reconstruct transmissions from a chronological observability stream:
    each [Send_end] is paired with the latest open [Send_start] of the same
    directed link.  Unpaired starts and all other events are ignored.  The
    result is in emission order (not sorted by arrival). *)

val sender_busy_time : transmission list -> (int * float) list
(** Total NIC occupancy per sending rank, descending. *)

val busiest_sender : transmission list -> (int * float) option

val critical_path : transmission list -> transmission list
(** The chain of transmissions leading to the latest arrival, from the
    first hop to the last (each hop's receiver is the next hop's sender).
    Empty for an empty trace. *)

val total_bytes : transmission list -> int

val pp : Format.formatter -> transmission list -> unit
(** One line per transmission in arrival order. *)
