(** Shared per-NIC occupancy state.

    One [Wire.t] holds the [nic_free] times of every rank on the fabric.
    A single-session executor owns a private wire; the broadcast service
    hands {e one} wire to every concurrent {!Session} so their
    transmissions contend for the same NICs — the half-duplex one-port
    serialization of the pLogP model then holds {e across} sessions, not
    just within one.

    All times are simulated microseconds.  A rank's NIC is free again at
    [free_at]; a send seizes it for the link's gap.  Every reader takes
    [max now (free_at)], never [free_at] alone, so a [free_at] at or
    before [now] is never seen: a delivery need not record itself here. *)

type t

val create : n:int -> t
(** A wire for ranks [0 .. n-1], all NICs free at time 0.
    @raise Invalid_argument if [n < 1]. *)

val size : t -> int
(** Number of ranks the wire covers. *)

val free_at : t -> int -> float
(** When [rank]'s NIC ends its last injection, which may be long past. *)

val occupy : t -> int -> start:float -> gap:float -> unit
(** Record an injection at [start], which a sender takes as
    [max now (free_at)]: sets [free_at] to [start +. gap].  Caller must
    ensure [start >= free_at]. *)

(** {2 Pooled session state}

    The sessions sharing a wire keep the protocol state of the finished
    ones here, for the next to start ({!Session.launch_reliable}): a wire
    belongs to one engine on one domain, so the free list needs no lock. *)

type spare = ..
(** What the sessions keep on a wire, extended by {!Session}. *)

type spare += Nothing  (** A fresh wire's. *)

val spare : t -> spare
val keep : t -> spare -> unit
