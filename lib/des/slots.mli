(** An open-addressed table from non-negative int keys to values, for
    {!Faults} and {!Adaptive}: linear probing from a multiplicative hash
    over a power-of-two capacity, doubled at 3/4 load.  A slot index is
    valid until the next {!slot} call. *)

type 'a t

val create : keys:int -> 'a -> 'a t
(** An empty table whose absent keys read as the fill.  Its first
    capacity holds about [keys] keys below 3/4 load, but is at most 256
    (so it is born in the minor heap). *)

val find : 'a t -> int -> 'a
(** The value of a key, or the fill if it has no slot. *)

val slot : 'a t -> int -> int
(** The slot of a key, claimed (holding the fill) on first use. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
