(** A reference fault model for differential tests of
    {!Gridb_des.Faults}: the per-link stream construction written out
    plainly, one {!Gridb_util.Rng.t} per queried link.

    It rebuilds the master stream after the crash and cut draws, and seeds
    each directed link's loss stream (and degradation stream) with
    [Rng.create (Int64.to_int (Rng.bits64_ahead master (offset + idx)))],
    [offset] being [0] for loss and [n * n] for degradation when
    [loss > 0.] ([0] otherwise).  Degradation episodes are drawn in start
    order and kept in a list. *)

type t

val create : ?seed:int -> ?t0:float -> n:int -> Gridb_des.Faults.spec -> t

val lose : t -> src:int -> dst:int -> bool
(** As {!Gridb_des.Faults.lose}. *)

val slowdown : t -> src:int -> dst:int -> at:float -> float
(** As {!Gridb_des.Faults.slowdown}. *)
