(** The A/B-set scheduling state machine (Section 3 formalism).

    Set [A] holds clusters whose coordinator already received the message
    (initially just the root); set [B] holds the rest.  Each {!send} picks a
    sender from [A] and a receiver from [B], applies the timing rules and
    transfers the receiver to [A].  All heuristics are thin selection
    policies layered on this driver, so the timing semantics is implemented
    exactly once. *)

type t

val create : Instance.t -> t
(** Fresh state: [A = {root}] at time 0. *)

val create_seeded : Instance.t -> sources:(int * float * float) list -> t
(** Mid-broadcast state for {!Repair}: [A] holds every [(cluster, ready,
    avail)] triple of [sources] — coordinators that already hold the
    message, with the clock carried over from an interrupted run — and [B]
    holds the rest.  The instance root must be one of the sources.
    @raise Invalid_argument on an empty list, duplicate or out-of-range
    clusters, [ready < 0.], [avail < ready], or a root not in [sources]. *)

val instance : t -> Instance.t
val in_a : t -> int -> bool
val members_a : t -> int list
(** Ascending cluster ids. *)

val members_b : t -> int list

val iter_a : t -> (int -> unit) -> unit
(** Apply to every member of [A] in ascending order, without allocating. *)

val iter_b : t -> (int -> unit) -> unit

val count_b : t -> int

val first_b : t -> int option
(** Smallest cluster id still in [B], without building {!members_b}.
    Amortised O(1) over a run: [B] only shrinks, so the scan resumes from
    the previous answer. *)

val finished : t -> bool
(** True when [B] is empty. *)

val ready : t -> int -> float
(** RT_i — arrival time of the message at coordinator [i].
    @raise Invalid_argument if [i] is still in [B]. *)

val avail : t -> int -> float
(** Earliest time coordinator [i] may start a new transmission:
    [max (ready i) (end of its previous gap)].
    @raise Invalid_argument if [i] is still in [B]. *)

val earliest_arrival : t -> src:int -> dst:int -> float
(** [avail src + g + L]: when [dst] would hold the message if the pair were
    selected now — the quantity ECEF minimises.
    @raise Invalid_argument if [src] is in [B] or [dst] in [A]. *)

val score_arrival : t -> int -> int -> float
(** Unchecked {!earliest_arrival} for the selection hot paths: meaningful
    only when the first cluster is in [A] (no membership validation). *)

val send : t -> src:int -> dst:int -> unit
(** Applies the transmission.  @raise Invalid_argument if [src] is in [B],
    [dst] is in [A], or [src = dst]. *)

val to_schedule : t -> Schedule.t
(** Snapshot of the events so far (valid once {!finished}). *)

val run : (t -> int * int) -> Instance.t -> Schedule.t
(** [run select inst] drives the greedy loop: while [B] is non-empty, apply
    [select] and {!send} the chosen pair.  Single-cluster instances yield an
    empty schedule. *)
