(** Seeded, reproducible grid dynamics: background-load drift and churn.

    {!Faults} models things that {e break}; this module models things that
    merely {e change}.  A {!spec} describes three independent processes:

    - {b parameter drift} — per directed link, background load arrives and
      departs as alternating ON/OFF phases (exponential durations of means
      [load_on_mean] / [load_off_mean]); while a phase is ON, the link's
      effective gap and latency are multiplied by a bounded random-walk
      factor that takes lognormal steps at Poisson times of rate
      [drift_rate] and is clamped to [[1/drift_max, drift_max]].  Off
      phases snap the factor back to exactly [1.] (the walk keeps its value
      for the next ON phase);
    - {b leaves} — rank [i] departs forever at a time drawn from
      [Exp(leave_rate)]: a crash-like permanent halt, indistinguishable
      from {!Faults} crashes to the executor;
    - {b joins} — new ranks appear as a Poisson process of rate
      [join_rate] (at most [join_max] of them), each attaching to a
      uniformly drawn cluster with fresh, undrifted links.  Joins receive
      rank ids [n], [n+1], … above the planning-time population.

    [recluster_every] is carried in the same spec for the consumers'
    convenience (the online re-clustering loop of
    {!Gridb_experiments.Dynamics} and [gridsched simulate]); the processes
    above ignore it.

    Like {!Faults}, all randomness is pre-seeded per link / per rank at
    {!create} time from one SplitMix64 master stream and drift events are
    materialised lazily in time order, so draws are reproducible at a fixed
    seed and independent of the order in which the executor queries
    different links — which is what keeps dynamic runs bit-stable at any
    [--jobs] count. *)

type spec = {
  drift_rate : float;  (** walk-step arrival rate per directed link, 1/us *)
  drift_sigma : float;  (** lognormal sigma of one walk step, > 0 *)
  drift_max : float;  (** factor clamp: walk stays in [1/drift_max, drift_max] *)
  load_on_mean : float;  (** mean ON (loaded) phase duration, us *)
  load_off_mean : float;  (** mean OFF phase duration, us; [0.] = always loaded *)
  leave_rate : float;  (** permanent departure rate per rank, 1/us *)
  join_rate : float;  (** global join arrival rate, 1/us *)
  join_max : int;  (** cap on materialised joins *)
  recluster_every : float;  (** re-clustering period for consumers, us; [0.] = off *)
}

val none : spec
(** All processes disabled: zero rates, [recluster_every = 0.]. *)

val v :
  ?drift_rate:float ->
  ?drift_sigma:float ->
  ?drift_max:float ->
  ?load_on_mean:float ->
  ?load_off_mean:float ->
  ?leave_rate:float ->
  ?join_rate:float ->
  ?join_max:int ->
  ?recluster_every:float ->
  unit ->
  spec
(** Build a validated spec; omitted fields default to {!none}'s values
    (sigma 0.25, clamp 4., ON/OFF means 2e5 us, [join_max] 4).
    @raise Invalid_argument on a NaN or infinite field, negative rates,
    non-positive [drift_sigma]
    or [load_on_mean], [drift_max < 1.], negative [load_off_mean],
    [join_max] outside [0, 2^53] or negative [recluster_every]. *)

val is_none : spec -> bool
(** True iff nothing ever changes: zero drift, leave and join rates and no
    re-clustering period. *)

val of_string : string -> (spec, string) result
(** Parse a CLI spec: comma-separated [key=value] pairs with keys [drift]
    (walk-step rate), [drift-sigma], [drift-max], [load-on], [load-off],
    [leave], [join], [join-max], [recluster], plus the shorthand [churn=r]
    that sets [leave] and [join] to [r] at once.  [""] and ["none"] parse
    to {!none}.  Example: ["drift=2e-5,churn=5e-8,recluster=2e5"].
    Every value must be a finite number; errors name the offending key as
    typed — same contract as {!Faults.of_string}. *)

val to_string : spec -> string
(** Inverse of {!of_string}: the non-default fields, each printed exactly
    (as {!Faults.to_string}); ["none"] for {!none}.  The [churn] shorthand
    is never emitted, so print∘parse∘print is a fixpoint. *)

type t
(** An instantiated dynamics model over [n] planning-time ranks (plus any
    joins). *)

type join = {
  rank : int;  (** the new rank's id, in [n .. total - 1] *)
  cluster : int;  (** cluster it attaches to *)
  at : float;  (** arrival time, us *)
}

val create : ?seed:int -> ?t0:float -> n:int -> clusters:int -> spec -> t
(** Pre-draws leave times and join arrivals and seeds the per-link drift
    streams (default seed 0).  [clusters] is the number of clusters joins
    may attach to.  With {!is_none} specs no randomness is consumed at all.

    [t0] (default [0.]) is the model's time origin: every drawn time —
    leave times, join arrivals, the drift-phase timeline — is an offset
    from it.  A session launched mid-simulation (e.g. a broadcast-service
    request, or a retry) passes its own start time so the model describes
    dynamics {e from that session's start}, not from the simulation's
    epoch; the drawn offsets themselves are [t0]-independent, so shifting
    the origin never changes the random stream.
    @raise Invalid_argument if [n < 1], [clusters < 1] or [t0] is not
    finite. *)

val spec : t -> spec
val size : t -> int
(** Planning-time population [n] (excludes joins). *)

val total : t -> int
(** [n] plus materialised joins — the executor's array size. *)

val joins : t -> join array
(** Join events in arrival order; rank ids are [n], [n+1], … *)

val leave_time : t -> int -> float
(** When rank [i] departs forever; [infinity] if never (always for join
    ranks — a joining rank does not leave within the modelled horizon).
    @raise Invalid_argument for ranks outside [0 .. total - 1]. *)

val left : t -> int -> at:float -> bool

val factor : t -> src:int -> dst:int -> at:float -> float
(** Multiplicative gap/latency drift on the directed link at time [at]:
    the clamped walk value while the link's load phase is ON, exactly [1.]
    while OFF, on self-links, on links touching a join rank (fresh links
    are undrifted), and always when [drift_rate = 0.]. *)
