(** Runtime parameter acquisition and schedule caching — the paper's
    "modified version of the MagPIe library ... extended with the capability
    to acquire pLogP parameters and to predict the communication performance
    of homogeneous clusters" (Section 7).

    At startup the library measures, {e on the simulated wire} (via
    {!Gridb_mpi.Benchmarks}), the pLogP parameters of every
    coordinator-to-coordinator link and of one representative intra-cluster
    link per cluster, and rebuilds a {e measured} grid from them.  Schedules
    are then computed against the measured grid — not the ground truth —
    exactly as a real deployment would, and cached per (heuristic, root,
    message class) so repeated broadcasts pay the scheduling cost once.

    The cache is a {!Gridb_service.Plan_cache} keyed by the fingerprint of
    the {e measured} machine view plus (root, class, heuristic) — the same
    memoization layer the broadcast service uses, so a [Tuning.t] can hand
    its cache to service components and inherits divergence-driven
    invalidation when lookups carry a live {!Gridb_des.Adaptive}
    estimator. *)

type t

val create :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  ?sizes:int list ->
  ?obs:Gridb_obs.Sink.t ->
  Gridb_topology.Machines.t ->
  t
(** Runs the measurement campaign.  [sizes] are the gap-probe message sizes
    (defaults to {!Gridb_mpi.Benchmarks.measure_link}'s).  With [noise]
    absent the measured grid reproduces the ground truth to floating-point
    accuracy.  [obs] (default {!Gridb_obs.Sink.null}) receives
    [Cache_hit]/[Cache_miss] events from the schedule cache, keyed
    ["<heuristic>/root=<r>/class=<c>"], and is the sink {!Bcast} publishes
    its strategy-selection events on. *)

val machines : t -> Gridb_topology.Machines.t

val obs : t -> Gridb_obs.Sink.t
(** The sink passed at creation ({!Gridb_obs.Sink.null} by default). *)

val measured_grid : t -> Gridb_topology.Grid.t

val instance : t -> root:int -> msg:int -> Gridb_sched.Instance.t
(** Scheduling instance against the measured grid, at the message's size
    class ({!Gridb_service.Plan_cache.bucket_of_size}: the next power of
    two, minimum 64 B, so the schedule cache stays small). *)

val schedule :
  ?estimator:Gridb_des.Adaptive.t ->
  t ->
  heuristic:Gridb_sched.Policy.t ->
  root:int ->
  msg:int ->
  Gridb_sched.Schedule.t
(** Cached: the first call for a (heuristic, root, class) triple computes
    and stores; later calls are hits.  With [estimator], the cached entry
    is invalidated and recomputed when the live
    {!Gridb_des.Adaptive.quality} matrix has drifted past the cache
    threshold since the entry was planned. *)

val plan_cache : t -> Gridb_service.Plan_cache.t
(** The underlying shared-layer cache (for stats beyond hits/misses, or to
    hand to service components). *)

val cache_stats : t -> int * int
(** (hits, misses) of the schedule cache so far. *)
