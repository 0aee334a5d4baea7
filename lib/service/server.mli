(** Broadcast-as-a-service: many broadcasts, one engine, one wire.

    [run] serves a batch of {!Workload} requests the way an online
    broadcast service would:

    + {b Batch planning} — the batch's {e distinct} {!Plan_cache} keys are
      planned once each, fanned out over a {!Gridb_util.Pool} ([jobs]).
      Planning is pure and results land by index, so every [jobs] setting
      yields the same plans.  Requests naming an unknown policy never
      reach planning: they become per-request [Bad_policy] rejections
      during replay instead of failing the whole batch.
    + {b Replay} — requests are replayed sequentially in arrival order:
      each charges the plan cache (hit / miss / divergence invalidation),
      passes {!Admission} on its plan's {e predicted} makespan (carrying
      its {!Workload.priority} so degraded-mode shedding can act), and, if
      admitted, reserves its session's start at its arrival time.
    + {b Execution} — one engine drives every admitted session, and each
      launches only as the engine reaches its start, so the engine's
      queue holds the sessions in flight, not every future start; all of
      them contend on one shared {!Gridb_des.Wire}, so the one-port gap
      serialization holds across concurrent broadcasts.  Session events
      are tagged with the request id ([sid = attempt * requests + rid]).
    + {b Retry waves} — with a non-zero {!retry} budget, requests whose
      delivered-rank {e union} over all attempts still misses base ranks
      are re-enqueued with exponential backoff, re-admitted against the
      live open-circuit fraction, re-planned on the live estimated latency
      matrix when link quality drifted past the cache threshold, and
      relaunched as fresh sessions, launched in start order as wave 0's
      are.  Delivery is never double-counted:
      the union takes the earliest arrival per rank across attempts.

    Chaotic runs ([faults]/[dynamics]/retries/shedding/deadlines) derive
    every per-session random stream by pure {!Gridb_util.Rng.split} from
    [(rid, attempt)]-indexed bases, so a seeded chaotic run is bit-stable
    across [jobs].  Zero-chaos runs replay the exact historical pipeline:
    everything except the host-clock timing fields ([plan_*],
    [plans_per_sec]) is bit-identical to the pre-resilience server — the
    property the regression pin and the CI smoke check byte-compare. *)

type retry = { budget : int; backoff_us : float }
(** Requeue policy: at most [budget] retries per request (so [budget + 1]
    attempts), the [k]-th retry delayed [backoff_us * 2^(k-1)] us past the
    previous attempt's makespan. *)

val no_retry : retry
(** Zero budget: partial sessions are final (the default). *)

val retry : ?budget:int -> ?backoff_us:float -> unit -> retry
(** Defaults: budget 2, base backoff 10 ms.
    @raise Invalid_argument on a negative budget or a negative, NaN or
    infinite backoff. *)

type outcome = {
  request : Workload.request;
  cache : [ `Hit | `Miss | `Invalidated | `Unplanned ];
      (** [`Unplanned]: unknown policy, never planned or charged *)
  plan_us : float;  (** host-clock plan latency (compute cost on a miss) *)
  predicted_us : float;  (** the plan's predicted makespan *)
  decision : Admission.decision;  (** the {e wave-0} admission decision *)
  result : Gridb_des.Session.reliable option;
      (** final attempt's outcome; [None] iff never admitted.  Its
          [estimator] is [None] once the request can no longer be retried
          (every base rank delivered, the retry budget spent, or the retry
          rejected at admission): only a retry's replanning reads it. *)
  attempts : int;  (** sessions launched for this request (0 if rejected) *)
  delivered_union : int;
      (** ranks delivered by {e any} attempt (base ranks union across
          attempts + final attempt's joins); equals the final attempt's
          [delivered] when [attempts <= 1] *)
  completion_us : float;
      (** earliest time every base rank had been delivered by some
          attempt; [nan] while any base rank is missing *)
  deadline_met : bool option;
      (** [None] when the request carries no deadline or was never
          admitted; otherwise whether [completion_us - at <= deadline] *)
}

type class_slo = {
  c_requests : int;
  c_admitted : int;
  c_shed : int;  (** shed decisions (wave-0 and retry waves) *)
  c_rejected : int;  (** hard-cap rejections (sheds not re-counted) *)
  c_requeues : int;  (** retry sessions launched *)
  c_delivered : int;  (** union delivered ranks over admitted requests *)
  c_ranks : int;  (** deliverable ranks over admitted requests *)
  c_deadlines : int;  (** admitted requests carrying a finite deadline *)
  c_deadline_met : int;
}
(** Per-priority-class SLO accounting. *)

val delivery_ratio : class_slo -> float
(** [c_delivered / c_ranks] ([1.] when the class admitted nothing). *)

val deadline_attainment : class_slo -> float
(** [c_deadline_met / c_deadlines] ([1.] when no deadlines were due). *)

type report = {
  outcomes : outcome array;  (** one per request, arrival order *)
  requests : int;
  admitted : int;
  rejected : int;  (** includes sheds and invalid-policy rejections *)
  invalid : int;  (** [Bad_policy] rejections (unknown heuristic name) *)
  cache_stats : Plan_cache.stats;
  hit_rate : float;  (** hits / lookups *)
  plan_wall_s : float;
      (** host wall clock of planning and the wave-0 replay (cache
          lookups and admission), without session set-up or execution *)
  plans_per_sec : float;  (** requests served per host second *)
  plan_p50_us : float;  (** median per-request plan latency *)
  plan_p99_us : float;
  horizon_us : float;  (** simulated quiescence (after every retry wave) *)
  delivered : int;  (** union delivered ranks, summed over admitted *)
  mean_makespan_us : float;  (** mean (makespan - arrival) over admitted *)
  sheds : int;  (** shed decisions across all waves *)
  requeues : int;  (** retry sessions launched *)
  retry_lookups : int;  (** cache lookups charged by retry replanning *)
  deadline_misses : int;
  slo_high : class_slo;
  slo_low : class_slo;
  chaotic : bool;
      (** whether any resilience machinery was live (faults, dynamics,
          retries, shedding, priorities or deadlines); [false] pins the
          zero-chaos identity: [smoke_lines] renders exactly the
          historical output *)
}

val run :
  ?jobs:int ->
  ?transport:Gridb_des.Session.transport ->
  ?admission:Admission.t ->
  ?cache:Plan_cache.t ->
  ?obs:Gridb_obs.Sink.t ->
  ?seed:int ->
  ?faults:Gridb_des.Faults.spec ->
  ?dynamics:Gridb_des.Dynamics.spec ->
  ?retry:retry ->
  Gridb_topology.Machines.t ->
  Workload.request list ->
  report
(** Serve [requests] (chronological; rids should be dense from 0 — session
    [rid] seeds its rng stream via {!Gridb_util.Rng.split}[ seed rid], and
    retry attempt [k > 0] splits a dedicated retry base by [(rid, k)]).
    [faults]/[dynamics] specs are instantiated {e per session} with seeds
    derived from [(seed, rid, attempt)], so every session fails
    independently and every [jobs] setting replays identically.
    Defaults: sequential planning, [Fixed] transport, a fresh
    {!Admission.create}[ ()] controller, a fresh cache, null sink, seed 0,
    no faults, no dynamics, {!no_retry}.
    @raise Invalid_argument on out-of-order requests (unknown policy names
    are per-request {!Admission.Bad_policy} rejections, not errors). *)

val smoke_lines : report -> string list
(** Deterministic rendering of the jobs-invariant part of a report (no
    host-clock fields) — one line per request plus summary lines; the CI
    smoke check byte-compares it at [--jobs 1] vs [4].  On a zero-chaos
    report ([chaotic = false]) the rendering is byte-identical to the
    historical server's; chaotic reports append per-request
    priority/deadline/attempt annotations and per-class SLO summary
    lines. *)
