(** One scenario through the whole pipeline, every check attached.

    [check] executes a {!Scenario.t} end to end — resolve the recipe,
    schedule with both engine modes, validate every schedule invariant,
    apply the metamorphic laws, execute on the DES, validate the event
    stream — and reports the first violation.  On top of the {!Invariant}
    and {!Metamorphic} catalogues it contributes four checks of its own:

    - ["scenario"]: the recipe itself must resolve (policy, transport and
      fault strings parse);
    - ["engine-differential"]: the incremental engine's schedule must be
      structurally identical to the naive oracle's;
    - ["makespan-cross-check"]: the fault-free DES makespan must equal the
      analytic {!Gridb_sched.Schedule.makespan} of the schedule it
      executes;
    - ["arrival-accounting"] / ["delivered-accounting"]: under faults, the
      executor's arrival vector, its [delivered] counter and the [Arrival]
      events of the stream must tell one consistent story;
    - ["churn-accounting"]: under dynamics, the executor's [left] /
      [joined] reports must match the model's pre-drawn departures and
      joins within the horizon, nothing may be delivered to a rank at or
      after its departure, and joins outside the horizon must never
      receive. *)

val check : Scenario.t -> Invariant.outcome
(** The full pipeline; first violation wins. *)

val run_invariant_names : string list
(** The checks [check] itself contributes (the {!Invariant} and
    {!Metamorphic} catalogues list theirs). *)

val check_service : Scenario.t -> Invariant.outcome
(** The service family: derive a seeded open-loop request stream over the
    scenario's grid ({!Scenario.service_seed}, default mix, ~40 requests
    in a 1e6-us window), serve it through {!Gridb_service.Server.run} with
    the scenario's transport, and validate the multi-session run:

    - ["service-accounting"]: admitted + rejected = requests, and every
      request charges the plan cache exactly one lookup;
    - ["session-attribution"]: the stream's tagged sids are exactly the
      admitted request ids, and each session announces its root;
    - per-session, on each sid's slice of the stream: at-most-once
      delivery, causality, NIC serialization, pLogP gap conformance and
      the arrival/delivered books (the {!Invariant} stream catalogue plus
      ["arrival-accounting"], details prefixed with the session id);
    - ["session-clock"]: nothing in a session precedes its request's
      arrival time;
    - ["start-order"]: every session start fires before the other
      sessions' handlers due at its time
      ({!Invariant.sessions_start_order});
    - ["sessions-nic-serialization"]: one-port discipline of the shared
      wire across concurrent sessions. *)

val service_invariant_names : string list
(** The checks only [check_service] contributes
    (["sessions-nic-serialization"] is listed with the stream
    invariants). *)

val check_chaos : Scenario.t -> Invariant.outcome
(** The chaos family: a deadline/priority request stream over the
    scenario's grid ({!Scenario.chaos_seed}; finite deadlines, half the
    traffic high-priority), served through {!Gridb_service.Server.run}
    with the scenario's transport {e and} its fault/dynamics specs, a
    retry budget of 2 and a shedding admission controller — then the
    resilience bookkeeping validated end to end:

    - ["chaos-accounting"]: admitted + rejected = requests; cache lookups
      = planned requests + retry replans; the per-class SLO tables
      partition the global counters; stream [Retry] events match the
      requeue counter;
    - ["retry-monotonicity"]: attempts respect the budget, the
      delivered-rank union never falls below the final attempt's tally nor
      exceeds the population (retries never double-count delivery);
    - ["shed-ordering"]: only low-priority requests are ever shed, and the
      stream's [Shed] events agree with the report;
    - ["session-attribution"]: tagged sids are exactly
      [attempt * requests + rid] for every launched attempt;
    - ["deadline-bookkeeping"]: each request's completion recomputed from
      the tagged arrival events of all its attempts must reproduce the
      report's completion times, deadline verdicts and miss counter. *)

val chaos_invariant_names : string list
(** The checks only [check_chaos] contributes. *)

val check_opt : Scenario.t -> Invariant.outcome
(** The optimality-oracle family: solve the scenario's instance exactly
    with {!Gridb_opt.Exact} (scenarios are n <= 8, well inside the solver
    ceiling) and hold the whole system against the certificate:

    - the certified optimal schedule itself passes every schedule
      invariant of the {!Invariant} catalogue;
    - ["opt-lower-bound"]: no heuristic — the seven of the registry plus
      the scenario's own policy — beats the certified optimum, and the
      analytic {!Gridb_sched.Bounds.combined} never exceeds it;
    - ["opt-des-replay"]: the certified schedule executed fault-free on
      the DES reproduces the certified makespan exactly;
    - ["opt-homogeneous"]: on a uniform instance drawn from
      {!Scenario.opt_seed} (Table-2 parameter ranges), Träff's log-time
      construction, its closed-form [t* + T] makespan and the B&B optimum
      all agree, the construction's schedule passes the catalogue, and the
      same no-heuristic-beats-it sandwich holds. *)

val opt_invariant_names : string list
(** The checks only [check_opt] contributes. *)
