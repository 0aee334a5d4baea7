(** Replan-vs-ride-out experiment on a dynamic grid.

    One evaluation closes the paper's loop under a time-varying topology:

    + plan a broadcast schedule on the nominal grid (the static paper
      pipeline);
    + execute it reliably while a {!Gridb_des.Dynamics} model drifts the
      link parameters and churns the membership, with the adaptive
      transport's estimator watching every round trip;
    + every [recluster_every] us (the spec's field), re-run Lowekamp's
      cluster detection on the estimator's live latency matrix and record
      the partition drift against plan time plus the estimator divergence
      — the online re-clustering loop;
    + at quiescence, feed the final signals to {!Gridb_sched.Replan.decide}
      and build the three candidate responses: ride out the original
      schedule, {!Gridb_sched.Repair}-splice it on the estimated instance,
      or replan the whole broadcast from estimates;
    + judge all three with {!Gridb_sched.Replan.evaluate} on the {e true}
      drifted instance (nominal parameters scaled by the actual
      {!Gridb_des.Dynamics.factor} at the decision instant) under the true
      coordinator halt times.

    [bench/dynamics.exe] sweeps this over drift-rate x churn-rate cells to
    map where replanning from estimates beats riding out. *)

type tick = {
  at : float;  (** us *)
  drift : float;  (** 1 - Rand index vs the plan-time machine partition *)
  divergence : float;  (** mean |quality - 1| over estimator-observed links *)
}

type outcome = {
  policy : string;
  dyn : Gridb_des.Dynamics.spec;
  spec : Gridb_des.Faults.spec;
  seed : int;
  clusters : int;
  total_ranks : int;  (** planning-time ranks + joins within the horizon *)
  delivered : int;  (** observed run, ranks holding the message *)
  delivery_ratio : float;
  makespan : float;  (** observed reliable makespan, us *)
  horizon : float;  (** quiescence instant — the decision time, us *)
  left_ranks : int;
  joined_ranks : int;
  ticks : tick list;  (** re-clustering trail, chronological *)
  final_drift : float;  (** partition drift at quiescence *)
  final_divergence : float;  (** estimator divergence at quiescence *)
  departed_clusters : int;  (** coordinators halted within the horizon *)
  decision : Gridb_sched.Replan.decision;
  ride_out : Gridb_sched.Replan.verdict;
  splice : Gridb_sched.Replan.verdict;
  replan : Gridb_sched.Replan.verdict;
}

val chosen : outcome -> Gridb_sched.Replan.verdict
(** The verdict of the candidate {!outcome.decision} picked. *)

val divergence : Gridb_des.Adaptive.t -> float
(** Mean [|quality - 1|] over links with at least one Karn-valid sample;
    0. when nothing was observed yet. *)

val run :
  ?policy:Gridb_sched.Policy.t ->
  ?msg:int ->
  ?retries:int ->
  ?seed:int ->
  ?noise:Gridb_des.Noise.t ->
  ?obs:Gridb_obs.Sink.t ->
  ?transport:Gridb_des.Session.transport ->
  ?thresholds:Gridb_sched.Replan.thresholds ->
  ?spec:Gridb_des.Faults.spec ->
  dyn:Gridb_des.Dynamics.spec ->
  Gridb_topology.Grid.t ->
  outcome
(** One evaluation on [grid] (root cluster 0).  Defaults:
    {!Gridb_sched.Policy.ecef_la}, 1 MB, 5 retries, seed 0, [Exact] noise,
    adaptive transport {e with} reroute (the estimator and the adoption
    path are what make the loop observable — under [Fixed] the signals
    read 0 and the estimated instance degrades to the nominal one),
    {!Gridb_sched.Replan.default} thresholds, no faults.  [seed] seeds the
    fault model, the run's jitter stream, and (tagged) the dynamics
    model — the same derivation as {!Robustness.run}, so the two
    experiments agree on the same draws at the same seed. *)

val render : outcome -> string
(** Two-column text table: observed run, re-clustering trail summary,
    decision and the three candidate verdicts. *)
