(** Metamorphic laws over the whole pipeline.

    Where {!Invariant} checks one artefact against itself, the laws here
    relate {e two} runs of the pipeline whose outputs must agree in a
    predictable way — no oracle needed beyond the relation:

    - {b scaling}: multiplying every [L_ij], [g_ij] and [T_k] by [c > 0]
      must scale the makespan by exactly [c] and preserve the transmission
      order.  With [c] a power of two the float arithmetic is exact
      (multiplication by a power of two only shifts exponents), so the
      engine's selection is bitwise unchanged; the default [c = 2.] keeps
      the check exact.
    - {b relabeling}: permuting cluster labels (and the root with them) is
      a presentation change; any label-independent heuristic must produce
      a makespan-equal schedule.  [Root_first] policies (FlatTree) serve
      [B] in label order, so the law is vacuous for them and skipped.
    - {b size monotonicity}: replaying the {e same} transmission order on
      an instance whose matrices pointwise dominate the original cannot
      finish earlier.  Stated over a replay — not a re-schedule, because a
      greedy heuristic is not provably monotone under re-selection — this
      is a theorem, and the dominance precondition itself checks that the
      pLogP gap model is monotone in the message size.
    - {b transport equivalence}: with an empty fault spec, all three
      reliable transports must be bit-identical to the unreliable
      executor — same arrivals, makespan and transmission count, zero
      retransmissions.
    - {b timer elision}: a reliable run without a fault model, whose ACKs
      may be settled unqueued, equals the same run under an empty one.
    - {b dynamics identity}: attaching a {!Gridb_des.Dynamics} model whose
      spec is {!Gridb_des.Dynamics.none} — with a live observation tick —
      must leave a reliable run bit-identical to the same run without a
      model, faults and all.
    - {b fault locality}: loss draws on links a plan never uses leave a
      fixed-transport run under the same fault model unchanged.
    - {b segmented chain}: a chain plan over one homogeneous cluster,
      replayed by the DES with [S] segments, must finish when the closed
      form {!Gridb_collectives.Pipeline.chain_time} says — both cut the
      message by the same segment rule. *)

open Gridb_sched

val scale_instance : float -> Instance.t -> Instance.t
(** Every latency, gap and intra entry multiplied by the factor. *)

val permute_instance : int array -> Instance.t -> Instance.t
(** [permute_instance perm inst] relabels cluster [i] as [perm.(i)]
    (root included).  @raise Invalid_argument if [perm] is not a
    permutation of [0 .. n-1]. *)

val scaling : ?c:float -> Policy.t -> Instance.t -> Invariant.outcome
(** ["scaling"].  [c] defaults to [2.]; use powers of two to keep the law
    exact.  @raise Invalid_argument if [c <= 0]. *)

val relabeling : perm:int array -> Policy.t -> Instance.t -> Invariant.outcome
(** ["relabeling"].  Vacuously [Ok] for policies that resolve to
    [Root_first]. *)

val replay_size_monotonicity :
  Policy.t -> small:Instance.t -> large:Instance.t -> Invariant.outcome
(** ["size-dominance"] then ["size-monotonicity"]: checks [large]
    pointwise dominates [small] (same [n] and root), schedules [small],
    replays its transmission order on [large] and requires the replayed
    makespan to be no smaller. *)

val transport_equivalence :
  ?msg:int -> ?seed:int -> Gridb_topology.Machines.t -> Gridb_des.Plan.t ->
  Invariant.outcome
(** ["transport-equivalence"]: {!Gridb_des.Session.run_reliable} under each
    of fixed / adaptive / adaptive+reroute, with no faults, against
    {!Gridb_des.Session.run} — arrivals, makespan and transmission counts
    must be {e exactly} equal and no retransmission may fire.  [msg]
    defaults to 1 MB, [seed] to 0. *)

type view
(** A reliable result with its estimator read on every link. *)

val comparable : Gridb_des.Session.reliable -> view
(** Every field of the result but the estimator, and the estimator's
    SRTT, RTTVAR, sample count and breaker state on every link.  Compare
    views with [compare], not [=]: an undelivered rank's arrival is NaN. *)

val timer_elision :
  ?msg:int -> ?seed:int -> Gridb_topology.Machines.t -> Gridb_des.Plan.t ->
  Invariant.outcome
(** ["timer-elision"]: {!Gridb_des.Session.run_reliable} with
    [faults = None] against the same run under an empty fault model, both
    with a memory sink, so neither settles an ACK unqueued: equal results
    (estimators read on every link) and byte-identical JSONL streams,
    under fixed, adaptive, adaptive+reroute, and adaptive with a 1 us RTO
    (whose timers fire).  [msg] defaults to 1 MB, [seed] to 0. *)

val ack_elision :
  ?msg:int -> ?seed:int -> Gridb_topology.Machines.t -> Gridb_des.Plan.t ->
  Invariant.outcome
(** ["ack-elision"]: {!Gridb_des.Session.run_reliable} without a sink
    (every session settles the ACK of a first delivery that lands before
    its timer unqueued, a fault-free fixed one also a leaf's delivery at
    the send; unarmed timers have no handle)
    against the same run with a memory sink: equal in every result field,
    horizon included, in what the estimators read on every link and in the
    number of estimator ticks.  Each of fixed, adaptive, adaptive+reroute
    and adaptive with a 1 us RTO (whose first tries time out before their
    ACKs land) runs with no model, under a lossy, cutting, crashing and
    degrading fault model, and under a dynamics model with drift, leaves,
    joins and ticks.
    [msg] defaults to 1 MB, [seed] to 0. *)

val dynamics_identity :
  ?msg:int ->
  ?seed:int ->
  ?fault_seed:int ->
  ?transport:Gridb_des.Session.transport ->
  ?spec:Gridb_des.Faults.spec ->
  Gridb_topology.Machines.t ->
  Gridb_des.Plan.t ->
  Invariant.outcome
(** ["dynamics-identity"]: {!Gridb_des.Session.run_reliable} with a
    zero-dynamics {!Gridb_des.Dynamics} model attached (and an [on_tick]
    observation hook firing every 50 ms) against the same run without one:
    every field of the result, the estimator read on every link, must be {e exactly} equal
    (nan-aware), so the model reports no churn either.  [spec] (default no faults) and [transport]
    (default fixed) select the baseline being perturbed; [fault_seed]
    defaults to [seed]. *)

val fault_locality :
  ?msg:int -> ?seed:int -> ?fault_seed:int -> spec:Gridb_des.Faults.spec ->
  Gridb_topology.Machines.t -> Gridb_des.Plan.t -> Invariant.outcome
(** ["fault-locality"]: a [Fixed]-transport {!Gridb_des.Session.run_reliable}
    under a fresh fault model equals, in every result field, the same run
    under a model that first drew {!Gridb_des.Faults.lose} [d] times on each
    link [a -> a + d] ([d = 1..4]) that is neither a plan edge nor its
    reverse.  [fault_seed] defaults to [seed]. *)

val session_reuse :
  ?msg:int -> ?seed:int -> Gridb_topology.Machines.t -> Gridb_des.Plan.t list ->
  Invariant.outcome
(** ["session-reuse"]: a stream of eight reliable sessions launched on a
    wire and engine that first ran another such stream to quiescence,
    then ran up to the clock [t] the second stream starts at, equals the
    same stream launched at [t] on a fresh wire and engine: every result
    field, horizon included, and the estimators read on every link.  The
    sessions cycle through [plans] and through four cells: no model,
    faults (loss, degradation, crashes) on the fixed transport, faults on
    the adaptive rerouting transport with a reroute budget of 2, and
    dynamics with drift, leaves, joins and ticks on that transport.  The
    second stream's sessions take the first's protocol state from the
    wire, sizes differing where joins do, so a reset that state misses
    shows here.  The first stream loses more (0.5 against 0.3) and sends
    [msg / 2] bytes (2 for a 1-byte [msg]) where the grid gives finite
    gaps at that size, so the reroute counts and link tables it leaves
    behind must be reset too.  [msg] defaults to 1 MB, [seed] to 0.
    @raise Invalid_argument if [plans] is empty. *)

val segmented_chain :
  params:Gridb_plogp.Params.t -> size:int -> msg:int -> segments:int -> Invariant.outcome
(** ["segmented-chain"]: the chain [0 -> 1 -> ... -> size - 1] over one
    cluster of [size] ranks with intra-cluster [params], replayed by
    {!Gridb_des.Session.run}[ ~segments] under exact noise, must finish at
    {!Gridb_collectives.Pipeline.chain_time} within {!Invariant.feq}.
    @raise Invalid_argument if [size < 1] or [segments < 1]. *)

val metamorphic_names : string list
(** The invariant names the laws above can report. *)
