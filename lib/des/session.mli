(** The discrete-event executor: a broadcast plan replayed as a session
    on an {!Engine} and a {!Wire}.

    Semantics per transmission from [s] to [d] (pLogP parameters of the
    [s]-[d] link evaluated at the message size, each scaled by an
    independent noise factor): the send starts when [s] holds the message
    and its NIC is free; the NIC is busy for [g]; delivery happens [L]
    after the send starts injecting, i.e. at [start + g + L].  With
    [noise = Exact] a session reproduces the analytic predictions of
    {!Gridb_collectives.Cost} and {!Gridb_sched.Schedule} to floating point
    accuracy — an invariant the integration tests rely on.

    {!run} and {!run_reliable} replay one plan on a private wire and
    engine.  {!launch} and {!launch_reliable} seed a session onto a shared
    engine and wire instead, so {e several} broadcasts (mixed roots,
    message sizes, transports) run concurrently while contending for the
    same per-NIC occupancy state — the broadcast-service execution model.
    Lifecycle: [launch]/[launch_reliable] validate, seed the session's
    first event at [config.start_delay] and return a handle; the caller
    runs the engine (once, for all launched sessions) and then extracts
    each session's outcome with [result]/[reliable_result].
    [launch_reliable] allocates only what the outcome needs; the per-rank
    protocol state and the handlers are built when the first event fires,
    so sessions launched far ahead of their start hold little memory.

    Engine events: a session queues its start and each transmission's
    landing.  A reliable one also queues each ACK and each timer that can
    fire, except under [Noise.Exact] with no fault or dynamics model: a
    try whose ACK lands strictly before its deadline queues no timer (an
    {!Engine.unqueued_timer} on an engine with a sink), and a [Fixed]
    session with no sink on itself or its engine and no ticks settles such
    a try's ACK on delivery, leaving its landing time as the engine's
    {!Engine.unqueued_event} watermark; a first try to a planned leaf
    settles its delivery too, at the send.  Results and horizon are the
    same once the engine is quiescent, and only then complete: a leaf's
    arrival is stamped ahead of the engine clock.

    Observability: sessions publish their full event stream to the
    [config.obs] sink — [Send_start]/[Send_end]/[Arrival] (plus
    [Ack]/[Retransmit]/[Give_up]/[Reroute]/[Circuit_*] for reliable
    sessions).  With the default {!Gridb_obs.Sink.null} every emission
    site is a single always-false test: seeded runs are bit-identical with
    and without the instrumentation layer.  For a transmission log, pass a
    {!Gridb_obs.Sink.memory} sink and read it back with {!Gridb_obs.Trace.of_events}.
    When [sid] is given, every published event is wrapped in
    {!Gridb_obs.Event.Tagged}[ { sid; _ }] so multi-session streams can be
    attributed per request ({!Gridb_obs.Profile} rolls them up). *)

type transport =
  | Fixed  (** model-derived RTO, exponential backoff, no reroute *)
  | Adaptive of { config : Adaptive.config; reroute : bool }
      (** live Jacobson/Karn RTO + circuit breakers; with [reroute],
          orphaned children are re-parented onto delivered ranks *)

val adaptive : ?config:Adaptive.config -> ?reroute:bool -> unit -> transport
(** [Adaptive] with {!Adaptive.default} knobs; [reroute] defaults false. *)

val transport_of_string : string -> (transport, string) Stdlib.result
(** Parses ["fixed"], ["adaptive"], ["adaptive,reroute"] (or
    ["adaptive+reroute"]), case-insensitively; adaptive forms carry
    {!Adaptive.default}. *)

val transport_to_string : transport -> string
(** Left inverse of {!transport_of_string} for default configs. *)

type result = {
  arrival : float array;  (** per-rank delivery time; [start_delay] at the root *)
  makespan : float;  (** max arrival *)
  transmissions : int;  (** number of point-to-point sends executed *)
}

type reliable = {
  r_arrival : float array;
      (** per-rank {e first} delivery time; [nan] for ranks never reached *)
  r_makespan : float;  (** max arrival over delivered ranks *)
  r_transmissions : int;
      (** data transmissions injected, including retransmissions (ACKs are
          control-plane and not counted) *)
  retransmissions : int;  (** timeout-triggered re-sends *)
  acks : int;  (** ACK messages delivered *)
  delivered : int;  (** ranks holding the message at quiescence *)
  gave_up : (int * int) list;
      (** [(parent, child)] edges abandoned for good: retry budget exhausted
          (fixed/adaptive), or reroute budget exhausted (reroute) *)
  crashed : int list;  (** ranks that halted within the simulated horizon *)
  left : int list;
      (** ranks whose {!Dynamics} departure fired within the horizon; []
          without a dynamics model *)
  joined : int list;
      (** join ranks (ids >= the planning-time population) whose arrival
          fell within the horizon, ascending; [] without dynamics *)
  horizon : float;
      (** simulated time at quiescence, us.  For sessions sharing an
          engine, the engine clock when [reliable_result] is called —
          global quiescence, not per-session. *)
  reroutes : (int * int * int) list;
      (** [(dst, old_parent, new_parent)] re-parentings, chronological;
          [] unless the transport reroutes *)
  circuit_opens : int;  (** breaker open transitions (timeouts + blow-ups) *)
  estimator : Adaptive.t option;
      (** the live estimator after quiescence — [Some] for adaptive
          transports; feed {!Adaptive.estimated_params} to replanning *)
}

(** Everything a session needs besides topology and plan. *)
module Config : sig
  type t = {
    noise : Noise.t;  (** per-transmission parameter noise *)
    rng : Gridb_util.Rng.t option;
        (** random stream; [None] creates a fresh seed-0 stream {e per
            launch}.  [Some] shares the stream object between sessions
            launched with the same config — give each concurrent session
            its own split stream.  Required in practice when [noise] is not
            [Exact]. *)
    start_delay : float;
        (** simulated time of the session's first event (e.g. a scheduling
            overhead that postpones the root's first injection) *)
    msg : int;  (** message size, bytes *)
    obs : Gridb_obs.Sink.t;  (** observability sink *)
    faults : Faults.t option;  (** fault model; [None] = no faults *)
    dynamics : Dynamics.t option;  (** time-varying topology model *)
    on_tick : now:float -> Adaptive.t option -> unit;
        (** pure observation hook, see {!launch_reliable} *)
    tick_every : float;  (** tick period, us; 0. disables *)
    retries : int;  (** retransmissions before giving an edge up *)
    rto_mult : float;  (** initial RTO multiplier over the model round trip *)
    rto_min : float;  (** RTO floor, us *)
    rto_max : float;  (** backoff cap, us *)
    transport : transport;
  }

  val default : t
  (** Exact noise, fresh seed-0 rng, no start delay, 1 MB message, null
      sink, no faults/dynamics/ticks, 5 retries, rto_mult 2., rto_min 1.,
      rto_max 1e9, [Fixed] transport. *)

  val v :
    ?noise:Noise.t ->
    ?rng:Gridb_util.Rng.t ->
    ?start_delay:float ->
    ?msg:int ->
    ?obs:Gridb_obs.Sink.t ->
    ?faults:Faults.t ->
    ?dynamics:Dynamics.t ->
    ?on_tick:(now:float -> Adaptive.t option -> unit) ->
    ?tick_every:float ->
    ?retries:int ->
    ?rto_mult:float ->
    ?rto_min:float ->
    ?rto_max:float ->
    ?transport:transport ->
    unit ->
    t
  (** {!default} with the given fields overridden. *)

  val validate : who:string -> t -> Gridb_topology.Machines.t -> Plan.t -> unit
  (** Raise [Invalid_argument] with message prefix [who] on a
      plan/fault-model/dynamics-model size mismatch, negative [retries],
      [rto_mult < 1.], [rto_min <= 0.], [rto_max < rto_min], negative
      [tick_every], or a NaN in any of the four float knobs. *)
end

val run : ?segments:int -> Config.t -> Gridb_topology.Machines.t -> Plan.t -> result
(** [run config machines plan] broadcasts one [config.msg]-byte message
    along [plan] on a private wire and engine run to quiescence (the
    {!launch} semantics, [segments] included).  Only the
    [noise]/[rng]/[start_delay]/[msg]/[obs] fields of [config] apply.
    @raise Invalid_argument as {!launch} does. *)

val run_reliable : Config.t -> Gridb_topology.Machines.t -> Plan.t -> reliable
(** [run_reliable config machines plan] replays one reliable broadcast
    (the {!launch_reliable} semantics) on a private wire and engine run to
    quiescence.
    @raise Invalid_argument as {!launch_reliable} does. *)

val mean_makespan :
  ?noise:Noise.t ->
  ?msg:int ->
  ?repetitions:int ->
  ?jobs:int ->
  seed:int ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  float
(** Average {!run} makespan over independent noisy runs (default 10,
    [noise] defaults to {!Noise.default_measured}), the "measured" value
    reported by Figure 6.  Repetition [rep] runs on the indexed stream
    {!Gridb_util.Rng.split}[ (create seed) rep]: equal seeds give equal
    means, the repetitions' streams are pairwise independent (one run's
    draw count cannot shift another's draws), and the mean is
    bit-identical for every [jobs] setting ([jobs], default 1, fans
    repetitions out over a {!Gridb_util.Pool}).
    @raise Invalid_argument if [repetitions < 1]. *)

type reliable_summary = {
  reps : int;
  delivered_fraction : float;  (** mean delivered / n over repetitions *)
  mean_retransmissions : float;
  mean_reroutes : float;
  mean_makespan : float;  (** over delivered ranks, per repetition *)
  stddev_makespan : float;  (** population standard deviation *)
  total_gave_up : int;  (** abandoned edges summed over repetitions *)
  all_delivered : bool;  (** every repetition delivered all [n] ranks *)
}

val mean_reliable :
  ?noise:Noise.t ->
  ?msg:int ->
  ?repetitions:int ->
  ?retries:int ->
  ?rto_mult:float ->
  ?rto_min:float ->
  ?rto_max:float ->
  ?transport:transport ->
  ?jobs:int ->
  seed:int ->
  spec:Faults.spec ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  reliable_summary
(** {!run_reliable} aggregated over independent repetitions (default 10),
    mirroring {!mean_makespan}'s indexed-stream discipline: repetition
    [rep] runs entirely on {!Gridb_util.Rng.split}[ (create seed) rep],
    burning that stream's first raw draw for its fault seed.  Equal seeds
    give equal summaries, no repetition's draw count bleeds into
    another's, and the summary is bit-identical for every [jobs] setting
    ([jobs], default 1, fans repetitions out over a {!Gridb_util.Pool}).
    The faults are re-drawn per repetition from [spec].
    @raise Invalid_argument if [repetitions < 1] (plus everything
    {!run_reliable} raises). *)

type t
(** A launched best-effort (fault-free pLogP) session. *)

val launch :
  ?sid:int ->
  ?who:string ->
  ?segments:int ->
  wire:Wire.t ->
  engine:Engine.t ->
  Config.t ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  t
(** Seed one best-effort broadcast onto [engine]/[wire]: the root delivers
    to itself at [config.start_delay] and forwarding events cascade from
    there.  Only the [noise]/[rng]/[start_delay]/[msg]/[obs] fields of
    [config] apply; the reliability fields are ignored.  [who] (default
    ["Session.launch"]) prefixes error messages.

    [segments] (default 1) cuts the message for a store-and-forward
    pipeline along the same plan, by the one segment rule of
    {!Gridb_collectives.Pipeline}: {!Gridb_collectives.Pipeline.segment_count}
    segments (at most [msg], so a segment carries at least one byte) of
    {!Gridb_collectives.Pipeline.segment_size} bytes each, every send
    costing the link's gap at the segment size.  The root holds every
    segment at [start_delay] and sends them in segment order, each to all
    its children in plan order.  Any other rank forwards segment [k] to its
    children, in plan order, when [k] arrives, and always in segment
    order: a segment that lands ahead of an earlier one (noise can reorder
    them) waits for it.  A rank's [arrival] is the time its last segment
    lands; [transmissions] counts segment sends.  [segments = 1] is the
    unsegmented broadcast, bit for bit.

    A segmented session publishes one [Send_start]/[Send_end] pair per
    segment send ([msg] is the segment size) and one [Arrival] per segment
    delivered (the root's single self-arrival included).  The stream
    passes the stream invariants of [Gridb_check.Invariant] for NIC
    serialization, causality, no spontaneous delivery and gap conformance
    (at the segment size); receive-exactly-once holds only for
    [segments = 1], as every segment is a delivery of its own.
    @raise Invalid_argument on plan size mismatch, a wire smaller than the
    machine view, or [segments < 1]; while the engine runs, on a send
    whose gap is not finite and >= 0 (naming the link and size). *)

val result : t -> result
(** The session's outcome.  Call after [Engine.run] has reached
    quiescence; calling earlier gives a partial snapshot. *)

type reliable_t
(** A launched reliable session. *)

val launch_reliable :
  ?sid:int ->
  ?who:string ->
  wire:Wire.t ->
  engine:Engine.t ->
  Config.t ->
  Gridb_topology.Machines.t ->
  Plan.t ->
  reliable_t
(** Seed one reliable broadcast along [plan] onto [engine]/[wire].  The
    wire must cover the machine view {e plus} any dynamics join ranks
    ({!population}).  [who] (default ["Session.launch_reliable"]) prefixes
    error messages.

    Each plan edge runs stop-and-wait ACK/timeout/retransmission: the
    receiver ACKs every delivery on the control plane (reverse-link
    latency, no NIC seizure), the sender arms a cancellable timer [rto]
    after its injection ends and retransmits with doubled [rto] on every
    timeout — capped at [config.rto_max] us — up to [config.retries]
    retransmissions before abandoning the edge — partial delivery,
    reported via [gave_up].  The initial [rto] is [config.rto_mult] times
    the link's noiseless round trip [g + L + L_back], floored at
    [config.rto_min] us.

    [config.transport] selects the retransmission strategy.  Under
    [Adaptive], every clean round trip updates a per-link SRTT/RTTVAR
    estimator ({!Adaptive}, Karn's rule included) that replaces the
    model-derived initial RTO once samples exist, and per-link circuit
    breakers publish [Circuit_open]/[Circuit_close] to the sink.  With
    [reroute] also set, an edge whose breaker opens or whose retry budget
    dies orphans its child instead of abandoning it: the child is
    re-parented onto the already-delivered alive rank with the best ECEF
    arrival score over live-estimated parameters ([Reroute] events),
    parked and retried on the next delivery if no candidate exists yet,
    and only reported in [gave_up] once its per-destination reroute budget
    ({!Adaptive.config.max_reroutes}; 0 derives [2 * ranks]) is spent — so
    delivery is total unless the destination crashed or is physically
    partitioned from the delivered set.

    Fault semantics ([config.faults]): losses and permanent cuts are
    evaluated at injection start; a transmission to a rank that halts
    before its arrival vanishes; a halted sender stops (re)transmitting
    and forwarding.  Degradation episodes multiply both gap and latency of
    transmissions injected while they are active.

    [config.dynamics] adds time-varying topology on top.
    {!Dynamics.factor} multiplies gap and latency of every transmission
    (the fault slowdown composes with it); a rank {e halts} at the earlier
    of its fault-model crash and its dynamics departure ([left] reports
    the latter); join ranks extend the rank space ([r_arrival] has one
    slot per join above the planning-time population) and are adopted
    through the reroute machinery when their arrival falls inside the
    simulated horizon — a join under a non-rerouting transport exists but
    is unreachable (the static plan predates it), and joins arriving after
    quiescence never happened.  Join links are fresh: loss-free,
    cut-free, undrifted, carrying the cluster's nominal parameters.

    [config.on_tick] (with [config.tick_every] > 0, us) is a pure
    observation hook: it receives the live estimator (if any) at the first
    protocol event at or past each tick boundary — the online
    re-clustering loop of {!Gridb_experiments}.  It runs between protocol
    events and must not mutate session state.

    With no faults (or an empty fault spec, {!Faults.is_none}) and the
    same [noise], [rng] and [start_delay], the data path is
    {e bit-identical} to {!launch} {e for every transport}: same arrivals,
    same makespan, same transmission count — the estimator draws no
    randomness and every timer is cancelled by its ACK before firing.  The
    identity extends to [dynamics] models built from {!Dynamics.is_none}
    specs: their factor is exactly [1.] (an exact float multiply), they
    halt and join nobody, and tick callbacks never touch the data path.
    The property tests pin this zero-fault identity down.
    @raise Invalid_argument on everything {!Config.validate} checks, or a
    wire smaller than the session's rank population; while the engine
    runs, on a link whose gap is not finite and >= 0 (naming the link and
    size). *)

val reliable_result : reliable_t -> reliable
(** The session's outcome; complete only once [Engine.run] has returned. *)

val population : Config.t -> Gridb_topology.Machines.t -> int
(** Rank population of a session under [config]: machine count plus the
    dynamics model's join ranks.  The minimum wire size for
    [launch_reliable]. *)
