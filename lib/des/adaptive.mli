(** Adaptive transport state: per-link RTT estimation (Jacobson/Karn) and
    circuit breakers, feeding measured numbers back into the executor.

    The paper computes schedules from static pLogP parameters; GRID5000-class
    grids drift, degrade and die mid-broadcast.  This module is the runtime
    half of the feedback loop: the reliable executor reports every
    acknowledged round trip and every timeout here, and reads back

    - a {e live} retransmission timeout per link — SRTT/RTTVAR smoothing
      with Karn's rule (samples whose edge saw a retransmission are
      ambiguous and never enter the estimator), clamped to
      [[rto_min, rto_max]];
    - a per-link {e circuit breaker} — closed until [breaker_threshold]
      consecutive timeouts or a single RTT blow-up opens it, half-open
      after a cooldown (one probe allowed), closed again on success;
    - an {e estimated} pLogP view — the observed SRTT over the nominal
      round trip gives a multiplicative quality factor that rescales the
      nominal {!Gridb_plogp.Params.t}, so schedule repair and the policies
      can replan on measured rather than nominal numbers.

    The estimator is pure bookkeeping: it consumes no randomness and never
    perturbs the data path, which is what keeps a zero-fault adaptive
    {!Session.run_reliable} bit-identical to {!Session.run}. *)

type config = {
  alpha : float;  (** SRTT gain (Jacobson), default 1/8 *)
  beta : float;  (** RTTVAR gain, default 1/4 *)
  var_mult : float;  (** RTO = SRTT + [var_mult] * RTTVAR, default 4 *)
  rto_min : float;  (** RTO floor, us; default 1 *)
  rto_max : float;  (** RTO cap, us (also caps backoff); default 1e9 *)
  breaker_threshold : int;
      (** consecutive timeouts that open a closed circuit; default 3 *)
  blowup_factor : float;
      (** a valid sample > [blowup_factor] * SRTT opens the circuit
          immediately; default 8 *)
  cooldown_mult : float;
      (** an open circuit half-opens [cooldown_mult] * current RTO after
          opening; default 4 *)
  max_reroutes : int;
      (** per-destination reroute budget for the executor; 0 = derive
          [2 * ranks] at run time; default 0 *)
}

val default : config

val v :
  ?alpha:float ->
  ?beta:float ->
  ?var_mult:float ->
  ?rto_min:float ->
  ?rto_max:float ->
  ?breaker_threshold:int ->
  ?blowup_factor:float ->
  ?cooldown_mult:float ->
  ?max_reroutes:int ->
  unit ->
  config
(** Validated constructor; omitted fields take {!default}'s values.
    @raise Invalid_argument on [alpha]/[beta] outside (0, 1], non-positive
    [var_mult]/[rto_min]/[cooldown_mult], [rto_max < rto_min],
    [breaker_threshold < 1], [blowup_factor <= 1.] or negative
    [max_reroutes]. *)

type t
(** Estimator + breaker state over [n] ranks, per directed link.  Only
    links that {!rto}, {!on_sample}, {!on_timeout} or a {!usable}
    transition has written are stored, so memory follows the links a
    session crosses, not [n * n]; every read of an untouched link answers
    with the defaults without storing it. *)

val create : ?config:config -> n:int -> unit -> t
(** @raise Invalid_argument if [n < 1] (the config is re-validated). *)

val config : t -> config
val size : t -> int

(** {2 Estimator} *)

val rto : t -> src:int -> dst:int -> nominal:float -> fallback:float -> float
(** Current retransmission timeout for the link: [SRTT + var_mult * RTTVAR]
    once a sample exists, the model-derived [fallback] before that; always
    clamped to [[rto_min, rto_max]].  [nominal] is the link's {e un-inflated}
    model round trip — gap + latency + ACK latency, with no RTO multiplier
    or floor folded in — and the first call latches it as the denominator
    of {!quality} (SRTT converges to the raw round trip, so an inflated
    nominal would make healthy links read faster than the model).  The
    first [fallback] is latched separately as the breaker's cooldown base
    for links without samples.  Later values of either are ignored. *)

val on_sample :
  t ->
  src:int ->
  dst:int ->
  rtt:float ->
  retransmitted:bool ->
  now:float ->
  [ `No_change | `Opened | `Closed ]
(** Report one acknowledged round trip observed at [now].  Karn's rule:
    when [retransmitted] is true (the edge retransmitted since its last
    clean sample, so the ACK is ambiguous) the sample never enters
    SRTT/RTTVAR — but the success still resets the breaker's strike count
    and closes a non-closed circuit.  A valid sample exceeding
    [blowup_factor * SRTT] opens the circuit instead (cooldown from
    [now]).  The result reports the breaker transition this sample caused —
    [`Opened] (blow-up from closed/half-open), [`Closed] (success while
    open/half-open) or [`No_change] — so the caller can publish
    [Circuit_open]/[Circuit_close].  @raise Invalid_argument on
    out-of-range ranks or [rtt < 0.]. *)

val on_timeout : t -> src:int -> dst:int -> now:float -> bool
(** Report one retransmission timeout.  Increments the consecutive-strike
    counter; returns [true] iff this strike opened a closed circuit (the
    caller publishes [Circuit_open]).  An open or half-open circuit stays
    open (the cooldown restarts). *)

val usable : t -> src:int -> dst:int -> now:float -> bool
(** Breaker gate: [true] for a closed circuit, and for an open one whose
    cooldown elapsed — which transitions it to half-open (the probe the
    caller is about to send).  [false] while the cooldown is running.
    Half-open links answer [true] (the probe is in flight). *)

val usable_now : t -> src:int -> dst:int -> now:float -> bool
(** Pure variant of {!usable}: same answer, but an elapsed cooldown is only
    observed, never applied — the circuit stays open until {!usable}
    transitions it.  Use this to score candidate links without half-opening
    breakers of links no probe will actually cross. *)

val circuit : t -> src:int -> dst:int -> [ `Closed | `Open | `Half_open ]
(** Current breaker state (no transition; cooldown expiry is only applied
    by {!usable}). *)

(** {2 Estimated parameters} *)

val srtt : t -> src:int -> dst:int -> float option
val rttvar : t -> src:int -> dst:int -> float option
val samples : t -> src:int -> dst:int -> int
(** Valid (Karn-accepted) samples folded into the link's estimator. *)

val quality : t -> src:int -> dst:int -> float
(** Multiplicative drift of the link: [SRTT / nominal round trip], 1. until
    a valid sample exists.  > 1 means the link is slower than the model
    says. *)

val estimated_params : t -> src:int -> dst:int -> Gridb_plogp.Params.t -> Gridb_plogp.Params.t
(** [estimated_params t ~src ~dst nominal] rescales the nominal parameter
    set by {!quality} (gap and latency alike) — a
    {!Gridb_plogp.Params.t}-shaped view of the live estimate that
    {!Gridb_sched.Repair} and the policies can replan on. *)

val estimated_latency_matrix :
  ?symmetric:bool -> t -> nominal:(src:int -> dst:int -> float) -> float array array
(** Full [n x n] estimated latency matrix: entry [(i, j)] is
    {!quality}[ ~src:i ~dst:j] times [nominal ~src:i ~dst:j] (zero on the
    diagonal) — entry-by-entry equal to the per-link {!estimated_params}
    latencies.  With [symmetric] (default [false]) off-diagonal entries
    take the {e max} of the two directions, the conservative symmetric
    view {!Gridb_clustering.Lowekamp.detect} consumes directly: the slower
    direction decides whether a pair still looks homogeneous. *)
