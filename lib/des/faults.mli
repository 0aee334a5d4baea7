(** Seeded, reproducible fault processes for the DES.

    The paper's grids are heterogeneous {e and} flaky; this module supplies
    the flakiness.  A {!spec} describes four independent fault processes:

    - {b message loss} — each transmission on a directed link is lost with
      probability [loss] (the sender still pays the gap);
    - {b transient degradation} — per-link degradation episodes arrive as a
      Poisson process of rate [degrade_rate] (per us) with exponentially
      distributed durations of mean [degrade_mean]; a transmission injected
      during an episode has its gap and latency multiplied by
      [degrade_factor];
    - {b permanent link cuts} — a directed link dies forever at a time drawn
      from [Exp(cut_rate)]; transmissions injected after the cut vanish;
    - {b crash-stop node failures} — rank [i] halts at a time drawn from
      [Exp(crash_rate)]; it stops sending, and messages delivered to it
      after the crash are discarded (no ACK, no forwarding).

    All randomness comes from one SplitMix64 master stream: crash and cut
    times are drawn at {!create} time, and each directed link's loss and
    degradation streams are seeded by fixed master outputs; a link keeps
    only a loss draw count ({!Gridb_util.Rng.unit_float_at} reads the next
    draw) and its episodes.  Fault draws are reproducible at a fixed seed
    {e and} independent of the order in which the executor queries
    different links — a retransmission on one link never perturbs the
    draws of another. *)

type spec = {
  loss : float;  (** per-transmission loss probability, in [0, 1) *)
  cut_rate : float;  (** permanent-cut arrival rate per directed link, 1/us *)
  degrade_rate : float;  (** degradation episode arrival rate per link, 1/us *)
  degrade_mean : float;  (** mean episode duration, us *)
  degrade_factor : float;  (** gap/latency multiplier during an episode, >= 1 *)
  crash_rate : float;  (** crash-stop arrival rate per rank, 1/us *)
}

val none : spec
(** All processes disabled: [loss = 0.], all rates [0.]. *)

val v :
  ?loss:float ->
  ?cut_rate:float ->
  ?degrade_rate:float ->
  ?degrade_mean:float ->
  ?degrade_factor:float ->
  ?crash_rate:float ->
  unit ->
  spec
(** Build a validated spec; omitted fields default to {!none}'s values
    (except [degrade_mean], default 1e6 us, and [degrade_factor], default
    3.).  @raise Invalid_argument on a NaN or infinite field, [loss]
    outside [0, 1), negative rates, non-positive [degrade_mean] or
    [degrade_factor < 1.]. *)

val is_none : spec -> bool
(** True iff no fault process is active (an empty fault spec). *)

val of_string : string -> (spec, string) result
(** Parse a CLI spec: comma-separated [key=value] pairs with keys [loss],
    [cut], [crash], [degrade] (episode rate), [degrade-mean],
    [degrade-factor].  [""] and ["none"] parse to {!none}.
    Example: ["loss=0.05,crash=2e-8,degrade=1e-7,degrade-factor=4"].
    Every value must be a finite number ({!Gridb_util.Kv_spec}).
    Errors name the offending key as typed: unknown keys list the known
    ones, non-numbers and NaN/infinities quote the value, and out-of-range
    values state the accepted range (e.g.
    ["loss: outside [0, 1) (got 1.5)"]). *)

val to_string : spec -> string
(** Inverse of {!of_string}: the non-default fields, each printed exactly
    (as [%g] prints it when that is exact); ["none"] for {!none}. *)

type t
(** An instantiated fault model over [n] ranks. *)

val create : ?seed:int -> ?t0:float -> n:int -> spec -> t
(** Pre-draws crash and cut times (default seed 0); a queried link keeps a
    loss draw count and its degradation episodes, seeded as if every link's
    streams had been drawn here in link order.  With {!is_none} specs
    no randomness is consumed at all.

    [t0] (default [0.]) is the model's time origin: crash times, cut times
    and the degradation-episode timeline are offsets from it.  A session
    launched mid-simulation (a broadcast-service request or retry) passes
    its own start time so faults unfold from {e its} start rather than the
    simulation's epoch; the drawn offsets are [t0]-independent, so
    shifting the origin never changes the random stream.
    @raise Invalid_argument if [n < 1] or [t0] is not finite. *)

val spec : t -> spec
val size : t -> int

val crash_time : t -> int -> float
(** When rank [i] halts; [infinity] if never. *)

val crash_times : t -> float array
(** {!crash_time} of every rank, in a fresh array of {!size} entries. *)

val crashed : t -> int -> at:float -> bool

val cut_time : t -> src:int -> dst:int -> float
(** When the directed link dies; [infinity] if never. *)

val link_up : t -> src:int -> dst:int -> at:float -> bool

val lose : t -> src:int -> dst:int -> bool
(** One Bernoulli loss draw on the link's private stream.  Always [false]
    (and draw-free) when [loss = 0.]. *)

val slowdown : t -> src:int -> dst:int -> at:float -> float
(** Multiplicative gap/latency factor for a transmission injected at [at]:
    [degrade_factor] inside a degradation episode, [1.] outside. *)
