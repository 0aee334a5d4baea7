(** The library-level MPI_Bcast of the modified MagPIe (Section 7).

    A strategy selects how the rank-level broadcast plan is built; the plan
    is then executed on the discrete-event simulator (the simulated
    testbed).  Scheduled strategies compute against the {e measured}
    parameters in {!Tuning.t} but execute against the ground-truth topology
    — the prediction error of Figure 5 vs Figure 6 is precisely this gap
    plus runtime noise. *)

type strategy =
  | Binomial_world  (** grid-unaware binomial over all ranks ("Default LAM") *)
  | Flat_two_level  (** ECO / MagPIe: flat inter-cluster, binomial inside *)
  | Scheduled of Gridb_sched.Policy.t
      (** hierarchical with the given inter-cluster heuristic *)
  | Adaptive of Gridb_sched.Policy.t list
      (** portfolio over the measured parameters: predict every candidate,
          run the winner (the paper's mixed-strategy suggestion, taken to
          its limit).  @raise Invalid_argument on an empty list at use. *)

val strategy_name : strategy -> string

val plan : Tuning.t -> strategy -> root:int -> msg:int -> Gridb_des.Plan.t
(** Rank-level plan for broadcasting [msg] bytes from cluster [root]'s
    coordinator. *)

val predict : Tuning.t -> strategy -> root:int -> msg:int -> float
(** Completion time (us) under the {e measured} parameters: what the
    library believes before sending a byte.  For [Binomial_world] the
    prediction executes the plan on the measured grid's machine view. *)

val execute :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  ?charge_overhead:bool ->
  ?obs:Gridb_obs.Sink.t ->
  Tuning.t ->
  strategy ->
  root:int ->
  msg:int ->
  Gridb_des.Session.result
(** Run on the ground-truth topology.  [charge_overhead] (default [true])
    delays the root by the strategy's scheduling cost
    ({!Gridb_sched.Overhead}; the full portfolio cost for [Adaptive], zero
    on a schedule-cache hit).

    [obs] defaults to the tuning context's sink ({!Tuning.obs}), so one
    sink passed to {!Tuning.create} observes the whole pipeline:
    [Cache_hit]/[Cache_miss] during planning, [Strategy_selected] for
    [Adaptive] picks, and the executor's transmission events. *)
