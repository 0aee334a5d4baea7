(** Portfolio scheduling: run several heuristics, keep the best schedule.

    Section 6 introduces the per-iteration "global minimum" as an analysis
    device; a real implementation can simply {e use} it — all heuristics are
    polynomial, so computing every schedule and keeping the cheapest costs
    only scheduling time (accounted for by {!Overhead} in the
    measured figures).  This is the strategy with the 100% hit rate by
    construction, and the natural upper baseline for the mixed strategy. *)

type choice = {
  heuristic : Policy.t;  (** the winning heuristic *)
  schedule : Schedule.t;
  makespan : float;
  evaluated : int;  (** number of heuristics tried *)
}

val run :
  ?model:Schedule.completion_model ->
  ?heuristics:Policy.t list ->
  Instance.t ->
  choice
(** Defaults to {!Policy.all}.  Ties keep the earliest heuristic in
    list order.  @raise Invalid_argument on an empty heuristic list. *)

val scheduling_evaluations : ?heuristics:Policy.t list -> int -> float
(** [scheduling_evaluations n]: total {!Overhead.evaluations} of running the
    whole portfolio on [n] clusters — the price of the 100% hit rate. *)
