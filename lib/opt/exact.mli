(** Certified-optimal broadcast schedules by pruned branch-and-bound.

    The search space is the paper's Section 3 schedule space — every
    non-root cluster receives exactly once, senders are gap-serialised,
    intra-cluster broadcast after the last send — explored as a DFS over
    delivered-set states [(A, avail)].  Three prunings keep n <= ~12
    tractable where plain exhaustive search stops at 8:

    - {b incumbent}: the best of the seven paper heuristics seeds the
      upper bound, so the search only ever proves or improves it;
    - {b bound}: a per-state analytic lower bound (busy clusters must
      still run [T_k]; every unreached cluster needs a final hop that no
      event can start before the earliest sender, optionally through a
      one-step relay; the sender population at most doubles per minimum
      gap) cuts any state that cannot beat the incumbent;
    - {b dominance}: states are memoised by delivered-set bitmask; a
      state whose [avail] vector is pointwise >= one already fully
      explored at the same mask is discarded.  This is sound because DFS
      finishes every same-depth sibling's subtree before the next starts
      and the incumbent only ever decreases, so the dominated state can
      prove nothing the dominating one did not.

    Timing arithmetic matches {!Gridb_sched.State.send} operation for
    operation ([(avail + g) + L]), and the certified schedule is replayed
    through {!Gridb_sched.State} — so its makespan, its event list and
    every schedule invariant agree exactly with the rest of the system,
    and it executes unchanged on the DES. *)

type stats = {
  expanded : int;  (** states branched on *)
  pruned_bound : int;  (** states cut by the analytic lower bound *)
  pruned_dominated : int;  (** states cut by the dominance memo *)
  improved : int;
      (** incumbent updates after the heuristic seed (0 when the best
          heuristic was already optimal) *)
}

type certificate = {
  makespan : float;  (** the certified optimal [After_sends] makespan *)
  schedule : Gridb_sched.Schedule.t;  (** an optimal schedule attaining it *)
  lower_bound : float;  (** {!Gridb_sched.Bounds.combined} at the root *)
  incumbent : string;  (** name of the heuristic that seeded the search *)
  incumbent_makespan : float;  (** its makespan (>= [makespan]) *)
  optimal_by_heuristic : bool;
      (** the seed heuristic was already optimal ([improved = 0]) *)
  stats : stats;
}

val default_max_clusters : int
(** 12. *)

val solve : Gridb_sched.Instance.t -> certificate
(** @raise Invalid_argument above {!default_max_clusters} clusters. *)

val makespan : Gridb_sched.Instance.t -> float
(** [(solve inst).makespan]. *)

val schedule : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t
(** [(solve inst).schedule]. *)
