(** Exhaustive search for the optimal schedule: the test oracle for
    {!Gridb_opt.Exact} (small instances only).

    It explores the paper's schedule space (every cluster receives exactly
    once; senders are gap-serialised; intra broadcast after the last send)
    by depth-first search with one simple lower bound and none of
    [Exact]'s incumbent seeding or dominance pruning.  The
    number of schedules is [prod_{k=1}^{n-1} k * (n - k)]; n = 8 is about
    2.5 x 10^7 leaves and is the ceiling. *)

val makespan : Gridb_sched.Instance.t -> float
(** Optimal makespan.  @raise Invalid_argument above 8 clusters. *)

val schedule : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t
(** An optimal schedule (deterministic: first optimum in lexicographic
    order of choices). *)

val schedule_count : int -> int
(** [schedule_count n]: number of leaves explored by brute force for [n]
    clusters, [prod k*(n-k)]. *)
