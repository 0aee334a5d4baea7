(** Shared machinery for the simulation figures (1-4): sweep the number of
    clusters, drawing [Config.iterations] random Table 2 instances per
    point and scoring a set of heuristics on the {e same} draws. *)

type point = {
  n : int;  (** number of clusters *)
  outcomes : Gridb_sched.Hit_rate.outcome list;  (** one per heuristic, in order *)
}

val run :
  Config.t -> ns:int list -> Gridb_sched.Policy.t list -> point list
(** Point [i] uses the RNG stream [Config.point_rng ~point:i], so the same
    config yields identical draws regardless of which heuristics are
    scored — Figures 2, 3 and 4 therefore see the same instances. *)

val mean_seconds : point -> float list
(** Mean makespans of the point's outcomes, converted to seconds (the
    paper's y axis). *)

val hits : point -> float list
(** Hit counts of the point's outcomes (Figure 4's y axis). *)

val max_stderr_seconds : point list -> float
(** Largest standard error of any plotted mean, in seconds — quoted in the
    figures' notes so readers can judge whether curve gaps are signal. *)
