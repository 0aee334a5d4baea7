(** Model of the scheduling cost a heuristic adds to [MPI_Bcast].

    Section 7 observes that "the algorithm complexity is a factor that must
    be considered when implementing more elaborate techniques like
    ECEF-LAT": before the first byte moves, the root runs the heuristic.
    The cost is modelled as (number of candidate evaluations) x (cost per
    evaluation); the counts are derived from the {!Policy} descriptor and
    match {!Engine.run_stats} in [`Naive] mode exactly (up to the first
    FlatTree round):

    - [Root_first] (FlatTree): n selections, O(n);
    - [Select_min] with no lookahead (FEF, ECEF) and [Max_reach]
      (BottomUp): sum over rounds of |A| * |B|, about n^3 / 6;
    - [Select_min] with a lookahead (the ECEF-LA family): adds
      sum over rounds of |B| * (|B| - 1) term evaluations, about n^3 / 3,
      for roughly n^3 / 2 in total. *)

val pair_scan_evaluations : int -> float
(** [sum over rounds r of r * (n - r)] — the full A x B scan. *)

val lookahead_evaluations : int -> float
(** [sum over rounds r of (n - r) * (n - r - 1)] — one [F_j] per receiver
    per round, each folding over [B \ {j}]. *)

val evaluations : n:int -> Policy.t -> float
(** Evaluation count for a policy descriptor; [Sized] policies are
    resolved against [n] first, so [Mixed<...>] is charged for the branch
    it actually runs. *)

val default_per_evaluation_us : float
(** 0.5 us per candidate evaluation — a conservative figure for the 2006-era
    hosts the paper used. *)

val cost_us : ?per_evaluation_us:float -> n:int -> Policy.t -> float
(** Scheduling delay (us) to charge before the root's first transmission. *)
