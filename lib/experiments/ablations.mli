(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's figures: they vary one ingredient at a time
    and report its effect, using the same draw streams as the main figures
    where applicable. *)

val lookahead_sweep : Config.t -> Report.figure
(** Every lookahead function of {!Gridb_sched.Lookahead.all} plugged into
    the ECEF driver (mean makespan vs cluster count) — including Bhat's
    suggested average-based alternatives the paper mentions but does not
    evaluate. *)

val fef_edge_weight : Config.t -> Report.figure
(** FEF selecting by pure latency (the paper's reading) vs by [g + L]
    (transmission time): quantifies how much of FEF's weakness is the edge
    metric rather than the greediness. *)

val intra_shape : Config.t -> Report.figure
(** Intra-cluster tree shape feeding [T_k] (binomial / flat / chain /
    binary / 4-ary): predicted ECEF-LAT broadcast time on the GRID5000
    topology per shape. *)

val mixed_strategy : Config.t -> Report.figure
(** Hit counts of the Section 6 mixed strategy against its two components
    across grid sizes. *)

val completion_models : Config.t -> Report.figure
(** Mean makespan of ECEF and ECEF-LAT under both completion models —
    the modelling ambiguity analysed in EXPERIMENTS.md. *)

val scatter_orders : unit -> Report.figure
(** Future-work scatter: makespan of the four send orders (index, FEF,
    Jackson LDF, brute-force optimal) on the GRID5000 topology across
    message sizes. *)

val multilevel_gain : Config.t -> Report.figure
(** Karonis-style three-level plan vs single-level ECEF-LA vs flat trees on
    a random multilevel topology (DES-executed makespans vs message
    size). *)

val alltoall_aggregation : unit -> Report.figure
(** Hierarchical (cluster-aggregated) alltoall vs direct machine-level
    alltoall on GRID5000 across per-pair sizes, plus blocking vs
    nonblocking simMPI executions of the exchange phase. *)

val optimality_gap : Config.t -> Report.figure
(** Mean heuristic/optimal makespan ratio on instances small enough for the
    brute-force optimum (3-7 clusters) — the yardstick the paper says is
    too expensive and replaces with the "global minimum". *)

val bound_gap : Config.t -> Report.figure
(** Mean heuristic/lower-bound ratio ({!Gridb_sched.Bounds.combined}) up to
    50 clusters: an absolute quality measure that scales where brute force
    cannot. *)

val heterogeneity_sensitivity : Config.t -> Report.figure
(** Varies the upper end of the intra-cluster time range [T] (Table 2 uses
    3000 ms) at a fixed 30-cluster grid: when T dominates, the grid-aware
    heuristics' advantage appears; when T is negligible the classical ones
    suffice — the core hypothesis of Section 5. *)

val root_rotation : unit -> Report.figure
(** Makespan per broadcast root on the GRID5000 topology.  The paper notes
    the flat tree "depends on how the clusters list is arranged with respect
    to the root"; the grid-aware schedules are far less root-sensitive. *)

val local_search : Config.t -> Report.figure
(** Mean makespan reduction obtained by {!Gridb_sched.Refine.improve} on
    top of each heuristic (Bhat's iterative-improvement phase). *)

val metaheuristics : Config.t -> Report.figure
(** Hill climbing ({!Gridb_sched.Refine.improve}), simulated annealing
    ({!Gridb_sched.Refine.anneal}) and the genetic search of the related
    work [18] ({!Gridb_sched.Genetic}) as improvers over the best greedy
    heuristic: mean makespan relative to the greedy portfolio winner. *)

val application_payoff : unit -> Report.figure
(** End-to-end payoff inside an application: total runtime of a 10-iteration
    bulk-synchronous solver (broadcast + compute + allreduce per iteration,
    {!Gridb_mpi.Apps}) on the GRID5000 grid, with the broadcast implemented
    by the default binomial vs the ECEF-LA hierarchical plan. *)

val hierarchy_vs_flat : unit -> Report.figure
(** The paper's Section 1-2 argument quantified: schedule the 88-machine
    grid once hierarchically (6 clusters, the paper's approach) and once at
    machine level (every process a node, Bhat's original setting) with the
    same heuristic; compare delivered makespan and scheduling cost.  The
    hierarchical decomposition gives up little quality for ~3 orders of
    magnitude less scheduling work. *)

val tuned_intra : unit -> Report.figure
(** Auto-tuned intra-cluster broadcast ({!Gridb_collectives.Tuned}) vs the
    fixed binomial tree feeding [T_k]: predicted ECEF-LAT times on
    GRID5000 with both models, plus the per-cluster tuning decisions in
    the notes. *)

val segmented_broadcast : unit -> Report.figure
(** Segmented hierarchical broadcast, replayed by
    {!Gridb_des.Session.run}[ ~segments]: simulated makespan vs segment
    count for several message sizes on the GRID5000 ECEF-LA plan. *)

val all : Config.t -> Report.figure list
