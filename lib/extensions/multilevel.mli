(** Multilevel (Karonis-style, Table 1) hierarchical broadcast.

    The related-work section describes MPICH-G2's multilevel hierarchy: WAN
    links between sites (level 0), LAN links between clusters of one site
    (level 1), fast local networks inside clusters (level 2+).  This module
    composes the paper's heuristics at {e two} inter-cluster levels: one
    schedule among site representatives over WAN links, then one schedule
    per site among its clusters over LAN links, then intra-cluster trees —
    overlapping communication between levels exactly as Karonis proposes.

    The resulting rank-level {!Gridb_des.Plan.t} is directly comparable (via
    {!Gridb_des.Session.run}) with the single-level hierarchical plans, which is
    what the multilevel ablation bench reports. *)

val representatives : site_of_cluster:(int -> int) -> n_clusters:int -> root:int -> int array
(** One representative cluster per site: the root's cluster for its site,
    the lowest-numbered cluster elsewhere.  Result is indexed by site id;
    site ids must be dense in [0 .. n_sites - 1].
    @raise Invalid_argument on an empty grid or out-of-range mapping. *)

val plan :
  ?site_heuristic:Gridb_sched.Policy.t ->
  ?cluster_heuristic:Gridb_sched.Policy.t ->
  ?shape:Gridb_collectives.Tree.shape ->
  site_of_cluster:(int -> int) ->
  root:int ->
  msg:int ->
  Gridb_topology.Machines.t ->
  Gridb_des.Plan.t
(** Three-level plan rooted at cluster [root]'s coordinator.  Defaults:
    ECEF-LA at the site level, ECEF at the cluster level, binomial intra
    trees.  The site-level instance uses, as each representative's
    intra time [T], the predicted completion of its whole site (its own
    cluster-level schedule makespan), so the WAN schedule is "site-aware"
    in the same way the paper's heuristics are cluster-aware. *)

val flat_sites_plan :
  ?shape:Gridb_collectives.Tree.shape ->
  site_of_cluster:(int -> int) ->
  root:int ->
  msg:int ->
  Gridb_topology.Machines.t ->
  Gridb_des.Plan.t
(** Baseline: flat tree among site representatives, flat trees inside each
    site (the ECO / MagPIe strategy lifted to three levels). *)
