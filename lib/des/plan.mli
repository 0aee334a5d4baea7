(** Rank-level broadcast plans.

    The DES executes one message dissemination described as an {e ordered}
    spanning tree over machine ranks: each node forwards to its children in
    list order, gap-serialised.  Plans are built three ways:
    - {!of_cluster_sends}: ordered inter-cluster sends glued to
      intra-cluster trees (the hierarchical broadcast of the paper;
      {!of_cluster_schedule} reads the sends off a heuristic's schedule);
    - {!binomial_ranks}: the "grid-unaware" binomial over all ranks
      ("Default LAM" in Figure 6);
    - {!flat_ranks}: root sends to everyone (degenerate baseline). *)

type t = private {
  root : int;  (** root rank *)
  children : int list array;  (** ordered forwarding lists, indexed by rank *)
}

val v : root:int -> children:int list array -> t
(** @raise Invalid_argument if the structure is not a spanning tree over
    [0 .. Array.length children - 1] rooted at [root]. *)

val of_cluster_sends :
  ?shape:Gridb_collectives.Tree.shape ->
  Gridb_topology.Machines.t ->
  root:int ->
  (int * int) list ->
  t
(** [of_cluster_sends machines ~root sends]: hierarchical plan rooted at
    cluster [root]'s coordinator.  Each coordinator performs its
    inter-cluster sends [(src, dst)] (cluster ids) in list order, {e then}
    feeds its cluster's intra tree ([shape] defaults to binomial).
    @raise Invalid_argument if a cluster id is out of range or the sends
    do not form a spanning tree over the clusters from [root]. *)

val of_cluster_schedule :
  ?shape:Gridb_collectives.Tree.shape ->
  Gridb_topology.Machines.t ->
  Gridb_sched.Schedule.t ->
  t
(** {!of_cluster_sends} over the schedule's sends in round order, which
    matches the [After_sends] model.
    @raise Invalid_argument if the schedule's cluster count differs from the
    machine view's. *)

val of_flat_schedule : Gridb_topology.Machines.t -> Gridb_sched.Schedule.t -> t
(** Machine-level plan from a {e flat} schedule (one "cluster" per machine,
    as built by {!Gridb_sched.Instance.of_machines}): every rank forwards
    to the ranks it was scheduled to serve, in round order.
    @raise Invalid_argument if the schedule's node count differs from the
    machine count. *)

val binomial_ranks : Gridb_topology.Machines.t -> root:int -> t
(** Binomial tree over ranks [0 .. N-1] rooted at [root], oblivious to
    cluster boundaries (ranks are relabelled so the tree is rooted at
    [root]). *)

val flat_ranks : Gridb_topology.Machines.t -> root:int -> t

val size : t -> int
val depth : t -> int
val parent_array : t -> int array
(** [parent_array t].(root) = root. *)
