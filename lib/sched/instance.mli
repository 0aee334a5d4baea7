(** A scheduling problem instance.

    The heuristics only consume three ingredients per Section 3 of the
    paper: the inter-cluster latency [L_ij], the inter-cluster gap
    [g_ij(m)] already evaluated at the broadcast's message size, and the
    predicted intra-cluster broadcast time [T_k].  An instance freezes these
    into plain matrices, decoupling the schedulers from the topology model:
    instances come either from a full {!Gridb_topology.Grid.t} or directly
    from the random draws of Table 2. *)

type t = private {
  n : int;  (** number of clusters, >= 1 *)
  root : int;  (** cluster of the broadcast root *)
  latency : float array array;  (** [latency.(i).(j)] = [L_ij] in us *)
  gap : float array array;  (** [gap.(i).(j)] = [g_ij(m)] in us *)
  lat_flat : float array;
      (** row-major mirror of [latency]: [lat_flat.((i * n) + j) =
          latency.(i).(j)] — the schedulers' hot paths index this (one
          bounds check, no row pointer chase) *)
  gap_flat : float array;  (** row-major mirror of [gap] *)
  intra : float array;  (** [intra.(k)] = [T_k] in us *)
}

val v :
  root:int ->
  latency:float array array ->
  gap:float array array ->
  intra:float array ->
  t
(** Copies its inputs.  @raise Invalid_argument on dimension mismatch,
    non-square matrices, negative entries or out-of-range root. *)

val of_grid :
  ?shape:Gridb_collectives.Tree.shape ->
  root:int ->
  msg:int ->
  Gridb_topology.Grid.t ->
  t
(** Evaluates every link's pLogP parameters at [msg] bytes and predicts each
    cluster's [T_k] with {!Gridb_collectives.Cost.broadcast_time} ([shape]
    defaults to the paper's binomial tree). *)

val of_machines :
  root:int -> msg:int -> Gridb_topology.Machines.t -> t
(** Machine-level (flat) instance: every machine is its own "cluster" with
    [T = 0] and pairwise link parameters from the machine view.  This is
    the setting of Bhat et al. — per-process scheduling with no hierarchy —
    which the paper argues "becomes clearly expensive when the number of
    processes augments"; the complexity-vs-quality experiment quantifies
    that claim by scheduling the same grid both ways.  [root] is a global
    rank. *)

val rescale :
  Gridb_topology.Machines.t -> (src:int -> dst:int -> float) -> t -> t
(** [rescale machines factor t] multiplies the latency and gap of every
    inter-cluster pair [(i, j)], [i <> j], by [factor] on the link between
    the coordinators of clusters [i] and [j]; the diagonal and [intra] stay
    nominal.  This lifts a machine-level live view to the scheduling
    layer: an estimator's per-link quality (the instance that retries and
    repairs replan on) or a dynamics model's drift at one instant. *)

type ranges = {
  latency_us : float * float;
  gap_us : float * float;
  intra_us : float * float;
}
(** Uniform draw ranges for random instances. *)

val table2_ranges : ranges
(** The paper's Table 2 (converted to us): [L] in 1-15 ms, [g] in
    100-600 ms, [T] in 20-3000 ms, for a 1 MB message. *)

val random : rng:Gridb_util.Rng.t -> n:int -> ranges -> t
(** Symmetric [L] and [g] matrices drawn i.i.d. from the ranges, root 0.
    @raise Invalid_argument if [n < 1]. *)

val send_time : t -> int -> int -> float
(** [send_time t i j = gap.(i).(j) +. latency.(i).(j)]. *)

val cluster_ids : t -> int list
(** [0 .. n-1]. *)

val pp : Format.formatter -> t -> unit
