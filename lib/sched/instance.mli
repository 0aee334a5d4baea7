(** A scheduling problem instance.

    The heuristics only consume three ingredients per Section 3 of the
    paper: the inter-cluster latency [L_ij], the inter-cluster gap
    [g_ij(m)] already evaluated at the broadcast's message size, and the
    predicted intra-cluster broadcast time [T_k].  An instance freezes these
    into plain matrices, decoupling the schedulers from the topology model:
    instances come either from a full {!Gridb_topology.Grid.t} or directly
    from the random draws of Table 2.  Each matrix is stored once,
    row-major; hot paths index it directly, the rest read {!latency},
    {!gap} and {!send_time}.  Every entry is finite and non-negative. *)

type t = private {
  n : int;  (** number of clusters, >= 1 *)
  root : int;  (** cluster of the broadcast root *)
  lat_flat : float array;  (** [lat_flat.((i * n) + j)] = [L_ij] in us *)
  gap_flat : float array;  (** [gap_flat.((i * n) + j)] = [g_ij(m)] in us *)
  intra : float array;  (** [intra.(k)] = [T_k] in us *)
}

val v :
  root:int ->
  latency:float array array ->
  gap:float array array ->
  intra:float array ->
  t
(** Checks the nested matrices and copies them once, row-major.
    @raise Invalid_argument on dimension mismatch, non-square matrices,
    negative or non-finite entries, or out-of-range root. *)

val check_grid : msg:int -> Gridb_topology.Grid.t -> (unit, string) result
(** [Ok ()] iff {!of_grid} at [msg] bytes (binomial [T_k]) gives only
    finite, non-negative entries and so does every cluster's own gap.  A
    falling gap table extrapolates to a negative gap at a large message, a
    steep one to infinity; the error is one line naming the first such link
    or cluster, the message size and the value. *)

val of_grid :
  ?shape:Gridb_collectives.Tree.shape ->
  root:int ->
  msg:int ->
  Gridb_topology.Grid.t ->
  t
(** Evaluates every link's pLogP parameters at [msg] bytes and predicts each
    cluster's [T_k] with {!Gridb_collectives.Cost.broadcast_time} ([shape]
    defaults to the paper's binomial tree) straight into the flat arrays.
    @raise Invalid_argument with {!check_grid}'s error, or on an
    out-of-range root. *)

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

val sub : ?intra:float array -> t -> root:int -> int array -> t
(** [sub t ~root ids] relabels or restricts [t]: its cluster [i] is [t]'s
    cluster [ids.(i)] with [T_i = intra.(i)] (default [t]'s), and [root]
    indexes [ids]. *)

val with_intra : t -> float array -> t
(** [t] with its [T_k] replaced. *)

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

val latency : t -> int -> int -> float
(** [latency t i j] = [L_ij]. *)

val gap : t -> int -> int -> float
(** [gap t i j] = [g_ij(m)]. *)

val send_time : t -> int -> int -> float
(** [send_time t i j = gap t i j +. latency t i j]. *)

val pp : Format.formatter -> t -> unit
