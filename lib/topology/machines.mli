(** Machine-level (flat) view of a grid.

    The schedulers work on clusters, but three consumers need individual
    machines: the discrete-event simulator (every process must receive the
    message), the grid-unaware binomial broadcast of Section 7 (which spans
    ranks regardless of clusters), and Lowekamp's cluster detection (which
    starts from a full machine-to-machine latency matrix). *)

type machine = {
  rank : int;  (** global rank, 0 .. N-1, cluster-major order *)
  cluster : int;
  index_in_cluster : int;  (** 0 is the cluster coordinator *)
}

type t

val expand : Grid.t -> t
(** Enumerates machines cluster by cluster; rank 0 is the coordinator of
    cluster 0. *)

val grid : t -> Grid.t
val count : t -> int
val machine : t -> int -> machine
(** @raise Invalid_argument on out-of-range rank. *)

val clusters : t -> int array
(** [(clusters t).(r)] is rank [r]'s cluster.  The array is the view's
    own, shared with every caller, so a hot path reads a cluster without a
    call or a bounds-checked record; do not mutate it. *)

val coordinator : t -> int -> int
(** [coordinator t c]: global rank of cluster [c]'s coordinator. *)

val rank_of : t -> cluster:int -> index:int -> int
(** Inverse of {!machine}.  @raise Invalid_argument when out of range. *)

val link_params : t -> int -> int -> Gridb_plogp.Params.t
(** pLogP parameters between two distinct ranks: the cluster's intra
    parameters when colocated, the inter-cluster link otherwise.
    @raise Invalid_argument if the ranks are equal. *)

val latency : t -> int -> int -> float

val latency_matrix : ?rng:Gridb_util.Rng.t -> ?jitter_sigma:float -> t -> float array array
(** Full [N x N] symmetric latency matrix (0 on the diagonal).  When [rng]
    is given, each entry is multiplied by lognormal noise of the given sigma
    (default 0.05) — the raw material for cluster-detection experiments. *)
