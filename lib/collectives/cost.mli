(** pLogP completion-time prediction for intra-cluster collectives.

    This is the model of the authors' companion papers ("Fast tuning of
    intra-cluster collective communications", "Performance characterisation
    of intra-cluster collective communications"): given the homogeneous
    pLogP parameters of a cluster, predict the completion time of a
    collective — in particular the broadcast time [T] that the grid-aware
    heuristics (ECEF-LAt, ECEF-LAT, BottomUp) feed into their lookahead. *)

val tree_completion : params:Gridb_plogp.Params.t -> msg:int -> Tree.t -> float
(** Completion time (us) of a broadcast along the given tree: a node holding
    the message at time [t] transmits to its [k] children at
    [t + g, t + 2g, ...] (gap-limited injection, children ordered as listed);
    child [i] holds the message at [t + i*g + L].  The result is the time
    the last node holds the message. *)

val per_node_arrival : params:Gridb_plogp.Params.t -> msg:int -> Tree.t -> (int * float) list
(** Arrival time of every node of the tree (root at 0.), preorder. *)

val broadcast_time :
  ?shape:Tree.shape -> params:Gridb_plogp.Params.t -> size:int -> msg:int -> unit -> float
(** The paper's [T_k]: completion of an intra-cluster broadcast over [size]
    processes ([shape] defaults to [Binomial]), walking the implicit tree
    without building it; bit-identical to {!tree_completion} on
    [Tree.build shape size].  0. when [size <= 1]. *)

val scatter_time : params:Gridb_plogp.Params.t -> size:int -> msg:int -> float
(** Root sends a distinct [msg]-byte block to each of the [size - 1] others:
    [(size - 1) * g(m) + L]. *)

val gather_time : params:Gridb_plogp.Params.t -> size:int -> msg:int -> float
(** Mirror of scatter under symmetric links. *)

val allgather_ring_time : params:Gridb_plogp.Params.t -> size:int -> msg:int -> float
(** Ring allgather: [size - 1] rounds of one [msg]-byte neighbour exchange:
    [(size - 1) * (g(m) + L)]. *)

val barrier_time : params:Gridb_plogp.Params.t -> size:int -> float
(** Dissemination barrier: [ceil (log2 size)] rounds of zero-byte
    exchanges. *)
