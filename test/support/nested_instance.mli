(** [Instance.of_grid] as it was built before the instance went flat:
    nested [n x n] matrices from {!Gridb_topology.Grid.latency} and
    {!Gridb_topology.Grid.gap}, each [T_k] from
    {!Gridb_collectives.Cost.tree_completion} over the built tree, then
    {!Gridb_sched.Instance.v}.  The oracle the flat fill must match bit
    for bit. *)

val of_grid :
  ?shape:Gridb_collectives.Tree.shape ->
  root:int ->
  msg:int ->
  Gridb_topology.Grid.t ->
  Gridb_sched.Instance.t
