(* Kept outside the library as an independent oracle: it shares neither the
   flat fill nor the implicit-tree walk with [Instance.of_grid]. *)

module Grid = Gridb_topology.Grid
module Cluster = Gridb_topology.Cluster
module Tree = Gridb_collectives.Tree
module Cost = Gridb_collectives.Cost

let of_grid ?(shape = Tree.Binomial) ~root ~msg grid =
  let n = Grid.size grid in
  let latency =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else Grid.latency grid i j))
  in
  let gap =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else Grid.gap grid i j msg))
  in
  let intra =
    Array.init n (fun k ->
        let c = Grid.cluster grid k in
        if c.Cluster.size <= 1 then 0.
        else Cost.tree_completion ~params:c.Cluster.intra ~msg (Tree.build shape c.Cluster.size))
  in
  Gridb_sched.Instance.v ~root ~latency ~gap ~intra
