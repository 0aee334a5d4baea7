module Machines = Gridb_topology.Machines
module Tree = Gridb_collectives.Tree
module Schedule = Gridb_sched.Schedule

type t = { root : int; children : int list array }

let validate ~root ~children =
  let n = Array.length children in
  if n = 0 then invalid_arg "Plan.v: empty plan";
  if root < 0 || root >= n then invalid_arg "Plan.v: root out of range";
  let indegree = Array.make n 0 in
  Array.iter
    (fun kids ->
      List.iter
        (fun k ->
          if k < 0 || k >= n then invalid_arg "Plan.v: child rank out of range";
          indegree.(k) <- indegree.(k) + 1)
        kids)
    children;
  if indegree.(root) <> 0 then invalid_arg "Plan.v: root has a parent";
  Array.iteri
    (fun r d -> if r <> root && d <> 1 then invalid_arg "Plan.v: not a spanning tree")
    indegree;
  (* In-degrees are right; check reachability to exclude disjoint cycles. *)
  let seen = Array.make n false in
  let rec visit r =
    if seen.(r) then invalid_arg "Plan.v: cycle";
    seen.(r) <- true;
    List.iter visit children.(r)
  in
  visit root;
  if not (Array.for_all Fun.id seen) then invalid_arg "Plan.v: unreachable ranks"

let v ~root ~children =
  validate ~root ~children;
  { root; children = Array.copy children }

let of_cluster_schedule ?(shape = Tree.Binomial) machines schedule =
  let grid = Machines.grid machines in
  let n_clusters = Gridb_topology.Grid.size grid in
  if schedule.Schedule.n <> n_clusters then
    invalid_arg "Plan.of_cluster_schedule: cluster count mismatch";
  let n = Machines.count machines in
  let children = Array.make n [] in
  (* Inter-cluster relays, per sender in round order. *)
  let inter = Array.make n_clusters [] in
  List.iter
    (fun e -> inter.(e.Schedule.src) <- e.Schedule.dst :: inter.(e.Schedule.src))
    schedule.Schedule.events;
  for c = 0 to n_clusters - 1 do
    let coordinator = Machines.coordinator machines c in
    let inter_children =
      List.rev_map (fun dst -> Machines.coordinator machines dst) inter.(c)
    in
    let size = (Gridb_topology.Grid.cluster grid c).Gridb_topology.Cluster.size in
    let tree = Tree.build shape size in
    (* Map intra-tree node indices onto this cluster's global ranks. *)
    let rec lay (node : Tree.t) =
      let rank = Machines.rank_of machines ~cluster:c ~index:node.Tree.node in
      let kid_ranks =
        List.map
          (fun (k : Tree.t) -> Machines.rank_of machines ~cluster:c ~index:k.Tree.node)
          node.Tree.children
      in
      children.(rank) <- children.(rank) @ kid_ranks;
      List.iter lay node.Tree.children
    in
    children.(coordinator) <- inter_children;
    lay tree
  done;
  let root = Machines.coordinator machines schedule.Schedule.root in
  validate ~root ~children;
  { root; children }

let of_flat_schedule machines schedule =
  let n = Machines.count machines in
  if schedule.Schedule.n <> n then
    invalid_arg "Plan.of_flat_schedule: machine count mismatch";
  (* Built reversed, one cons per edge, and reversed once: appending each
     child would be quadratic in a sender's fan-out. *)
  let children = Array.make n [] in
  List.iter
    (fun e -> children.(e.Schedule.src) <- e.Schedule.dst :: children.(e.Schedule.src))
    schedule.Schedule.events;
  let children = Array.map List.rev children in
  let root = schedule.Schedule.root in
  validate ~root ~children;
  { root; children }

let of_rank_tree machines ~root tree =
  let n = Machines.count machines in
  let children = Array.make n [] in
  (* Rotate node labels so tree node 0 lands on [root]. *)
  let relabel i = (i + root) mod n in
  let rec lay (node : Tree.t) =
    children.(relabel node.Tree.node) <-
      List.map (fun (k : Tree.t) -> relabel k.Tree.node) node.Tree.children;
    List.iter lay node.Tree.children
  in
  lay tree;
  validate ~root ~children;
  { root; children }

let binomial_ranks machines ~root =
  of_rank_tree machines ~root (Tree.binomial (Machines.count machines))

let flat_ranks machines ~root =
  of_rank_tree machines ~root (Tree.flat (Machines.count machines))

let size t = Array.length t.children

let depth t =
  let rec go r = List.fold_left (fun acc k -> max acc (1 + go k)) 0 t.children.(r) in
  go t.root

let parent_array t =
  let parents = Array.make (size t) t.root in
  Array.iteri (fun r kids -> List.iter (fun k -> parents.(k) <- r) kids) t.children;
  parents
