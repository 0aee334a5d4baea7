module Grid = Gridb_topology.Grid
module Machines = Gridb_topology.Machines
module Tree = Gridb_collectives.Tree
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan

let representatives ~site_of_cluster ~n_clusters ~root =
  if n_clusters < 1 then invalid_arg "Multilevel.representatives: empty grid";
  let sites = Array.init n_clusters site_of_cluster in
  let n_sites = Array.fold_left max (-1) sites + 1 in
  Array.iter
    (fun s -> if s < 0 || s >= n_sites then invalid_arg "Multilevel: bad site id")
    sites;
  let reps = Array.make n_sites (-1) in
  for c = n_clusters - 1 downto 0 do
    reps.(sites.(c)) <- c
  done;
  Array.iter (fun r -> if r < 0 then invalid_arg "Multilevel: non-dense site ids") reps;
  reps.(sites.(root)) <- root;
  reps

(* Ordered (src, dst) pairs of a schedule, in global ids. *)
let global_sends ids schedule =
  List.map
    (fun e -> (ids.(e.Schedule.src), ids.(e.Schedule.dst)))
    schedule.Schedule.events

let build_plan ~site_heuristic ~cluster_heuristic ~shape ~site_of_cluster ~root ~msg
    machines =
  let grid = Machines.grid machines in
  let n_clusters = Grid.size grid in
  let reps = representatives ~site_of_cluster ~n_clusters ~root in
  let n_sites = Array.length reps in
  (* Every per-site and site-level instance is a part of this one. *)
  let full = Instance.of_grid ~shape ~root ~msg grid in
  let site_members =
    Array.init n_sites (fun s ->
        List.filter (fun c -> site_of_cluster c = s) (List.init n_clusters (fun i -> i)))
  in
  (* Per-site cluster-level schedules, rooted at the representative. *)
  let site_sends = Array.make n_sites [] in
  let site_completion = Array.make n_sites 0. in
  for s = 0 to n_sites - 1 do
    let ids = Array.of_list site_members.(s) in
    let root_local =
      match Array.find_index (fun c -> c = reps.(s)) ids with
      | Some i -> i
      | None -> invalid_arg "Multilevel: representative outside its site"
    in
    let inst = Instance.sub full ~root:root_local ids in
    let schedule = Engine.run cluster_heuristic inst in
    site_sends.(s) <- global_sends ids schedule;
    site_completion.(s) <- Schedule.makespan inst schedule
  done;
  (* Site-level schedule among representatives, site-aware through T. *)
  let site_ids = Array.copy reps in
  let root_site = site_of_cluster root in
  let site_inst = Instance.sub ~intra:site_completion full ~root:root_site site_ids in
  let site_schedule = Engine.run site_heuristic site_inst in
  let wan_sends = global_sends site_ids site_schedule in
  (* A coordinator sends over the WAN first, then within its site: one
     site's sends all come from that site's clusters. *)
  Plan.of_cluster_sends ~shape machines ~root
    (wan_sends @ List.concat (Array.to_list site_sends))

let plan ?(site_heuristic = Policy.ecef_la) ?(cluster_heuristic = Policy.ecef)
    ?(shape = Tree.Binomial) ~site_of_cluster ~root ~msg machines =
  build_plan ~site_heuristic ~cluster_heuristic ~shape ~site_of_cluster ~root ~msg machines

let flat_sites_plan ?(shape = Tree.Binomial) ~site_of_cluster ~root ~msg machines =
  build_plan ~site_heuristic:Policy.flat_tree ~cluster_heuristic:Policy.flat_tree
    ~shape ~site_of_cluster ~root ~msg machines
