(* The full methodology chain of the paper's Section 7:

     measure an 88x88 machine latency matrix (synthesised here with jitter)
     -> detect logical homogeneous clusters (Lowekamp, rho = 30%)
     -> abstract the matrix into a cluster-level grid
     -> schedule a broadcast on the detected topology.

   The detection must recover Table 3's map: Orsay split in two (their
   mutual 62 us exceeds the 30% band around 47.5 us), IDPOT split in three
   (the 242 us pair), Toulouse intact.

   Run with: dune exec examples/cluster_detection.exe *)

module Topology = Gridb_topology
module Clustering = Gridb_clustering
module Sched = Gridb_sched

let () =
  (* Ground truth: the Table 3 grid, expanded to machines, plus measurement
     jitter. *)
  let truth = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand truth in
  let rng = Gridb_util.Rng.create 7 in
  let matrix = Topology.Machines.latency_matrix ~rng ~jitter_sigma:0.03 machines in
  Printf.printf "synthesised %dx%d latency matrix (3%% lognormal jitter)\n"
    (Array.length matrix) (Array.length matrix);

  (* Detect logical clusters. *)
  let partition = Clustering.Lowekamp.detect ~rho:0.30 matrix in
  Printf.printf "detected %d logical clusters, sizes [%s]\n"
    (Clustering.Partition.count partition)
    (String.concat ";"
       (Array.to_list (Array.map string_of_int (Clustering.Partition.sizes partition))));
  let reference =
    Clustering.Partition.of_assignment
      (Array.init (Topology.Machines.count machines) (fun r ->
           (Topology.Machines.machine machines r).Topology.Machines.cluster))
  in
  Printf.printf "agreement with the paper's map (Rand index): %.4f\n"
    (Clustering.Partition.rand_index partition reference);
  Printf.printf "homogeneity (mean max/min internal latency): %.3f\n"
    (Clustering.Lowekamp.partition_quality matrix partition);

  (* Sensitivity: the paper's rho = 30% is a sweet spot. *)
  print_newline ();
  print_endline "tolerance sensitivity:";
  List.iter
    (fun rho ->
      let p = Clustering.Lowekamp.detect ~rho matrix in
      Printf.printf "  rho = %3.0f%% -> %2d clusters (Rand %.3f)\n" (100. *. rho)
        (Clustering.Partition.count p)
        (Clustering.Partition.rand_index p reference))
    [ 0.05; 0.15; 0.30; 0.60; 2.0 ];

  (* Abstract and schedule on what was detected. *)
  let detected_grid = Clustering.Abstraction.grid_of_matrix matrix partition in
  let inst = Sched.Instance.of_grid ~root:0 ~msg:1_000_000 detected_grid in
  print_newline ();
  print_endline "broadcast makespans on the detected topology (1 MB):";
  List.iter
    (fun h ->
      Format.printf "  %-10s %a@." (Sched.Policy.name h) Gridb_util.Units.pp_time
        (Sched.Engine.makespan h inst))
    Sched.Policy.all
