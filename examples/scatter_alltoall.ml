(* The paper's future work, implemented: grid-aware schedules for the
   scatter and alltoall patterns (Section 8: "We are particularly interested
   on the development of efficient communication schedules for other
   communication patterns like scatter and alltoall").

   Run with: dune exec examples/scatter_alltoall.exe *)

module Topology = Gridb_topology
module Ext = Gridb_extensions

let seconds us = us /. 1e6

let () =
  let grid = Topology.Grid5000.grid () in
  let root = Topology.Grid5000.root_cluster in

  (* --- Scatter: the problem reduces to ordering the root's sends; with
     per-cluster delivery tails q_c = L_c + T_scatter_c, Jackson's rule
     (longest tail first) is optimal. --- *)
  print_endline "scatter on GRID5000 (10 KB per process):";
  let msg_per_proc = 10_000 in
  let orders =
    [
      ("in-order (MagPIe-like)", Ext.Scatter_sched.in_order grid ~root);
      ("fastest edge first", Ext.Scatter_sched.fastest_edge_first grid ~root ~msg_per_proc);
      ("Jackson LDF", Ext.Scatter_sched.longest_delivery_first grid ~root ~msg_per_proc);
      ("optimal (brute force)", Ext.Scatter_sched.optimal_order grid ~root ~msg_per_proc);
    ]
  in
  List.iter
    (fun (name, order) ->
      let e = Ext.Scatter_sched.evaluate grid ~root ~msg_per_proc order in
      Printf.printf "  %-22s makespan %.4f s  order [%s]\n" name
        (seconds e.Ext.Scatter_sched.makespan)
        (String.concat ";" (List.map string_of_int e.Ext.Scatter_sched.order)))
    orders;

  (* --- Alltoall: aggregation through coordinators vs direct exchange. --- *)
  print_newline ();
  print_endline "alltoall on GRID5000 (bytes per process pair):";
  List.iter
    (fun m ->
      let p = Ext.Alltoall_sched.predict grid ~msg_per_pair:m in
      let direct = Ext.Alltoall_sched.predict_direct grid ~msg_per_pair:m in
      let simulated = Ext.Alltoall_sched.simulate grid ~msg_per_pair:m in
      Printf.printf
        "  %6d B: hierarchical %.4f s (gather %.4f + exchange %.4f + scatter %.4f) | simulated %.4f s | direct %.4f s\n"
        m (seconds p.Ext.Alltoall_sched.total)
        (seconds p.Ext.Alltoall_sched.gather)
        (seconds p.Ext.Alltoall_sched.exchange)
        (seconds p.Ext.Alltoall_sched.scatter)
        (seconds simulated) (seconds direct))
    [ 100; 1_000; 10_000 ];
  print_newline ();
  print_endline
    "Aggregation trades wide-area message count against volume: with only 88";
  print_endline
    "processes the direct exchange wins on this topology; the hierarchical";
  print_endline
    "variant pays volume quadratic in cluster sizes (cf. EXPERIMENTS.md).";
  print_endline
    "(The simulated column runs blocking rendezvous rounds on simMPI, hence";
  print_endline
    "slower than the gap-bound closed form.)";

  (* --- Reduce: any broadcast heuristic, reused by time reversal. --- *)
  print_newline ();
  print_endline "reduce on GRID5000 (1 MB, via broadcast reversal):";
  let inst = Gridb_sched.Instance.of_grid ~root ~msg:1_000_000 grid in
  List.iter
    (fun h ->
      let r = Ext.Reduce_sched.of_broadcast inst (Gridb_sched.Engine.run h inst) in
      Printf.printf "  %-10s gathers everything at the root in %.4f s\n"
        (Gridb_sched.Policy.name h)
        (seconds r.Ext.Reduce_sched.makespan))
    Gridb_sched.Policy.[ flat_tree; ecef; ecef_lat_max; bottom_up ];
  let best = Gridb_sched.Portfolio.run inst in
  let r = Ext.Reduce_sched.of_broadcast inst best.Gridb_sched.Portfolio.schedule in
  Printf.printf "  best: %s (%.4f s)\n"
    (Gridb_sched.Policy.name best.Gridb_sched.Portfolio.heuristic)
    (seconds r.Ext.Reduce_sched.makespan)
