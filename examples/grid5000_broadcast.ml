(* The Section 7 pipeline end to end: predict a hierarchical broadcast with
   the pLogP model, then "measure" it by executing the same schedule on the
   discrete-event simulator with realistic jitter — the reproduction of the
   paper's Figure 5 (predicted) vs Figure 6 (measured) comparison.

   Run with: dune exec examples/grid5000_broadcast.exe *)

module Topology = Gridb_topology
module Sched = Gridb_sched
module Des = Gridb_des

let seconds us = us /. 1e6

let () =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let root = Topology.Grid5000.root_cluster in
  let sizes = [ 500_000; 1_000_000; 2_000_000; 4_000_000 ] in
  let heuristics =
    [
      Sched.Policy.flat_tree;
      Sched.Policy.ecef;
      Sched.Policy.ecef_lat_max;
      Sched.Policy.bottom_up;
    ]
  in
  let table =
    Gridb_util.Text_table.create
      [ "heuristic"; "message"; "predicted (s)"; "measured (s)"; "error" ]
  in
  List.iter
    (fun h ->
      List.iter
        (fun msg ->
          let inst = Sched.Instance.of_grid ~root ~msg grid in
          let schedule = Sched.Engine.run h inst in
          let predicted = Sched.Schedule.makespan inst schedule in
          (* Execute the exact same schedule under lognormal noise, with the
             heuristic's own scheduling cost charged up front. *)
          let plan = Des.Plan.of_cluster_schedule machines schedule in
          let overhead = Gridb_sched.Overhead.cost_us ~n:inst.Sched.Instance.n h in
          let rng = Gridb_util.Rng.create (42 + msg) in
          let reps = 20 in
          let total = ref 0. in
          for _ = 1 to reps do
            let r =
              Des.Session.run
                (Des.Session.Config.v ~noise:Des.Noise.default_measured ~rng
                   ~start_delay:overhead ~msg ())
                machines plan
            in
            total := !total +. r.Des.Session.makespan
          done;
          let measured = !total /. float_of_int reps in
          Gridb_util.Text_table.add_row table
            [
              Sched.Policy.name h;
              Gridb_util.Units.bytes_to_string msg;
              Printf.sprintf "%.3f" (seconds predicted);
              Printf.sprintf "%.3f" (seconds measured);
              Printf.sprintf "%+.1f%%" (100. *. ((measured /. predicted) -. 1.));
            ])
        sizes;
      Gridb_util.Text_table.add_separator table)
    heuristics;
  Gridb_util.Text_table.print table;
  print_endline
    "As in the paper, predictions fit the measured results closely; the Flat";
  print_endline
    "Tree pays several sequential wide-area gaps while the grid-aware schedules";
  print_endline "overlap them across clusters."
