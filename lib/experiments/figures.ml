module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Schedule = Gridb_sched.Schedule
module Instance = Gridb_sched.Instance
module Topology = Gridb_topology
module Des = Gridb_des

let seconds us = us /. 1e6

let labels heuristics = List.map Policy.name heuristics

let transpose_points points extract =
  (* points: Sweep.point list; extract: point -> per-heuristic float list.
     Result: per-heuristic (x, y) lists. *)
  match points with
  | [] -> []
  | first :: _ ->
      let k = List.length (extract first) in
      List.init k (fun col ->
          List.map
            (fun p -> (float_of_int p.Sweep.n, List.nth (extract p) col))
            points)

let makespan_figure config ~id ~title ~ns heuristics =
  let points = Sweep.run config ~ns heuristics in
  let series =
    List.combine (labels heuristics) (transpose_points points Sweep.mean_seconds)
  in
  {
    Report.id;
    title;
    x_label = "clusters";
    y_label = "completion time (s)";
    series;
    notes =
      [
        Printf.sprintf "1 MB broadcast, Table 2 parameter ranges, %d iterations/point"
          config.Config.iterations;
        Printf.sprintf "largest standard error of any plotted mean: %.4f s"
          (Sweep.max_stderr_seconds points);
      ];
  }

let fig1_small_grids config =
  makespan_figure config ~id:"fig1"
    ~title:"Broadcast completion time, small grids (paper Fig. 1)"
    ~ns:[ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    Policy.all

let large_ns = [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]

let fig2_large_grids config =
  makespan_figure config ~id:"fig2"
    ~title:"Broadcast completion time, up to 50 clusters (paper Fig. 2)" ~ns:large_ns
    Policy.all

let fig3_ecef_zoom config =
  makespan_figure config ~id:"fig3"
    ~title:"ECEF-like heuristics only (paper Fig. 3)" ~ns:large_ns
    Policy.ecef_family

let hit_figure config ~id ~model_name =
  let points = Sweep.run config ~ns:large_ns Policy.ecef_family in
  let series =
    List.combine (labels Policy.ecef_family) (transpose_points points Sweep.hits)
  in
  {
    Report.id;
    title =
      Printf.sprintf "Hit rate vs global minimum, %s completion model (paper Fig. 4)"
        model_name;
    x_label = "clusters";
    y_label = Printf.sprintf "hits out of %d" config.Config.iterations;
    series;
    notes =
      [
        "global minimum = best makespan among the four heuristics on each draw;";
        "ties count for every heuristic achieving it (hence columns sum above the";
        "iteration count).  Model comparison discussed in EXPERIMENTS.md.";
      ];
  }

let fig4_hit_rate config =
  let literal =
    hit_figure
      (Config.with_model Schedule.After_sends config)
      ~id:"fig4a" ~model_name:"after-sends (paper formalism)"
  in
  let overlapped =
    hit_figure
      (Config.with_model Schedule.Overlapped config)
      ~id:"fig4b" ~model_name:"overlapped (MagPIe-style)"
  in
  (literal, overlapped)

let message_sizes =
  [
    250_000;
    500_000;
    1_000_000;
    1_500_000;
    2_000_000;
    2_500_000;
    3_000_000;
    3_500_000;
    4_000_000;
    4_500_000;
  ]

let grid5000_root = Topology.Grid5000.root_cluster

let fig5_predicted config =
  let grid = Topology.Grid5000.grid () in
  let series =
    List.map
      (fun h ->
        let points =
          List.map
            (fun msg ->
              let inst = Instance.of_grid ~root:grid5000_root ~msg grid in
              ( float_of_int msg,
                seconds (Engine.makespan ~model:config.Config.model h inst) ))
            message_sizes
        in
        (Policy.name h, points))
      Policy.all
  in
  {
    Report.id = "fig5";
    title = "Predicted broadcast time, 88-machine GRID5000 grid (paper Fig. 5)";
    x_label = "message size (bytes)";
    y_label = "completion time (s)";
    series;
    notes =
      [
        "Table 3 latencies verbatim; per-link bandwidths synthesised by latency";
        "class (see DESIGN.md substitutions).";
      ];
  }

let fig6_measured config =
  let grid = Topology.Grid5000.grid () in
  let machines = Topology.Machines.expand grid in
  let noise = Des.Noise.default_measured in
  let repetitions = 10 in
  let heuristic_series =
    List.map
      (fun h ->
        let points =
          List.map
            (fun msg ->
              let inst = Instance.of_grid ~root:grid5000_root ~msg grid in
              let schedule = Engine.run h inst in
              let plan = Des.Plan.of_cluster_schedule machines schedule in
              let overhead =
                Gridb_sched.Overhead.cost_us ~n:inst.Instance.n h
              in
              let rng = Gridb_util.Rng.create (config.Config.seed + msg) in
              let total = ref 0. in
              for _ = 1 to repetitions do
                let r =
                  Des.Session.run
                    (Des.Session.Config.v ~noise ~rng ~start_delay:overhead ~msg ())
                    machines plan
                in
                total := !total +. r.Des.Session.makespan
              done;
              (float_of_int msg, seconds (!total /. float_of_int repetitions)))
            message_sizes
        in
        (Policy.name h, points))
      Policy.all
  in
  let lam_series =
    let plan =
      Des.Plan.binomial_ranks machines
        ~root:(Topology.Machines.coordinator machines grid5000_root)
    in
    let points =
      List.map
        (fun msg ->
          let rng = Gridb_util.Rng.create (config.Config.seed + msg) in
          let total = ref 0. in
          for _ = 1 to repetitions do
            let r =
              Des.Session.run (Des.Session.Config.v ~noise ~rng ~msg ()) machines plan
            in
            total := !total +. r.Des.Session.makespan
          done;
          (float_of_int msg, seconds (!total /. float_of_int repetitions)))
        message_sizes
    in
    ("Default LAM", points)
  in
  {
    Report.id = "fig6";
    title = "Measured broadcast time (DES + noise + overhead) (paper Fig. 6)";
    x_label = "message size (bytes)";
    y_label = "completion time (s)";
    series = lam_series :: heuristic_series;
    notes =
      [
        Printf.sprintf
          "discrete-event execution, %s noise, %d repetitions per point, scheduling"
          (Des.Noise.to_string noise) repetitions;
        "overhead charged before the root's first send (Overhead model).";
      ];
  }
