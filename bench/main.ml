(* Benchmark harness: regenerates every table and figure of the paper
   (Sections 6 and 7), runs the ablation studies from DESIGN.md, and closes
   with Bechamel micro-benchmarks of the scheduling kernels (the Section 7
   overhead discussion).

   Usage: dune exec bench/main.exe -- [-i ITERATIONS] [--full] [--csv DIR]
                                      [--skip-micro] [--skip-ablations]

   The default iteration count is 2500 per data point (quarter of the
   paper's 10000) to keep a full run to a few minutes; pass --full for the
   paper's exact count.  Flags are read through bench/sweep.ml's checked
   readers. *)

module Config = Gridb_experiments.Config
module Figures = Gridb_experiments.Figures
module Tables = Gridb_experiments.Tables
module Ablations = Gridb_experiments.Ablations
module Report = Gridb_experiments.Report
module Session = Gridb_des.Session

let emit csv_dir figure =
  Report.print figure;
  match csv_dir with
  | Some dir ->
      let path = Report.to_csv ~dir figure in
      let gp = Report.to_gnuplot ~dir figure in
      Printf.printf "[csv written to %s; gnuplot script %s]\n\n" path gp
  | None -> ()

let section title = Printf.printf "\n##### %s #####\n\n" title

(* --- Bechamel micro-benchmarks -------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let module Policy = Gridb_sched.Policy in
  let module Engine = Gridb_sched.Engine in
  let module Instance = Gridb_sched.Instance in
  let instance_of n seed =
    let rng = Gridb_util.Rng.create seed in
    Instance.random ~rng ~n Instance.table2_ranges
  in
  let scheduling_tests n =
    List.map
      (fun h ->
        let inst = instance_of n 97 in
        Test.make
          ~name:(Printf.sprintf "%s/n=%d" (Policy.name h) n)
          (Staged.stage (fun () -> ignore (Engine.run h inst))))
      Policy.all
  in
  let grid = Gridb_topology.Grid5000.grid () in
  let machines = Gridb_topology.Machines.expand grid in
  let substrate_tests =
    [
      Test.make ~name:"substrate/instance-of-grid5000"
        (Staged.stage (fun () ->
             ignore (Instance.of_grid ~root:0 ~msg:1_000_000 grid)));
      Test.make ~name:"substrate/des-broadcast-88-ranks"
        (Staged.stage
           (let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
            let schedule = Engine.run Policy.ecef_la inst in
            let plan = Gridb_des.Plan.of_cluster_schedule machines schedule in
            fun () ->
              ignore (Session.run (Session.Config.v ~msg:1_000_000 ()) machines plan)));
      Test.make ~name:"substrate/lowekamp-88-machines"
        (Staged.stage
           (let matrix = Gridb_topology.Machines.latency_matrix machines in
            fun () -> ignore (Gridb_clustering.Lowekamp.detect matrix)));
      Test.make ~name:"substrate/exact-n6"
        (Staged.stage
           (let inst = instance_of 6 13 in
            fun () -> ignore (Gridb_opt.Exact.makespan inst)));
    ]
  in
  Test.make_grouped ~name:"gridsched"
    (scheduling_tests 10 @ scheduling_tests 50 @ substrate_tests)

let run_micro () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Gridb_util.Text_table.create [ "benchmark"; "time/run"; "r^2" ]
  in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> Gridb_util.Units.time_to_string (e /. 1e3)
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Gridb_util.Text_table.add_row table [ name; estimate; r2 ])
    rows;
  Gridb_util.Text_table.print table;
  print_endline
    "(time/run of a full schedule computation; the Overhead model in lib/sched";
  print_endline " charges this class of cost before the root's first transmission)"

let () =
  let iterations = ref 2_500 and csv_dir = ref (Some "results") in
  let micro = ref true and ablations = ref true in
  Sweep.args
    (Sweep.int ~min:1 [ "-i"; "--iterations" ] "N simulation runs per data point" iterations
    @ [
        ("--full", Arg.Unit (fun () -> iterations := 10_000), " the paper's 10000 iterations");
        ( "--csv",
          Arg.String (fun dir -> csv_dir := Some dir),
          "DIR write CSV and gnuplot files to DIR (default results)" );
        ("--no-csv", Arg.Unit (fun () -> csv_dir := None), " write no CSV");
        ("--skip-micro", Arg.Clear micro, " skip the Bechamel micro-benchmarks");
        ("--skip-ablations", Arg.Clear ablations, " skip the ablation tables");
      ]);
  let emit = emit !csv_dir in
  let config = Config.(with_iterations !iterations default) in
  Printf.printf
    "Grid broadcast scheduling reproduction bench (PMEO-PDS'06 / hal-00022008)\n";
  Printf.printf "iterations per simulation point: %d (paper: 10000; use --full)\n"
    !iterations;

  section "Tables";
  print_endline (Tables.table1 ());
  print_endline (Tables.table2 config);
  print_endline (Tables.table3 ());
  print_endline (Tables.table3_rederived ());

  section "Figure 1 - small grids (2-10 clusters)";
  let fig1 = Figures.fig1_small_grids config in
  emit fig1;
  section "Figure 2 - up to 50 clusters";
  let fig2 = Figures.fig2_large_grids config in
  emit fig2;
  section "Figure 3 - ECEF-like heuristics";
  let fig3 = Figures.fig3_ecef_zoom config in
  emit fig3;
  section "Figure 4 - hit rates (both completion models)";
  let fig4a, fig4b = Figures.fig4_hit_rate config in
  emit fig4a;
  emit fig4b;
  section "Figure 5 - predicted times on the 88-machine GRID5000 grid";
  let fig5 = Figures.fig5_predicted config in
  emit fig5;
  section "Figure 6 - measured times (DES + noise + scheduling overhead)";
  let fig6 = Figures.fig6_measured config in
  emit fig6;

  if !ablations then begin
    section "Ablations (DESIGN.md section 5)";
    List.iter emit (Ablations.all config)
  end;

  section "Reproduction scorecard";
  let verdicts =
    Gridb_experiments.Scorecard.of_figures ~fig1 ~fig2 ~fig3 ~fig4_literal:fig4a
      ~fig4_overlapped:fig4b ~fig5 ~fig6 ()
    @ [ Gridb_experiments.Scorecard.table3_verdict () ]
  in
  print_string (Gridb_experiments.Scorecard.render verdicts);
  Printf.printf "\noverall: %s\n"
    (if Gridb_experiments.Scorecard.all_pass verdicts then
       "all paper claims reproduced"
     else "SOME CLAIMS NOT REPRODUCED - see EXPERIMENTS.md");

  if !micro then begin
    section "Bechamel micro-benchmarks (scheduling cost, Section 7 overhead)";
    run_micro ()
  end
