(* Replan-vs-ride-out sweep on dynamic grids: for each (clusters, drift
   rate, churn rate) cell, plan and reliably execute a broadcast while a
   Dynamics model drifts the link parameters and churns the membership,
   then judge the three candidate responses — ride out the stale schedule,
   Repair-splice it on live estimates, or replan the whole broadcast from
   estimates — on the *true* drifted instance at the decision instant.
   Results go to BENCH_dynamics.json.

   Usage: dune exec bench/dynamics.exe -- [--reps N] [--max-n N] [-o FILE]
                                          [--seed S] [--jobs J]
                                          [--assert-replan-wins]

   Each cell averages over --reps independently generated random grids
   (Table 2 parameter ranges); all candidates are judged on the same runs.
   The drift=0, churn=0 cell keeps a dynamics model attached (with its
   re-clustering tick live) and doubles as a sanity check: the decision
   must be ride-out and all three candidates must deliver everywhere.
   --assert-replan-wins additionally fails the run unless at least one
   dynamic cell has replanning beat riding out on delivered clusters or —
   at equal delivery — on makespan, in a majority of its repetitions'
   wins-vs-losses (the CI dynamics job runs with it).  Every cell derives
   its seeds from (seed, n, rep) alone, so the sweep is bit-identical at
   any --jobs.  Flags, the cell loop and the JSON envelope come from
   bench/sweep.ml. *)

module Dynamics = Gridb_experiments.Dynamics
module Dyn = Gridb_des.Dynamics
module Replan = Gridb_sched.Replan
module Generators = Gridb_topology.Generators
module Rng = Gridb_util.Rng

type vcell = {
  delivery_ratio : float; (* mean delivered clusters / clusters *)
  makespan : float; (* mean over reps where anything delivered, us *)
  stranded : int; (* total over reps *)
}

type cell = {
  n : int;
  drift : float;
  churn : float;
  reps : int;
  ride_out : vcell;
  splice : vcell;
  replan : vcell;
  decisions : int * int * int; (* ride-out, splice, replan *)
  mean_drift : float; (* partition drift at quiescence *)
  mean_divergence : float;
  departed : int; (* coordinator departures, total over reps *)
  left : int; (* rank departures, total over reps *)
  joined : int; (* joins within the horizon, total over reps *)
  replan_wins : int; (* reps where replan beat ride-out *)
  ride_out_wins : int; (* reps where ride-out beat replan *)
}

let sizes = [ 5; 10 ]
let drift_rates = [ 0.; 2e-5; 1e-4 ]
let churn_rates = [ 0.; 3e-8; 1e-7 ]

(* replan beats ride-out when it delivers to more clusters, or to the same
   number sooner.  Deliveries judged under the true drifted instance. *)
let compare_candidates (a : Replan.verdict) (b : Replan.verdict) =
  if a.Replan.delivered_count <> b.Replan.delivered_count then
    compare a.Replan.delivered_count b.Replan.delivered_count
  else compare b.Replan.makespan a.Replan.makespan

let bench_cell ~seed ~reps (n, drift, churn) =
  let dyn =
    Dyn.v ~drift_rate:drift ~load_off_mean:0. ~leave_rate:churn ~join_rate:churn
      ~recluster_every:2e5 ()
  in
  let acc_v = Array.init 3 (fun _ -> (ref 0., ref 0., ref 0, ref 0)) in
  let d_ride = ref 0 and d_splice = ref 0 and d_replan = ref 0 in
  let sdrift = ref 0. and sdiv = ref 0. in
  let departed = ref 0 and left = ref 0 and joined = ref 0 in
  let replan_wins = ref 0 and ride_out_wins = ref 0 in
  let sanity = ref [] in
  for rep = 0 to reps - 1 do
    let cell_seed = seed + (1_000 * n) + (100 * rep) in
    let rng = Rng.create cell_seed in
    let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
    let o = Dynamics.run ~seed:cell_seed ~dyn grid in
    List.iteri
      (fun i (v : Replan.verdict) ->
        let del, mk, mkn, str = acc_v.(i) in
        del := !del +. (float_of_int v.Replan.delivered_count /. float_of_int n);
        if v.Replan.makespan > 0. then begin
          mk := !mk +. v.Replan.makespan;
          incr mkn
        end;
        str := !str + v.Replan.stranded)
      [ o.Dynamics.ride_out; o.Dynamics.splice; o.Dynamics.replan ];
    (match o.Dynamics.decision with
    | Replan.Ride_out -> incr d_ride
    | Replan.Splice -> incr d_splice
    | Replan.Replan -> incr d_replan);
    sdrift := !sdrift +. o.Dynamics.final_drift;
    sdiv := !sdiv +. o.Dynamics.final_divergence;
    departed := !departed + o.Dynamics.departed_clusters;
    left := !left + o.Dynamics.left_ranks;
    joined := !joined + o.Dynamics.joined_ranks;
    let c = compare_candidates o.Dynamics.replan o.Dynamics.ride_out in
    if c > 0 then incr replan_wins else if c < 0 then incr ride_out_wins;
    if drift = 0. && churn = 0. then begin
      let total (v : Replan.verdict) = v.Replan.delivered_count = n in
      if
        o.Dynamics.decision <> Replan.Ride_out
        || not
             (List.for_all total
                [ o.Dynamics.ride_out; o.Dynamics.splice; o.Dynamics.replan ])
      then sanity := (n, cell_seed) :: !sanity
    end
  done;
  let mean r = !r /. float_of_int reps in
  let vcell (del, mk, mkn, str) =
    {
      delivery_ratio = mean del;
      makespan = (if !mkn = 0 then 0. else !mk /. float_of_int !mkn);
      stranded = !str;
    }
  in
  ( {
      n;
      drift;
      churn;
      reps;
      ride_out = vcell acc_v.(0);
      splice = vcell acc_v.(1);
      replan = vcell acc_v.(2);
      decisions = (!d_ride, !d_splice, !d_replan);
      mean_drift = mean sdrift;
      mean_divergence = mean sdiv;
      departed = !departed;
      left = !left;
      joined = !joined;
      replan_wins = !replan_wins;
      ride_out_wins = !ride_out_wins;
    },
    List.rev !sanity )

let json_of_cell c =
  let vcell name v =
    Printf.sprintf
      "    \"%s\": {\"delivery_ratio\": %.4f, \"makespan_us\": %.1f, \"stranded\": %d},\n"
      name v.delivery_ratio v.makespan v.stranded
  in
  let dr, ds, dp = c.decisions in
  Printf.sprintf
    "  {\"n\": %d, \"drift\": %g, \"churn\": %g, \"reps\": %d,\n\
     %s%s%s\
    \    \"decisions\": {\"ride_out\": %d, \"splice\": %d, \"replan\": %d},\n\
    \    \"mean_partition_drift\": %.4f, \"mean_divergence\": %.4f,\n\
    \    \"departed_clusters\": %d, \"ranks_left\": %d, \"ranks_joined\": %d,\n\
    \    \"replan_wins\": %d, \"ride_out_wins\": %d}"
    c.n c.drift c.churn c.reps (vcell "ride_out" c.ride_out) (vcell "splice" c.splice)
    (vcell "replan" c.replan) dr ds dp c.mean_drift c.mean_divergence c.departed c.left
    c.joined c.replan_wins c.ride_out_wins

let print_cell c =
  let dr, ds, dp = c.decisions in
  Printf.printf
    "n=%-3d drift=%-5g churn=%-5g | ride-out %6.4f | splice %6.4f | replan %6.4f | \
     decisions %d/%d/%d | replan wins %d/%d | departed %d joined %d\n\
     %!"
    c.n c.drift c.churn c.ride_out.delivery_ratio c.splice.delivery_ratio
    c.replan.delivery_ratio dr ds dp c.replan_wins c.reps c.departed c.joined

let () =
  let reps = ref 5 and max_n, sizes = Sweep.max_n sizes and assert_wins = ref false in
  let o =
    Sweep.parse ~output:"BENCH_dynamics.json"
      (Sweep.int ~min:1 [ "--reps" ] "N grids per cell" reps
      @ max_n
      @ [
          ( "--assert-replan-wins",
            Arg.Set assert_wins,
            " exit 1 unless replanning beats riding out in some dynamic cell" );
        ])
  in
  let results =
    Sweep.run ~jobs:o.jobs
      ~print:(fun (c, _) -> print_cell c)
      (bench_cell ~seed:o.seed ~reps:!reps)
      (List.concat_map
         (fun n ->
           List.concat_map
             (fun drift -> List.map (fun churn -> (n, drift, churn)) churn_rates)
             drift_rates)
         (sizes ()))
  in
  let cells = List.map fst results in
  (* Sanity: with nothing drifting and nobody leaving, all three candidates
     deliver everywhere and the decision is ride-out. *)
  (match List.concat_map snd results with
  | [] -> ()
  | bad ->
      List.iter
        (fun (n, cell_seed) ->
          Printf.eprintf
            "STATIC-CELL MISMATCH at n=%d seed=%d: zero-dynamics cell did not ride out \
             to total delivery\n"
            n cell_seed)
        bad;
      exit 1);
  let winning_cells =
    List.filter
      (fun c -> (c.drift > 0. || c.churn > 0.) && c.replan_wins > c.ride_out_wins)
      cells
  in
  Printf.printf "replan beats ride-out in %d/%d dynamic cells\n" (List.length winning_cells)
    (List.length (List.filter (fun c -> c.drift > 0. || c.churn > 0.) cells));
  if !assert_wins && winning_cells = [] then begin
    prerr_endline
      "ASSERTION FAILED: no dynamic cell where replanning beat riding out (expected at \
       least one)";
    exit 1
  end;
  Sweep.write o ~benchmark:"replan-vs-ride-out" ~cell:json_of_cell
    ~header:
      [
        ( "instance",
          {|"Generators.uniform_random default_random_spec, fresh grid per rep"|} );
        ( "protocol",
          "\"ECEF-LA plan; adaptive+reroute reliable run under \
           drift=D,load-off=0,churn=C,recluster=2e5 dynamics; candidates judged by \
           Replan.evaluate on the true drifted instance at quiescence\"" );
        ( "units",
          "{\"drift\": \"walk steps per us per link\", \"churn\": \"1/us per rank \
           (leave and join)\", \"makespan_us\": \"us\"}" );
        ("replan_beats_ride_out_cells", string_of_int (List.length winning_cells));
      ]
    cells
