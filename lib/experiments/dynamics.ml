module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Instance = Gridb_sched.Instance
module Repair = Gridb_sched.Repair
module Replan = Gridb_sched.Replan
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Faults = Gridb_des.Faults
module Dyn = Gridb_des.Dynamics
module Adaptive = Gridb_des.Adaptive
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Noise = Gridb_des.Noise
module Sink = Gridb_obs.Sink

type tick = { at : float; drift : float; divergence : float }

type outcome = {
  policy : string;
  dyn : Dyn.spec;
  spec : Faults.spec;
  seed : int;
  clusters : int;
  total_ranks : int;
  delivered : int;
  delivery_ratio : float;
  makespan : float;
  horizon : float;
  left_ranks : int;
  joined_ranks : int;
  ticks : tick list;
  final_drift : float;
  final_divergence : float;
  departed_clusters : int;
  decision : Replan.decision;
  ride_out : Replan.verdict;
  splice : Replan.verdict;
  replan : Replan.verdict;
}

let chosen o =
  match o.decision with
  | Replan.Ride_out -> o.ride_out
  | Replan.Splice -> o.splice
  | Replan.Replan -> o.replan

let divergence est =
  let n = Adaptive.size est in
  let sum = ref 0. and cnt = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Adaptive.samples est ~src:i ~dst:j > 0 then begin
        sum := !sum +. Float.abs (Adaptive.quality est ~src:i ~dst:j -. 1.);
        incr cnt
      end
    done
  done;
  if !cnt = 0 then 0. else !sum /. float_of_int !cnt

let run ?(policy = Policy.ecef_la) ?(msg = 1_000_000) ?(retries = 5) ?(seed = 0)
    ?(noise = Noise.Exact) ?(obs = Sink.null)
    ?(transport = Session.adaptive ~reroute:true ()) ?(thresholds = Replan.default)
    ?(spec = Faults.none) ~dyn grid =
  let inst = Instance.of_grid ~root:0 ~msg grid in
  let schedule = Sched_engine.run ~obs policy inst in
  let machines = Machines.expand grid in
  let plan = Plan.of_cluster_schedule machines schedule in
  let n = Machines.count machines in
  let nc = Grid.size grid in
  let faults = Faults.create ~seed ~n spec in
  (* Same tagged-seed derivation as Robustness.run: the dynamics draws are
     independent of the fault draws, and both experiments agree on the
     same models at the same seed. *)
  let dmodel =
    if Dyn.is_none dyn then None
    else Some (Dyn.create ~seed:(seed lxor 0x64796e) ~n ~clusters:nc dyn)
  in
  let rng = Gridb_util.Rng.create seed in
  (* The re-clustering trail: at each period boundary the executor hands
     the live estimator to this hook; Lowekamp re-runs on the estimated
     machine matrix and the partition is diffed against plan time.  The
     hook observes only — the run's event stream is the same with the
     trail disabled.  The plan-time partition is detected once, and only
     if an estimator exists. *)
  let nominal = lazy (Robustness.nominal_partition machines) in
  let drift est = Robustness.partition_drift ~nominal:(Lazy.force nominal) est machines in
  let trail = ref [] in
  let on_tick ~now est =
    match est with
    | None -> ()
    | Some est -> trail := { at = now; drift = drift est; divergence = divergence est } :: !trail
  in
  let rel =
    Session.run_reliable
      (Session.Config.v ~noise ~rng ~msg ~faults ?dynamics:dmodel ~on_tick
         ~tick_every:dyn.Dyn.recluster_every ~retries ~obs ~transport ())
      machines plan
  in
  let horizon = rel.Session.horizon in
  (* Cluster-level halt vector at the decision instant. *)
  let halt = Robustness.coordinator_halts machines faults dmodel rel in
  let departed = Array.fold_left (fun a t -> if Float.is_finite t then a + 1 else a) 0 halt in
  let final_drift, final_divergence, i_est =
    match rel.Session.estimator with
    | None -> (0., 0., inst)
    | Some est ->
        (drift est, divergence est, Instance.rescale machines (Adaptive.quality est) inst)
  in
  let decision =
    Replan.decide thresholds ~drift:final_drift ~divergence:final_divergence ~departed
  in
  (* The three candidate responses, all as cluster-level schedules.  The
     full replan is Repair applied to the event-free schedule: sources =
     {root}, orphans = every alive cluster, replanned from the estimated
     instance no earlier than the decision instant. *)
  let splice_schedule =
    (Repair.repair ~policy ~at:horizon i_est schedule ~crash:halt).Repair.schedule
  in
  let replan_schedule =
    (Repair.repair ~policy ~at:horizon i_est
       (Replan.fresh ~root:inst.Instance.root ~n:nc)
       ~crash:halt)
      .Repair.schedule
  in
  (* Ground truth at the decision instant: nominal inter-cluster matrices
     scaled by the actual drift factor on each coordinator link, frozen at
     the horizon.  (Intra-cluster times stay nominal: the dynamics model
     drifts the wide-area links the paper's heuristics reason about.) *)
  let truth =
    match dmodel with
    | None -> inst
    | Some d -> Instance.rescale machines (Dyn.factor d ~at:horizon) inst
  in
  let judge = Replan.evaluate truth ~halt in
  let ntot = n + List.length rel.Session.joined in
  {
    policy = Policy.name policy;
    dyn;
    spec;
    seed;
    clusters = nc;
    total_ranks = ntot;
    delivered = rel.Session.delivered;
    delivery_ratio = float_of_int rel.Session.delivered /. float_of_int ntot;
    makespan = rel.Session.r_makespan;
    horizon;
    left_ranks = List.length rel.Session.left;
    joined_ranks = List.length rel.Session.joined;
    ticks = List.rev !trail;
    final_drift;
    final_divergence;
    departed_clusters = departed;
    decision;
    ride_out = judge schedule;
    splice = judge splice_schedule;
    replan = judge replan_schedule;
  }

let render o =
  let table =
    Gridb_util.Text_table.create
      ~align:Gridb_util.Text_table.[ Left; Right ]
      [ "metric"; "value" ]
  in
  let add label value = Gridb_util.Text_table.add_row table [ label; value ] in
  add "policy" o.policy;
  add "dynamics spec" (Dyn.to_string o.dyn);
  add "fault spec" (Faults.to_string o.spec);
  add "seed" (string_of_int o.seed);
  Gridb_util.Text_table.add_separator table;
  add "clusters" (string_of_int o.clusters);
  add "ranks (incl. joins)" (string_of_int o.total_ranks);
  add "delivered" (string_of_int o.delivered);
  add "delivery ratio" (Printf.sprintf "%.4f" o.delivery_ratio);
  add "ranks departed" (string_of_int o.left_ranks);
  add "ranks joined" (string_of_int o.joined_ranks);
  add "observed makespan (s)" (Printf.sprintf "%.4f" (o.makespan /. 1e6));
  add "horizon (s)" (Printf.sprintf "%.4f" (o.horizon /. 1e6));
  Gridb_util.Text_table.add_separator table;
  add "re-cluster ticks" (string_of_int (List.length o.ticks));
  add "partition drift" (Printf.sprintf "%.4f" o.final_drift);
  add "estimator divergence" (Printf.sprintf "%.4f" o.final_divergence);
  add "departed clusters" (string_of_int o.departed_clusters);
  add "decision" (Replan.decision_to_string o.decision);
  Gridb_util.Text_table.add_separator table;
  let verdict label (v : Replan.verdict) =
    add
      (Printf.sprintf "%s: delivered/stranded" label)
      (Printf.sprintf "%d/%d" v.Replan.delivered_count v.Replan.stranded);
    add
      (Printf.sprintf "%s: makespan (s)" label)
      (Printf.sprintf "%.4f" (v.Replan.makespan /. 1e6))
  in
  verdict "ride-out" o.ride_out;
  verdict "splice" o.splice;
  verdict "replan" o.replan;
  Gridb_util.Text_table.render table
