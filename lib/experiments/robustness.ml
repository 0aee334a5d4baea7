module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Instance = Gridb_sched.Instance
module Repair = Gridb_sched.Repair
module Machines = Gridb_topology.Machines
module Faults = Gridb_des.Faults
module Dyn = Gridb_des.Dynamics
module Adaptive = Gridb_des.Adaptive
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Noise = Gridb_des.Noise
module Lowekamp = Gridb_clustering.Lowekamp
module Partition = Gridb_clustering.Partition
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type metrics = {
  policy : string;
  spec : Faults.spec;
  dyn : Dyn.spec;
  transport : string;
  retries : int;
  seed : int;
  total_ranks : int;
  delivered : int;
  delivery_ratio : float;
  crashed_ranks : int;
  left_ranks : int;
  joined_ranks : int;
  partition_drift : float option;
  baseline_makespan : float;
  makespan : float;
  inflation : float;
  transmissions : int;
  retransmissions : int;
  acks : int;
  gave_up : int;
  reroutes : int;
  circuit_opens : int;
  repair_invoked : bool;
  repairs : int;
  repaired_makespan : float option;
  estimated_repaired_makespan : float option;
  summary : Session.reliable_summary option;
}

let nominal_partition machines = Lowekamp.detect (Machines.latency_matrix machines)

(* Machine-level partition drift: Lowekamp re-run on the estimator's live
   latency matrix (planning-time ranks only — joins have no planning-time
   pairing to diff against), compared by Rand index against the partition
   the same detector finds on the nominal matrix. *)
let partition_drift ~nominal est machines =
  let n = Machines.count machines in
  let latency ~src ~dst =
    if src >= n || dst >= n then 0. else Machines.latency machines src dst
  in
  let full = Adaptive.estimated_latency_matrix ~symmetric:true est ~nominal:latency in
  let estimated =
    if Array.length full = n then full
    else Array.init n (fun i -> Array.sub full.(i) 0 n)
  in
  1. -. Partition.rand_index nominal (Lowekamp.detect estimated)

(* Cluster-level halt vector: a cluster halts (as a schedule node) when its
   coordinator does — by crash or by departure.  Only halts inside the
   simulated horizon count ([rel.crashed] / [rel.left]); a draw beyond it
   is a future fault, not this run's. *)
let coordinator_halts machines faults dmodel (rel : Session.reliable) =
  Array.init (Gridb_topology.Grid.size (Machines.grid machines)) (fun c ->
      let coord = Machines.coordinator machines c in
      let t = ref infinity in
      if List.mem coord rel.Session.crashed then t := Faults.crash_time faults coord;
      (match dmodel with
      | Some d when List.mem coord rel.Session.left ->
          t := Float.min !t (Dyn.leave_time d coord)
      | _ -> ());
      !t)

let run ?(policy = Policy.ecef_la) ?(msg = 1_000_000) ?(retries = 5) ?(seed = 0)
    ?(noise = Noise.Exact) ?(obs = Sink.null) ?(transport = Session.Fixed)
    ?(dyn = Dyn.none) ?repetitions ?(jobs = 1) ~spec grid =
  let inst = Instance.of_grid ~root:0 ~msg grid in
  let schedule = Sched_engine.run ~obs policy inst in
  let machines = Machines.expand grid in
  let plan = Plan.of_cluster_schedule machines schedule in
  let baseline = Session.run (Session.Config.v ~msg ()) machines plan in
  let n = Machines.count machines in
  let faults = Faults.create ~seed ~n spec in
  (* The dynamics model draws from its own tagged stream so adding churn
     to a faulty scenario never perturbs the fault draws (and vice
     versa). *)
  let dmodel =
    if Dyn.is_none dyn then None
    else
      Some
        (Dyn.create
           ~seed:(seed lxor 0x64796e)
           ~n
           ~clusters:(Gridb_topology.Grid.size grid)
           dyn)
  in
  let rng = Gridb_util.Rng.create seed in
  (* Only the faulty reliable run is observed: the baseline exists purely
     as a reference makespan and would double every send on the stream. *)
  let rel =
    Session.run_reliable
      (Session.Config.v ~noise ~rng ~msg ~faults ?dynamics:dmodel ~retries ~obs ~transport
         ())
      machines plan
  in
  let crash = coordinator_halts machines faults dmodel rel in
  let repair_invoked = Array.exists Float.is_finite crash in
  let repairs, repaired_makespan, estimated_repaired_makespan =
    if repair_invoked then begin
      let o = Repair.repair ~policy inst schedule ~crash in
      if Sink.enabled obs then begin
        let crashed_clusters =
          Array.fold_left (fun acc t -> if Float.is_finite t then acc + 1 else acc) 0 crash
        in
        Sink.emit obs
          (Event.Repair_splice
             { crashed = crashed_clusters; replanned = List.length o.Repair.replanned })
      end;
      let estimated =
        match rel.Session.estimator with
        | None -> None
        | Some est ->
            let o' =
              Repair.repair ~policy
                (Instance.rescale machines (Adaptive.quality est) inst)
                schedule ~crash
            in
            Some o'.Repair.makespan
      in
      (List.length o.Repair.replanned, Some o.Repair.makespan, estimated)
    end
    else (0, None, None)
  in
  let summary =
    Option.map
      (fun repetitions ->
        Session.mean_reliable ~noise ~msg ~repetitions ~retries ~transport ~jobs ~seed
          ~spec machines plan)
      repetitions
  in
  (* The reachable population: planning-time ranks plus joins whose
     arrival fell inside the simulated horizon (later joins never
     happened as far as this run is concerned). *)
  let ntot = n + List.length rel.Session.joined in
  {
    policy = Policy.name policy;
    spec;
    dyn;
    transport = Session.transport_to_string transport;
    retries;
    seed;
    total_ranks = ntot;
    delivered = rel.Session.delivered;
    delivery_ratio = float_of_int rel.Session.delivered /. float_of_int ntot;
    crashed_ranks = List.length rel.Session.crashed;
    left_ranks = List.length rel.Session.left;
    joined_ranks = List.length rel.Session.joined;
    partition_drift =
      Option.map
        (fun est -> partition_drift ~nominal:(nominal_partition machines) est machines)
        rel.Session.estimator;
    baseline_makespan = baseline.Session.makespan;
    makespan = rel.Session.r_makespan;
    inflation =
      (if baseline.Session.makespan > 0. then rel.Session.r_makespan /. baseline.Session.makespan
       else nan);
    transmissions = rel.Session.r_transmissions;
    retransmissions = rel.Session.retransmissions;
    acks = rel.Session.acks;
    gave_up = List.length rel.Session.gave_up;
    reroutes = List.length rel.Session.reroutes;
    circuit_opens = rel.Session.circuit_opens;
    repair_invoked;
    repairs;
    repaired_makespan;
    estimated_repaired_makespan;
    summary;
  }

let render m =
  let table = Gridb_util.Text_table.create ~align:Gridb_util.Text_table.[ Left; Right ] [ "metric"; "value" ] in
  let add label value = Gridb_util.Text_table.add_row table [ label; value ] in
  add "policy" m.policy;
  add "fault spec" (Faults.to_string m.spec);
  add "dynamics spec" (Dyn.to_string m.dyn);
  add "transport" m.transport;
  add "retry budget" (string_of_int m.retries);
  add "seed" (string_of_int m.seed);
  Gridb_util.Text_table.add_separator table;
  add "ranks" (string_of_int m.total_ranks);
  add "delivered" (string_of_int m.delivered);
  add "delivery ratio" (Printf.sprintf "%.4f" m.delivery_ratio);
  add "crashed ranks" (string_of_int m.crashed_ranks);
  add "ranks departed" (string_of_int m.left_ranks);
  add "ranks joined" (string_of_int m.joined_ranks);
  (match m.partition_drift with
  | None -> ()
  | Some d -> add "partition drift" (Printf.sprintf "%.4f" d));
  add "edges given up" (string_of_int m.gave_up);
  add "reroutes" (string_of_int m.reroutes);
  add "circuits opened" (string_of_int m.circuit_opens);
  Gridb_util.Text_table.add_separator table;
  add "fault-free makespan (s)" (Printf.sprintf "%.4f" (m.baseline_makespan /. 1e6));
  add "reliable makespan (s)" (Printf.sprintf "%.4f" (m.makespan /. 1e6));
  add "makespan inflation" (Printf.sprintf "%.3fx" m.inflation);
  add "data transmissions" (string_of_int m.transmissions);
  add "retransmissions" (string_of_int m.retransmissions);
  add "acks delivered" (string_of_int m.acks);
  Gridb_util.Text_table.add_separator table;
  add "repair invoked" (if m.repair_invoked then "yes" else "no");
  add "replanned transmissions" (string_of_int m.repairs);
  add "repaired cluster makespan (s)"
    (match m.repaired_makespan with
    | None -> "-"
    | Some t -> Printf.sprintf "%.4f" (t /. 1e6));
  add "  on estimated parameters (s)"
    (match m.estimated_repaired_makespan with
    | None -> "-"
    | Some t -> Printf.sprintf "%.4f" (t /. 1e6));
  (match m.summary with
  | None -> ()
  | Some s ->
      Gridb_util.Text_table.add_separator table;
      add "repetitions" (string_of_int s.Session.reps);
      add "mean delivered fraction" (Printf.sprintf "%.4f" s.Session.delivered_fraction);
      add "mean retransmissions" (Printf.sprintf "%.2f" s.Session.mean_retransmissions);
      add "mean reroutes" (Printf.sprintf "%.2f" s.Session.mean_reroutes);
      add "mean reliable makespan (s)" (Printf.sprintf "%.4f" (s.Session.mean_makespan /. 1e6));
      add "stddev (s)" (Printf.sprintf "%.4f" (s.Session.stddev_makespan /. 1e6));
      add "edges abandoned (all reps)" (string_of_int s.Session.total_gave_up));
  Gridb_util.Text_table.render table
