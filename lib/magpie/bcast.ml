module Machines = Gridb_topology.Machines
module Policy = Gridb_sched.Policy
module Schedule = Gridb_sched.Schedule
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type strategy =
  | Binomial_world
  | Flat_two_level
  | Scheduled of Policy.t
  | Adaptive of Policy.t list

let strategy_name = function
  | Binomial_world -> "binomial-world"
  | Flat_two_level -> "flat-two-level"
  | Scheduled h -> "scheduled:" ^ Policy.name h
  | Adaptive hs -> "adaptive:" ^ String.concat "," (List.map Policy.name hs)

let pick_adaptive tuning hs ~root ~msg =
  if hs = [] then invalid_arg "Magpie.Bcast: Adaptive with no candidates";
  let inst = Tuning.instance tuning ~root ~msg in
  let scored =
    List.map
      (fun h ->
        let s = Tuning.schedule tuning ~heuristic:h ~root ~msg in
        (h, Schedule.makespan inst s))
      hs
  in
  let best, best_makespan =
    List.fold_left
      (fun ((_, bm) as best) ((_, m) as cand) -> if m < bm then cand else best)
      (List.hd scored) (List.tl scored)
  in
  let obs = Tuning.obs tuning in
  if Sink.enabled obs then
    Sink.emit obs
      (Event.Strategy_selected
         { name = Policy.name best; predicted = best_makespan });
  best

let plan tuning strategy ~root ~msg =
  let machines = Tuning.machines tuning in
  match strategy with
  | Binomial_world ->
      Plan.binomial_ranks machines ~root:(Machines.coordinator machines root)
  | Flat_two_level ->
      Plan.of_cluster_schedule machines
        (Tuning.schedule tuning ~heuristic:Policy.flat_tree ~root ~msg)
  | Scheduled h ->
      Plan.of_cluster_schedule machines (Tuning.schedule tuning ~heuristic:h ~root ~msg)
  | Adaptive hs ->
      let h = pick_adaptive tuning hs ~root ~msg in
      Plan.of_cluster_schedule machines (Tuning.schedule tuning ~heuristic:h ~root ~msg)

let predict tuning strategy ~root ~msg =
  let inst = Tuning.instance tuning ~root ~msg in
  match strategy with
  | Binomial_world ->
      (* No cluster-level schedule exists: execute the plan against the
         measured grid's machine view, at the class-rounded size like every
         other prediction. *)
      let measured_machines = Machines.expand (Tuning.measured_grid tuning) in
      let p =
        Plan.binomial_ranks measured_machines
          ~root:(Machines.coordinator measured_machines root)
      in
      let msg = Gridb_service.Plan_cache.bucket_of_size msg in
      let config = Session.Config.v ~msg () in
      (Session.run config measured_machines p).Session.makespan
  | Flat_two_level ->
      Schedule.makespan inst
        (Tuning.schedule tuning ~heuristic:Policy.flat_tree ~root ~msg)
  | Scheduled h ->
      Schedule.makespan inst (Tuning.schedule tuning ~heuristic:h ~root ~msg)
  | Adaptive hs ->
      let h = pick_adaptive tuning hs ~root ~msg in
      Schedule.makespan inst (Tuning.schedule tuning ~heuristic:h ~root ~msg)

let scheduling_cost strategy ~n ~fresh =
  if not fresh then 0.
  else
    match strategy with
    | Binomial_world -> 0.
    | Flat_two_level -> Gridb_sched.Overhead.cost_us ~n Policy.flat_tree
    | Scheduled h -> Gridb_sched.Overhead.cost_us ~n h
    | Adaptive hs ->
        Gridb_sched.Portfolio.scheduling_evaluations ~heuristics:hs n
        *. Gridb_sched.Overhead.default_per_evaluation_us

let execute ?noise ?seed ?(charge_overhead = true) ?obs tuning strategy ~root ~msg =
  let machines = Tuning.machines tuning in
  let n = Gridb_topology.Grid.size (Machines.grid machines) in
  let _, misses_before = Tuning.cache_stats tuning in
  let p = plan tuning strategy ~root ~msg in
  let _, misses_after = Tuning.cache_stats tuning in
  let fresh = misses_after > misses_before in
  let start_delay =
    if charge_overhead then scheduling_cost strategy ~n ~fresh else 0.
  in
  let rng =
    match seed with Some s -> Gridb_util.Rng.create s | None -> Gridb_util.Rng.create 0
  in
  let obs = match obs with Some o -> o | None -> Tuning.obs tuning in
  Session.run (Session.Config.v ?noise ~rng ~start_delay ~msg ~obs ()) machines p
