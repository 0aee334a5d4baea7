type outcome = {
  name : string;
  hits : int;
  iterations : int;
  mean_makespan : float;
  stddev_makespan : float;
}

let stderr_makespan o =
  if o.iterations < 1 then 0.
  else o.stddev_makespan /. sqrt (float_of_int o.iterations)

let hit_fraction o =
  if o.iterations = 0 then 0. else float_of_int o.hits /. float_of_int o.iterations

let score ?(epsilon = 1e-9) ?model instances heuristics =
  if heuristics = [] then invalid_arg "Hit_rate: no heuristics";
  let k = List.length heuristics in
  let hits = Array.make k 0 in
  let stats = Array.init k (fun _ -> Gridb_util.Stats.Online.create ()) in
  let count = ref 0 in
  List.iter
    (fun inst ->
      incr count;
      let makespans =
        List.map (fun h -> Engine.makespan ?model h inst) heuristics |> Array.of_list
      in
      let global_min = Array.fold_left Float.min infinity makespans in
      Array.iteri
        (fun i ms ->
          Gridb_util.Stats.Online.add stats.(i) ms;
          if ms <= global_min *. (1. +. epsilon) then hits.(i) <- hits.(i) + 1)
        makespans)
    instances;
  List.mapi
    (fun i h ->
      {
        name = Policy.name h;
        hits = hits.(i);
        iterations = !count;
        mean_makespan = Gridb_util.Stats.Online.mean stats.(i);
        stddev_makespan = Gridb_util.Stats.Online.stddev stats.(i);
      })
    heuristics

let run ?epsilon ?model ~rng ~iterations ~n ranges heuristics =
  if iterations < 1 then invalid_arg "Hit_rate.run: iterations < 1";
  let instances =
    List.init iterations (fun _ -> Instance.random ~rng ~n ranges)
  in
  score ?epsilon ?model instances heuristics

let run_instances ?epsilon ?model instances heuristics =
  score ?epsilon ?model instances heuristics
