type choice = {
  heuristic : string;
  schedule : Schedule.t;
  makespan : float;
  evaluated : int;
}

let run ?model ?(heuristics = Heuristics.all) inst =
  if heuristics = [] then invalid_arg "Portfolio.run: empty heuristic list";
  let scored =
    List.map
      (fun h ->
        let schedule = Heuristics.run h inst in
        (h.Heuristics.name, schedule, Schedule.makespan ?model inst schedule))
      heuristics
  in
  let name, schedule, makespan =
    List.fold_left
      (fun ((_, _, best_m) as best) ((_, _, m) as candidate) ->
        if m < best_m then candidate else best)
      (List.hd scored) (List.tl scored)
  in
  { heuristic = name; schedule; makespan; evaluated = List.length heuristics }

let scheduling_evaluations ?(heuristics = Heuristics.all) n =
  (* Charged by descriptor: exact for the parameterised ECEF-LA<...> and
     Mixed<...> names too. *)
  List.fold_left
    (fun acc h -> acc +. Overhead.evaluations ~n h.Heuristics.policy)
    0. heuristics
