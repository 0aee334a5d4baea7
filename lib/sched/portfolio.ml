type choice = {
  heuristic : Policy.t;
  schedule : Schedule.t;
  makespan : float;
  evaluated : int;
}

let run ?model ?(heuristics = Policy.all) inst =
  if heuristics = [] then invalid_arg "Portfolio.run: empty heuristic list";
  let scored =
    List.map
      (fun h ->
        let schedule = Engine.run h inst in
        (h, schedule, Schedule.makespan ?model inst schedule))
      heuristics
  in
  let heuristic, schedule, makespan =
    List.fold_left
      (fun ((_, _, best_m) as best) ((_, _, m) as candidate) ->
        if m < best_m then candidate else best)
      (List.hd scored) (List.tl scored)
  in
  { heuristic; schedule; makespan; evaluated = List.length heuristics }

let scheduling_evaluations ?(heuristics = Policy.all) n =
  (* Charged by descriptor: exact for the parameterised ECEF-LA<...> and
     Mixed<...> names too. *)
  List.fold_left
    (fun acc h -> acc +. Overhead.evaluations ~n h)
    0. heuristics
