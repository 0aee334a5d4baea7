module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule

type event = {
  round : int;
  src : int;
  dst : int;
  start : float;
  arrival : float;
}

type t = {
  root : int;
  n : int;
  events : event list;
  makespan : float;
}

let of_broadcast inst schedule =
  (match Schedule.validate inst schedule with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Reduce_sched.of_broadcast: " ^ reason));
  let horizon = Schedule.makespan ~model:Schedule.After_sends inst schedule in
  (* Mirror: a broadcast transmission occupying [start, arrival] becomes a
     reduce transmission occupying [horizon - arrival, horizon - start],
     flowing dst -> src.  Rounds renumber in the new time order. *)
  let mirrored =
    List.rev_map
      (fun e ->
        {
          round = 0;
          src = e.Schedule.dst;
          dst = e.Schedule.src;
          start = horizon -. e.Schedule.arrival;
          arrival = horizon -. e.Schedule.start;
        })
      schedule.Schedule.events
  in
  let ordered =
    List.stable_sort (fun a b -> Float.compare a.start b.start) mirrored
    |> List.mapi (fun i e -> { e with round = i })
  in
  { root = schedule.Schedule.root; n = schedule.Schedule.n; events = ordered; makespan = horizon }
