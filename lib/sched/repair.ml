type outcome = {
  schedule : Schedule.t;
  executed : int;
  replanned : Schedule.event list;
  delivered : bool array;
  sources : int list;
  orphans : int list;
  abandoned : int list;
  dead : int list;
  makespan : float;
}

(* Replay the schedule under the crash vector: which events executed, who
   ended up holding the message, and each coordinator's ready/busy times. *)
let replay inst (schedule : Schedule.t) ~crash =
  let n = inst.Instance.n in
  let delivered = Array.make n false in
  let ready = Array.make n infinity in
  let avail = Array.make n infinity in
  delivered.(schedule.Schedule.root) <- true;
  ready.(schedule.Schedule.root) <- 0.;
  avail.(schedule.Schedule.root) <- 0.;
  let executed =
    List.filter
      (fun (e : Schedule.event) ->
        if delivered.(e.Schedule.src) && crash.(e.Schedule.src) > e.Schedule.start
        then begin
          (* The sender pays the gap even when the receiver is dead. *)
          avail.(e.Schedule.src) <- e.Schedule.sender_free;
          if crash.(e.Schedule.dst) > e.Schedule.arrival then begin
            delivered.(e.Schedule.dst) <- true;
            ready.(e.Schedule.dst) <- e.Schedule.arrival;
            avail.(e.Schedule.dst) <- e.Schedule.arrival
          end;
          true
        end
        else false)
      schedule.Schedule.events
  in
  (executed, delivered, ready, avail)

let renumber events =
  List.mapi (fun round (e : Schedule.event) -> { e with Schedule.round }) events

let repair ?(policy = Policy.ecef_la) ?at inst (schedule : Schedule.t) ~crash =
  let n = inst.Instance.n in
  if Array.length crash <> n then invalid_arg "Repair.repair: crash vector size mismatch";
  let at =
    match at with
    | Some t -> t
    | None ->
        Array.fold_left
          (fun acc t -> if Float.is_finite t then Float.max acc t else acc)
          0. crash
  in
  let executed, delivered, ready, avail = replay inst schedule ~crash in
  let alive c = crash.(c) > at in
  let ids = List.init n Fun.id in
  let dead = List.filter (fun c -> not (alive c)) ids in
  let sources = List.filter (fun c -> delivered.(c) && alive c) ids in
  let orphans = List.filter (fun c -> (not delivered.(c)) && alive c) ids in
  let finish ~replanned ~abandoned ~events =
    let ready = Array.copy ready and busy = Array.copy avail in
    List.iter
      (fun c ->
        ready.(c) <- infinity;
        busy.(c) <- infinity)
      (dead @ abandoned);
    let makespan = ref 0. in
    Array.iteri
      (fun c d ->
        if d && alive c then
          makespan := Float.max !makespan (busy.(c) +. inst.Instance.intra.(c)))
      delivered;
    {
      schedule =
        {
          Schedule.root = schedule.Schedule.root;
          n;
          events = renumber events;
          ready;
          busy_until = busy;
        };
      executed = List.length executed;
      replanned;
      delivered;
      sources;
      orphans;
      abandoned;
      dead;
      makespan = !makespan;
    }
  in
  if orphans = [] then finish ~replanned:[] ~abandoned:[] ~events:executed
  else if sources = [] then finish ~replanned:[] ~abandoned:orphans ~events:executed
  else begin
    (* Residual instance over the surviving clusters only, renumbered
       0 .. n' - 1 in ascending original id. *)
    let back = Array.of_list (sources @ orphans) in
    Array.sort compare back;
    let fwd = Array.make n (-1) in
    Array.iteri (fun i c -> fwd.(c) <- i) back;
    (* Sources may not inject repair transmissions before the detection
       instant; their ready time is history and carries over unchanged. *)
    let seeded =
      List.map (fun c -> (fwd.(c), ready.(c), Float.max avail.(c) at)) sources
    in
    let root_orig =
      List.fold_left
        (fun best c ->
          let a = Float.max avail.(c) at and b = Float.max avail.(best) at in
          if a < b || (a = b && c < best) then c else best)
        (List.hd sources) sources
    in
    let residual = Instance.sub inst ~root:fwd.(root_orig) back in
    let state = State.create_seeded residual ~sources:seeded in
    (* The residual is small (survivors only): the reference naive selector
       is plenty, and it is the tie-breaking oracle the engine reproduces. *)
    while not (State.finished state) do
      let src, dst = Engine.naive_select policy state in
      State.send state ~src ~dst
    done;
    let residual_schedule = State.to_schedule state in
    let replanned =
      List.map
        (fun (e : Schedule.event) ->
          { e with Schedule.src = back.(e.Schedule.src); dst = back.(e.Schedule.dst) })
        residual_schedule.Schedule.events
    in
    List.iter
      (fun (e : Schedule.event) ->
        delivered.(e.Schedule.dst) <- true;
        ready.(e.Schedule.dst) <- e.Schedule.arrival;
        avail.(e.Schedule.dst) <- e.Schedule.arrival;
        avail.(e.Schedule.src) <- Float.max avail.(e.Schedule.src) e.Schedule.sender_free)
      replanned;
    finish ~replanned ~abandoned:[] ~events:(executed @ replanned)
  end
