let render ?(model = Schedule.After_sends) ?(width = 72) inst (s : Schedule.t) =
  if width < 10 then invalid_arg "Gantt.render: width < 10";
  let n = s.Schedule.n in
  let completions = Schedule.completion_times ~model inst s in
  let makespan = Array.fold_left Float.max 1e-9 completions in
  let column t =
    let c = int_of_float (t /. makespan *. float_of_int width) in
    min (width - 1) (max 0 c)
  in
  let rows = Array.init n (fun _ -> Bytes.make width ' ') in
  let fill row a b ch =
    (* paint [a, b) with ch; at least one cell when the interval is tiny *)
    let ca = column a and cb = max (column a + 1) (column b) in
    for c = ca to min (width - 1) (cb - 1) do
      Bytes.set rows.(row) c ch
    done
  in
  (* waiting phase *)
  for k = 0 to n - 1 do
    if k <> s.Schedule.root then fill k 0. s.Schedule.ready.(k) '.'
  done;
  (* transmissions *)
  List.iter
    (fun e -> fill e.Schedule.src e.Schedule.start e.Schedule.sender_free '>')
    s.Schedule.events;
  (* intra-cluster broadcast *)
  for k = 0 to n - 1 do
    let t = inst.Instance.intra.(k) in
    if t > 0. then begin
      let start =
        match model with
        | Schedule.After_sends -> s.Schedule.busy_until.(k)
        | Schedule.Overlapped -> s.Schedule.ready.(k)
      in
      fill k start (start +. t) '#'
    end
  done;
  let buf = Buffer.create ((width + 16) * (n + 3)) in
  Buffer.add_string buf
    (Printf.sprintf "schedule gantt (root %d, makespan %s)\n" s.Schedule.root
       (Gridb_util.Units.time_to_string makespan));
  for k = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "c%-3d |%s|\n" k (Bytes.to_string rows.(k)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "      0%*s\n" width (Gridb_util.Units.time_to_string makespan));
  Buffer.add_string buf "      . waiting   > sending   # intra-cluster broadcast\n";
  Buffer.contents buf

let print ?model ?width inst s = print_string (render ?model ?width inst s)

let render_events ?(width = 72) events =
  if width < 10 then invalid_arg "Gantt.render_events: width < 10";
  (* Each transmission is one NIC seizure of its sender; arrivals are read
     through their session tags like the transmissions are. *)
  let sends = (Gridb_obs.Trace.of_events events).Gridb_obs.Trace.transmissions in
  let arrivals =
    List.filter_map
      (fun e ->
        match Gridb_obs.Event.untag e with
        | Arrival { dst; time; _ } -> Some (dst, time)
        | _ -> None)
      events
  in
  let n =
    1
    + List.fold_left
        (fun acc (t : Gridb_obs.Trace.transmission) -> max acc (max t.src t.dst))
        (List.fold_left (fun acc (dst, _) -> max acc dst) 0 arrivals)
        sends
  in
  let makespan =
    List.fold_left
      (fun acc (t : Gridb_obs.Trace.transmission) -> Float.max acc t.arrival)
      (List.fold_left (fun acc (_, time) -> Float.max acc time) 1e-9 arrivals)
      sends
  in
  let column t =
    let c = int_of_float (t /. makespan *. float_of_int width) in
    min (width - 1) (max 0 c)
  in
  let rows = Array.init n (fun _ -> Bytes.make width ' ') in
  List.iter
    (fun (t : Gridb_obs.Trace.transmission) ->
      let ca = column t.start and cb = max (column t.start + 1) (column t.gap_end) in
      for c = ca to min (width - 1) (cb - 1) do
        Bytes.set rows.(t.src) c (if t.try_no > 0 then 'r' else '>')
      done)
    sends;
  List.iter (fun (dst, time) -> Bytes.set rows.(dst) (column time) '*') arrivals;
  let buf = Buffer.create ((width + 16) * (n + 3)) in
  Buffer.add_string buf
    (Printf.sprintf "event gantt (makespan %s)\n"
       (Gridb_util.Units.time_to_string makespan));
  for k = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "r%-3d |%s|\n" k (Bytes.to_string rows.(k)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "      0%*s\n" width (Gridb_util.Units.time_to_string makespan));
  Buffer.add_string buf "      > sending   r retransmitting   * message arrival\n";
  Buffer.contents buf
