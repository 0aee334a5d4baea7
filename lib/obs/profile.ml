type session_row = {
  sid : int;
  s_sends : int;  (** data transmissions tagged with this sid *)
  s_busy_us : float;  (** NIC occupancy of those transmissions *)
  s_makespan_us : float;  (** latest tagged arrival *)
}

type report = {
  schedule_us : float;
  transmit_us : float;
  intra_us : float;
  retransmit_us : float;
  makespan_us : float;
  sends : int;
  retransmits : int;
  give_ups : int;
  circuit_opens : int;
  reroutes : int;
  sheds : int;
  requeues : int;
  deadline_misses : int;
  events : int;
  spans : (string * float) list;
  counters : (string * int) list;
  sessions : session_row list;
}

(* Small ordered accumulator: first-seen key order is preserved so reports
   read in the order the producers spoke. *)
let upd assoc k f =
  let rec go = function
    | [] -> [ (k, f None) ]
    | (k', v) :: rest when k' = k -> (k, f (Some v)) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let of_events events =
  let transmit = ref 0. and intra = ref 0. and retransmit = ref 0. in
  let makespan = ref 0. in
  let sends = ref 0 and retransmits = ref 0 and give_ups = ref 0 in
  let circuit_opens = ref 0 and reroutes = ref 0 in
  let sheds = ref 0 and requeues = ref 0 and deadline_misses = ref 0 in
  let open_spans : (string, float list) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref [] and counters = ref [] in
  let total = ref 0 in
  (* Per-correlation-id attribution, in the order a sid first sends or
     receives. *)
  let session_tbl : (int, session_row ref) Hashtbl.t = Hashtbl.create 8 in
  let session_order = ref [] in
  let session sid =
    match Hashtbl.find_opt session_tbl sid with
    | Some r -> r
    | None ->
        let r = ref { sid; s_sends = 0; s_busy_us = 0.; s_makespan_us = 0. } in
        Hashtbl.add session_tbl sid r;
        session_order := sid :: !session_order;
        r
  in
  let tally sid f = match sid with None -> () | Some s -> let r = session s in r := f !r in
  List.iter
    (fun (e : Event.t) ->
      incr total;
      match Event.untag e with
      | Send_start _ -> tally (Event.sid e) Fun.id
      | Arrival { time; _ } ->
          makespan := Float.max !makespan time;
          tally (Event.sid e) (fun r ->
              { r with s_makespan_us = Float.max r.s_makespan_us time })
      | Give_up _ -> incr give_ups
      | Circuit_open _ -> incr circuit_opens
      | Reroute _ -> incr reroutes
      | Shed _ -> incr sheds
      | Retry _ -> incr requeues
      | Deadline_miss _ -> incr deadline_misses
      | Span_start { name; time } ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans name) in
          Hashtbl.replace open_spans name (time :: stack)
      | Span_end { name; time } -> (
          match Hashtbl.find_opt open_spans name with
          | Some (start :: rest) ->
              Hashtbl.replace open_spans name rest;
              spans :=
                upd !spans name (function
                  | None -> time -. start
                  | Some acc -> acc +. (time -. start))
          | _ -> ())
      | Counter { name; value } -> counters := upd !counters name (fun _ -> value)
      | _ -> ())
    events;
  List.iter
    (fun (t : Trace.transmission) ->
      incr sends;
      if t.try_no > 0 then incr retransmits;
      let gap = t.gap_end -. t.start in
      tally t.sid (fun r ->
          { r with s_sends = r.s_sends + 1; s_busy_us = r.s_busy_us +. gap });
      if t.try_no > 0 then retransmit := !retransmit +. gap
      else if t.intra then intra := !intra +. gap
      else transmit := !transmit +. gap)
    (Trace.of_events events).Trace.transmissions;
  {
    schedule_us = (match List.assoc_opt "schedule" !spans with Some v -> v | None -> 0.);
    transmit_us = !transmit;
    intra_us = !intra;
    retransmit_us = !retransmit;
    makespan_us = !makespan;
    sends = !sends;
    retransmits = !retransmits;
    give_ups = !give_ups;
    circuit_opens = !circuit_opens;
    reroutes = !reroutes;
    sheds = !sheds;
    requeues = !requeues;
    deadline_misses = !deadline_misses;
    events = !total;
    spans = !spans;
    counters = !counters;
    sessions =
      List.rev_map (fun sid -> !(Hashtbl.find session_tbl sid)) !session_order;
  }

let render r =
  let table =
    Gridb_util.Text_table.create
      ~align:Gridb_util.Text_table.[ Left; Right ]
      [ "phase"; "value" ]
  in
  let add label value = Gridb_util.Text_table.add_row table [ label; value ] in
  let us label v = add label (Printf.sprintf "%.1f us" v) in
  us "schedule (host)" r.schedule_us;
  us "transmit (inter-cluster)" r.transmit_us;
  us "intra-cluster" r.intra_us;
  us "retransmit" r.retransmit_us;
  us "makespan (simulated)" r.makespan_us;
  Gridb_util.Text_table.add_separator table;
  add "data sends" (string_of_int r.sends);
  add "retransmissions" (string_of_int r.retransmits);
  add "edges given up" (string_of_int r.give_ups);
  add "circuits opened" (string_of_int r.circuit_opens);
  add "reroutes" (string_of_int r.reroutes);
  if r.sheds > 0 then add "requests shed" (string_of_int r.sheds);
  if r.requeues > 0 then add "retry requeues" (string_of_int r.requeues);
  if r.deadline_misses > 0 then add "deadline misses" (string_of_int r.deadline_misses);
  add "events on bus" (string_of_int r.events);
  List.iter
    (fun (name, v) -> if name <> "schedule" then us (Printf.sprintf "span %s" name) v)
    r.spans;
  if r.counters <> [] then Gridb_util.Text_table.add_separator table;
  List.iter (fun (name, v) -> add name (string_of_int v)) r.counters;
  if r.sessions <> [] then begin
    Gridb_util.Text_table.add_separator table;
    List.iter
      (fun s ->
        add
          (Printf.sprintf "session %d" s.sid)
          (Printf.sprintf "%d sends, %.1f us busy, makespan %.1f us" s.s_sends
             s.s_busy_us s.s_makespan_us))
      r.sessions
  end;
  Gridb_util.Text_table.render table
