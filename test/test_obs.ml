(* Tests for the gridb_obs observability bus: JSON round-trips, sink
   semantics, Null-sink bit-identity of instrumented producers, and the stream
   consumers. *)

module Event = Gridb_obs.Event
module Sink = Gridb_obs.Sink
module Profile = Gridb_obs.Profile
module Rng = Gridb_util.Rng
module Topology = Gridb_topology
module Machines = Topology.Machines
module Instance = Gridb_sched.Instance
module Sched_engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Faults = Gridb_des.Faults
module Des_engine = Gridb_des.Engine

let event = Alcotest.testable Event.pp Event.equal

(* --- Event JSON ------------------------------------------------------- *)

let sample_events =
  [
    Event.Send_start { src = 1; dst = 2; time = 3.5; msg = 1_000_000; intra = false; try_no = 0 };
    Event.Send_start { src = 0; dst = 7; time = 0.125; msg = 64; intra = true; try_no = 3 };
    Event.Send_end { src = 1; dst = 2; time = 10.25; arrival = 151.0625 };
    Event.Arrival { src = 1; dst = 2; time = 151.0625 };
    Event.Ack { src = 2; dst = 1; time = 160. };
    Event.Retransmit { src = 1; dst = 2; time = 400.; try_no = 1; rto = 512.5 };
    Event.Give_up { src = 1; dst = 2; time = 9999.75 };
    Event.Circuit_open { src = 1; dst = 2; time = 512.5 };
    Event.Circuit_close { src = 1; dst = 2; time = 2048.25 };
    Event.Reroute { dst = 2; old_parent = 1; new_parent = 5; time = 600.125 };
    Event.Timer_set { id = 4; time = 1.; fire_at = 100. };
    Event.Timer_fire { id = 4; time = 100. };
    Event.Timer_cancel { id = 5; time = 42. };
    Event.Msg_send { src = 0; dst = 3; tag = 7; size = 4096; time = 12. };
    Event.Msg_recv { src = 0; dst = 3; tag = 7; time = 29.5 };
    Event.Recv_timeout { rank = 3; time = 1000. };
    Event.Policy_round { round = 0; src = 0; dst = 4 };
    Event.Heap_op { op = Event.Rescore; receiver = 4; sender = 2 };
    Event.Heap_op { op = Event.Drop; receiver = 1; sender = 0 };
    Event.Cache_hit { key = "ECEF-LA/root=0/class=1048576" };
    Event.Cache_miss { key = "FlatTree/root=2/class=64" };
    Event.Strategy_selected { name = "ECEF-LAT"; predicted = 0.60098e6 };
    Event.Repair_splice { crashed = 1; replanned = 5 };
    Event.Shed { rid = 7; priority = "low"; reason = "backlog 1.25e6 us past watermark"; time = 512.5 };
    Event.Retry { rid = 3; attempt = 2; time = 4096.25 };
    Event.Deadline_miss { rid = 9; deadline = 2e5; finish = 300000.5 };
    Event.Counter { name = "pair_evaluations"; value = 37 };
    Event.Span_start { name = "schedule"; time = 17.0 };
    Event.Span_end { name = "schedule"; time = 43.0 };
  ]

let test_json_roundtrip_all_constructors () =
  List.iter
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> Alcotest.check event (Event.to_json e) e e'
      | Error msg -> Alcotest.failf "%s: %s" (Event.to_json e) msg)
    sample_events

let test_json_escaping () =
  let e = Event.Cache_hit { key = "a\"b\\c\nd\te\x01f" } in
  (match Event.of_json (Event.to_json e) with
  | Ok e' -> Alcotest.check event "escaped key round-trips" e e'
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool)
    "json is one line" false
    (String.contains (Event.to_json e) '\n')

let test_json_rejects_garbage () =
  let bad s =
    match Event.of_json s with
    | Ok e -> Alcotest.failf "accepted %S as %s" s (Event.to_json e)
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{}";
  bad "{\"ev\":\"no_such_event\"}";
  bad "{\"ev\":\"ack\",\"src\":1}"

let float_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int int;
        oneofl [ 0.; -0.; 1e-300; 1.7976931348623157e308; 4.9e-324; 151.0625 ];
      ])

let test_json_float_bitexact =
  (* %.17g printing must reproduce every finite float bit for bit. *)
  QCheck.Test.make ~name:"json floats round-trip bit-exactly" ~count:(Testutil.count 1000)
    (QCheck.make float_gen) (fun t ->
      QCheck.assume (Float.is_finite t);
      match Event.of_json (Event.to_json (Event.Timer_fire { id = 0; time = t })) with
      | Ok (Event.Timer_fire { time; _ }) ->
          Int64.equal (Int64.bits_of_float time) (Int64.bits_of_float t)
      | _ -> false)

(* --- Sinks ------------------------------------------------------------ *)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Sink.enabled Sink.null);
  Alcotest.(check int) "null counts nothing" 0 (Sink.count Sink.null)

let test_memory_sink_order () =
  let mem = Sink.memory () in
  Alcotest.(check bool) "memory enabled" true (Sink.enabled mem);
  List.iter (Sink.emit mem) sample_events;
  Alcotest.(check (list event)) "chronological order" sample_events (Sink.events mem);
  Alcotest.(check int) "count" (List.length sample_events) (Sink.count mem)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "gridb_obs" ".jsonl" in
  let n = Sink.with_jsonl path (fun js ->
      List.iter (Sink.emit js) sample_events;
      Sink.count js)
  in
  Alcotest.(check int) "count" (List.length sample_events) n;
  (match Sink.read path with
  | Ok events -> Alcotest.(check (list event)) "file round-trip" sample_events events
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* --- Producers: bit-identity and streams ------------------------------ *)

let random_grid seed =
  let rng = Rng.create seed in
  Topology.Generators.uniform_random ~rng ~n:8 Topology.Generators.default_random_spec

let multilevel_grid seed =
  let rng = Rng.create seed in
  Topology.Generators.multilevel ~rng
    { Topology.Generators.default_multilevel_spec with sites = 3 }

(* Null-sink runs must be bit-identical to unobserved ones, and observing
   with a Memory sink must not change the simulation either — over both
   topology generators. *)
let test_exec_observation_is_transparent =
  QCheck.Test.make ~name:"observed runs are bit-identical" ~count:(Testutil.count 30)
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, use_multilevel) ->
      let grid = if use_multilevel then multilevel_grid seed else random_grid seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let machines = Machines.expand grid in
      let exec obs =
        let schedule = Sched_engine.run ?obs Gridb_sched.Policy.ecef_la inst in
        let plan = Plan.of_cluster_schedule machines schedule in
        let rng = Rng.create seed in
        Session.run (Session.Config.v ~noise:(Gridb_des.Noise.Lognormal 0.1) ~rng ?obs ())
          machines plan
      in
      let plain = exec None in
      let nulled = exec (Some Sink.null) in
      let observed = exec (Some (Sink.memory ())) in
      plain.Session.arrival = nulled.Session.arrival
      && plain.Session.arrival = observed.Session.arrival
      && plain.Session.makespan = nulled.Session.makespan
      && plain.Session.makespan = observed.Session.makespan
      && plain.Session.transmissions = observed.Session.transmissions)

let test_reliable_observation_is_transparent =
  QCheck.Test.make ~name:"observed reliable runs are bit-identical" ~count:(Testutil.count 20)
    QCheck.(int_bound 1000)
    (fun seed ->
      let grid = random_grid seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let machines = Machines.expand grid in
      let plan =
        Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
      in
      let n = Machines.count machines in
      let spec = { Faults.none with Faults.loss = 0.1 } in
      let reliable obs =
        let faults = Faults.create ~seed ~n spec in
        let rng = Rng.create seed in
        Session.run_reliable (Session.Config.v ~rng ~faults ~retries:3 ?obs ())
          machines plan
      in
      let plain = reliable None in
      let observed = reliable (Some (Sink.memory ())) in
      (* never-reached ranks hold nan: compare arrivals bit for bit *)
      let same_bits a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
             a b
      in
      same_bits plain.Session.r_arrival observed.Session.r_arrival
      && plain.Session.r_makespan = observed.Session.r_makespan
      && plain.Session.retransmissions = observed.Session.retransmissions
      && plain.Session.gave_up = observed.Session.gave_up)

(* JSONL round-trip of a full seeded faulty reliable run; its Memory-sink
   stream holds exactly the run's transmissions, retransmissions included. *)
let test_jsonl_faulty_run_roundtrip () =
  let grid = Topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let machines = Machines.expand grid in
  let plan =
    Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
  in
  let n = Machines.count machines in
  let spec = { Faults.none with Faults.loss = 0.1 } in
  let run_with obs =
    Session.run_reliable
      (Session.Config.v ~rng:(Rng.create 11)
         ~faults:(Faults.create ~seed:11 ~n spec) ~obs ())
      machines plan
  in
  let mem = Sink.memory () in
  let r = run_with mem in
  Alcotest.(check bool) "loss caused retransmissions" true (r.Session.retransmissions > 0);
  Alcotest.(check int) "sink sees every transmission" r.Session.r_transmissions
    (List.length
       (Gridb_obs.Trace.of_events (Sink.events mem)).Gridb_obs.Trace.transmissions);
  let path = Filename.temp_file "gridb_obs_run" ".jsonl" in
  ignore (Sink.with_jsonl path (fun js -> ignore (run_with js)));
  (match Sink.read path with
  | Ok from_file ->
      Alcotest.(check (list event)) "file stream equals memory stream"
        (Sink.events mem) from_file
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* --- Sched engine events ---------------------------------------------- *)

let test_sched_counters_on_bus () =
  let grid = Topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let mem = Sink.memory () in
  let s, stats = Sched_engine.run_stats ~obs:mem Gridb_sched.Policy.ecef_lat_max inst in
  let events = Sink.events mem in
  let counter name =
    List.find_map
      (function
        | Event.Counter { name = n; value } when n = name -> Some value | _ -> None)
      events
  in
  Alcotest.(check (option int)) "pair_evaluations"
    (Some stats.Sched_engine.pair_evaluations)
    (counter "pair_evaluations");
  Alcotest.(check (option int)) "lookahead_terms"
    (Some stats.Sched_engine.lookahead_terms)
    (counter "lookahead_terms");
  Alcotest.(check (option int)) "rescored"
    (Some stats.Sched_engine.rescored)
    (counter "rescored");
  let rounds =
    List.filter (function Event.Policy_round _ -> true | _ -> false) events
  in
  Alcotest.(check int) "one round per scheduled event"
    (List.length s.Gridb_sched.Schedule.events)
    (List.length rounds)

let test_sched_rounds_match_schedule_both_modes () =
  let grid = random_grid 3 in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let picks mode =
    let mem = Sink.memory () in
    ignore (Sched_engine.run ~mode ~obs:mem Gridb_sched.Policy.ecef_la inst);
    List.filter_map
      (function Event.Policy_round { src; dst; _ } -> Some (src, dst) | _ -> None)
      (Sink.events mem)
  in
  Alcotest.(check (list (pair int int)))
    "naive and incremental emit identical picks" (picks `Naive) (picks `Incremental)

(* --- DES engine timer events ------------------------------------------ *)

let test_engine_timer_events () =
  let mem = Sink.memory () in
  let engine = Des_engine.create ~obs:mem () in
  let fired = ref [] in
  let t1 = Des_engine.schedule_timer engine ~time:10. (fun _ -> fired := 1 :: !fired) in
  let t2 = Des_engine.schedule_timer engine ~time:20. (fun _ -> fired := 2 :: !fired) in
  ignore t1;
  Des_engine.cancel engine t2;
  Des_engine.run engine;
  Alcotest.(check (list int)) "only live timer fired" [ 1 ] !fired;
  let kinds =
    List.map
      (function
        | Event.Timer_set { id; _ } -> Printf.sprintf "set:%d" id
        | Event.Timer_cancel { id; _ } -> Printf.sprintf "cancel:%d" id
        | Event.Timer_fire { id; _ } -> Printf.sprintf "fire:%d" id
        | e -> Event.to_json e)
      (Sink.events mem)
  in
  Alcotest.(check (list string))
    "timer lifecycle on the bus"
    [ "set:0"; "set:1"; "cancel:1"; "fire:0" ]
    kinds

(* --- simMPI events ---------------------------------------------------- *)

let test_mpi_events () =
  let machines = Machines.expand (Topology.Grid5000.grid ()) in
  let mem = Sink.memory () in
  let program ~rank ~size:_ =
    if rank = 0 then Gridb_mpi.Runtime.Api.send ~tag:9 ~dst:1 ~msg_size:1024 ()
    else if rank = 1 then begin
      ignore (Gridb_mpi.Runtime.Api.recv ~src:0 ());
      (* nothing else arrives: this deadline must expire *)
      assert (Gridb_mpi.Runtime.Api.recv_timeout ~timeout:50. () = None)
    end
  in
  ignore (Gridb_mpi.Runtime.run_exn ~obs:mem machines program);
  let events = Sink.events mem in
  let has p = List.exists p events in
  Alcotest.(check bool) "msg_send" true
    (has (function Event.Msg_send { src = 0; dst = 1; tag = 9; size = 1024; _ } -> true | _ -> false));
  Alcotest.(check bool) "msg_recv" true
    (has (function Event.Msg_recv { src = 0; dst = 1; tag = 9; _ } -> true | _ -> false));
  Alcotest.(check bool) "recv_timeout" true
    (has (function Event.Recv_timeout { rank = 1; _ } -> true | _ -> false))

(* --- MagPIe events ---------------------------------------------------- *)

let test_magpie_cache_and_strategy_events () =
  let machines = Machines.expand (Topology.Grid5000.grid ()) in
  let mem = Sink.memory () in
  let tuning = Gridb_magpie.Tuning.create ~obs:mem machines in
  let strategy =
    Gridb_magpie.Bcast.Adaptive
      [ Gridb_sched.Policy.ecef_la; Gridb_sched.Policy.flat_tree ]
  in
  ignore (Gridb_magpie.Bcast.execute tuning strategy ~root:0 ~msg:1_000_000);
  ignore (Gridb_magpie.Bcast.execute tuning strategy ~root:0 ~msg:1_000_000);
  let events = Sink.events mem in
  let count p = List.length (List.filter p events) in
  Alcotest.(check bool) "some misses" true
    (count (function Event.Cache_miss _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "repeat broadcast hits" true
    (count (function Event.Cache_hit _ -> true | _ -> false) > 0);
  Alcotest.(check int) "one selection per adaptive execute" 2
    (count (function Event.Strategy_selected _ -> true | _ -> false));
  Alcotest.(check bool) "executor events flow to the same sink" true
    (count (function Event.Send_start _ -> true | _ -> false) > 0)

(* --- Robustness repair event ------------------------------------------ *)

let test_repair_splice_event () =
  let mem = Sink.memory () in
  let metrics =
    Gridb_experiments.Robustness.run ~seed:2 ~obs:mem
      ~spec:{ Faults.none with Faults.crash_rate = 5e-6 }
      (Topology.Grid5000.grid ())
  in
  let splices =
    List.filter_map
      (function Event.Repair_splice { replanned; _ } -> Some replanned | _ -> None)
      (Sink.events mem)
  in
  if metrics.Gridb_experiments.Robustness.repair_invoked then
    Alcotest.(check (list int)) "splice event mirrors metrics"
      [ metrics.Gridb_experiments.Robustness.repairs ]
      splices
  else Alcotest.(check (list int)) "no splice without repair" [] splices

(* --- Consumers -------------------------------------------------------- *)

let profiled_events () =
  let grid = Topology.Grid5000.grid () in
  let mem = Sink.memory () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  Sink.emit mem (Event.Span_start { name = "schedule"; time = 17.0 });
  let schedule = Sched_engine.run ~obs:mem Gridb_sched.Policy.ecef_la inst in
  Sink.emit mem (Event.Span_end { name = "schedule"; time = 43.0 });
  let machines = Machines.expand grid in
  let plan = Plan.of_cluster_schedule machines schedule in
  let r = Session.run (Session.Config.v ~obs:mem ()) machines plan in
  (Sink.events mem, r)

let test_profile_rollup () =
  let events, r = profiled_events () in
  let p = Profile.of_events events in
  Alcotest.(check int) "sends" r.Session.transmissions p.Profile.sends;
  Alcotest.(check int) "no retransmits" 0 p.Profile.retransmits;
  Alcotest.(check (float 1e-6)) "makespan from stream" r.Session.makespan p.Profile.makespan_us;
  Alcotest.(check bool) "schedule span measured" true (p.Profile.schedule_us >= 0.);
  Alcotest.(check bool) "transmit time accumulated" true (p.Profile.transmit_us > 0.);
  Alcotest.(check bool) "intra time accumulated" true (p.Profile.intra_us > 0.);
  Alcotest.(check bool) "counters surfaced" true
    (List.mem_assoc "pair_evaluations" p.Profile.counters);
  let rendered = Profile.render p in
  Alcotest.(check bool) "render mentions makespan" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       m = 0 || go 0
     in
     contains rendered "makespan")

(* Under loss a lost attempt still pairs a Send_start with a Send_end,
   whose arrival never happens: only Arrival events set the makespan. *)
let test_profile_makespan_under_loss () =
  let grid = Topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let machines = Machines.expand grid in
  let plan =
    Plan.of_cluster_schedule machines (Sched_engine.run Gridb_sched.Policy.ecef_la inst)
  in
  let n = Machines.count machines in
  let mem = Sink.memory () in
  let r =
    Session.run_reliable
      (Session.Config.v ~rng:(Rng.create 1)
         ~faults:(Faults.create ~seed:1 ~n { Faults.none with Faults.loss = 0.2 })
         ~obs:mem ())
      machines plan
  in
  Alcotest.(check bool) "loss caused retransmissions" true (r.Session.retransmissions > 0);
  Alcotest.(check (float 1e-6)) "makespan of delivered arrivals" r.Session.r_makespan
    (Profile.of_events (Sink.events mem)).Profile.makespan_us

let test_tagged_json_roundtrip () =
  List.iter
    (fun e ->
      let tagged = Event.tag ~sid:7 e in
      match Event.of_json (Event.to_json tagged) with
      | Ok e' -> Alcotest.check event (Event.to_json tagged) tagged e'
      | Error msg -> Alcotest.failf "%s: %s" (Event.to_json tagged) msg)
    sample_events;
  (* The wire form is the inner object plus one flat "sid" field. *)
  let inner = Event.Arrival { src = 1; dst = 2; time = 3. } in
  let json = Event.to_json (Event.tag ~sid:42 inner) in
  Alcotest.(check bool) "flat sid field" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains json "\"sid\":42");
  (* tag never nests: re-tagging replaces the sid. *)
  let retagged = Event.tag ~sid:9 (Event.tag ~sid:42 inner) in
  Alcotest.(check (option int)) "latest sid wins" (Some 9) (Event.sid retagged);
  Alcotest.check event "untag strips the wrapper" inner (Event.untag retagged)

let test_profile_sessions_rollup () =
  let send sid src dst t0 gap arrival =
    [
      Event.tag ~sid
        (Event.Send_start { src; dst; time = t0; msg = 64; intra = false; try_no = 0 });
      Event.tag ~sid (Event.Send_end { src; dst; time = t0 +. gap; arrival });
      Event.tag ~sid (Event.Arrival { src; dst; time = arrival });
    ]
  in
  let events =
    send 0 0 1 0. 100. 110. @ send 1 2 3 50. 40. 95. @ send 0 1 2 110. 100. 220.
  in
  let p = Profile.of_events events in
  (match p.Profile.sessions with
  | [ s0; s1 ] ->
      Alcotest.(check int) "first-seen order" 0 s0.Profile.sid;
      Alcotest.(check int) "session 0 sends" 2 s0.Profile.s_sends;
      Alcotest.(check (float 1e-9)) "session 0 busy" 200. s0.Profile.s_busy_us;
      Alcotest.(check (float 1e-9)) "session 0 makespan" 220. s0.Profile.s_makespan_us;
      Alcotest.(check int) "session 1 sid" 1 s1.Profile.sid;
      Alcotest.(check int) "session 1 sends" 1 s1.Profile.s_sends;
      Alcotest.(check (float 1e-9)) "session 1 makespan" 95. s1.Profile.s_makespan_us
  | other -> Alcotest.failf "expected 2 session rows, got %d" (List.length other));
  (* The global rollup still sees through the tags. *)
  Alcotest.(check int) "global sends" 3 p.Profile.sends;
  (* Untagged streams produce no session rows. *)
  let untagged = List.map Event.untag events in
  Alcotest.(check int) "untagged stream has no rows" 0
    (List.length (Profile.of_events untagged).Profile.sessions)

let test_gantt_events_renders () =
  let events, _ = profiled_events () in
  let s = Gridb_sched.Gantt.render_events events in
  Alcotest.(check bool) "non-empty" true (String.length s > 100);
  Alcotest.(check bool) "has send glyph" true (String.contains s '>');
  Alcotest.(check bool) "has arrival glyph" true (String.contains s '*');
  Alcotest.check_raises "narrow width"
    (Invalid_argument "Gantt.render_events: width < 10") (fun () ->
      ignore (Gridb_sched.Gantt.render_events ~width:3 events))

(* The one transmission reader: pairs per (sid, link), so two sessions on
   one link interleave safely; a restart keeps the later start; whatever
   does not pair is reported in stream order, open starts last. *)
let test_trace_pairing () =
  let start ?sid dst time =
    let e = Event.Send_start { src = 0; dst; time; msg = 64; intra = false; try_no = 0 } in
    match sid with Some sid -> Event.tag ~sid e | None -> e
  in
  let stop ?sid dst time =
    let e = Event.Send_end { src = 0; dst; time; arrival = time +. 10. } in
    match sid with Some sid -> Event.tag ~sid e | None -> e
  in
  let trace =
    Gridb_obs.Trace.of_events
      [
        start ~sid:1 1 0.; start ~sid:2 1 5.; stop ~sid:2 1 50.; stop ~sid:1 1 100.;
        start 2 200.; start 2 210.; stop 2 300.; stop 3 400.; start 3 500.;
      ]
  in
  Alcotest.(check (list (triple (option int) (float 0.) (float 0.))))
    "paired per session and link"
    [ (Some 2, 5., 50.); (Some 1, 0., 100.); (None, 210., 300.) ]
    (List.map
       (fun (t : Gridb_obs.Trace.transmission) -> (t.sid, t.start, t.gap_end))
       trace.Gridb_obs.Trace.transmissions);
  Alcotest.(check (list string)) "unpaired, in stream order"
    [ "send 0 -> 2 started twice without ending"; "send 0 -> 3 ends without a start";
      "send 0 -> 3 has a start but no end" ]
    (List.map Gridb_obs.Trace.describe trace.Gridb_obs.Trace.unpaired)

(* The session layer tags every event it publishes in a multi-session run:
   the chart of a tagged stream is the chart of its untagged copy. *)
let test_gantt_tagged_events () =
  let events, _ = profiled_events () in
  Alcotest.(check string) "same chart"
    (Gridb_sched.Gantt.render_events events)
    (Gridb_sched.Gantt.render_events (List.map (Event.tag ~sid:0) events))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "event-json",
        [
          quick "all constructors round-trip" test_json_roundtrip_all_constructors;
          quick "string escaping" test_json_escaping;
          quick "rejects garbage" test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest test_json_float_bitexact;
        ] );
      ( "sinks",
        [
          quick "null is disabled" test_null_sink_disabled;
          quick "memory preserves order" test_memory_sink_order;
          quick "jsonl file round-trip" test_jsonl_sink_roundtrip;
        ] );
      ( "transparency",
        [
          QCheck_alcotest.to_alcotest test_exec_observation_is_transparent;
          QCheck_alcotest.to_alcotest test_reliable_observation_is_transparent;
        ] );
      ( "compat",
        [
          quick "jsonl of faulty run round-trips" test_jsonl_faulty_run_roundtrip;
        ] );
      ( "producers",
        [
          quick "sched counters on bus" test_sched_counters_on_bus;
          quick "rounds match in both modes" test_sched_rounds_match_schedule_both_modes;
          quick "engine timer lifecycle" test_engine_timer_events;
          quick "simMPI message plane" test_mpi_events;
          quick "magpie cache and strategy" test_magpie_cache_and_strategy_events;
          quick "repair splice" test_repair_splice_event;
        ] );
      ( "consumers",
        [
          quick "profile rollup" test_profile_rollup;
          quick "profile makespan under loss" test_profile_makespan_under_loss;
          quick "tagged events round-trip" test_tagged_json_roundtrip;
          quick "profile per-session rollup" test_profile_sessions_rollup;
          quick "gantt from events" test_gantt_events_renders;
          quick "gantt reads tagged arrivals" test_gantt_tagged_events;
          quick "trace pairs per session and link" test_trace_pairing;
        ] );
    ]
