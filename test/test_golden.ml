(* Golden regression tests: exact expected values for fixed seeds and the
   deterministic GRID5000 topology.  These pin down the numerical behaviour
   of the whole stack — RNG stream, instance generation, heuristic
   tie-breaking, timing arithmetic — so that any silent change to any layer
   trips a test.  If a change is *intentional* (e.g. a new tie-breaking
   rule), regenerate the constants with the printer at the bottom:

     dune exec test/test_golden.exe -- regen *)

module Instance = Gridb_sched.Instance
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Schedule = Gridb_sched.Schedule
module Rng = Gridb_util.Rng
module Session = Gridb_des.Session

let check_golden name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f, got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) < 5e-7 *. Float.max 1. (Float.abs expected))

(* GRID5000 (deterministic topology), 1 MB, root 0: predicted makespans in
   seconds. *)
let grid5000_expectations =
  [
    ("FlatTree", 2.633363);
    ("FEF", 0.600981);
    ("ECEF", 0.600981);
    ("ECEF-LA", 0.600981);
    ("ECEF-LAt", 0.600981);
    ("ECEF-LAT", 0.580931);
    ("BottomUp", 1.089735);
  ]

let test_grid5000_golden () =
  let grid = Gridb_topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  List.iter
    (fun (name, expected) ->
      match Policy.by_name name with
      | None -> Alcotest.failf "unknown heuristic %s" name
      | Some h -> check_golden name expected (Engine.makespan h inst /. 1e6))
    grid5000_expectations

(* Random instance stream: seed 2006, n = 10, first draw. *)
let random_expectations =
  [
    ("FlatTree", 4.607803);
    ("FEF", 3.758756);
    ("ECEF", 3.395731);
    ("ECEF-LA", 3.246838);
    ("ECEF-LAt", 3.466644);
    ("ECEF-LAT", 3.566254);
    ("BottomUp", 3.184820);
  ]

let golden_instance () =
  let rng = Rng.create 2006 in
  Instance.random ~rng ~n:10 Instance.table2_ranges

let test_random_instance_golden () =
  let inst = golden_instance () in
  List.iter
    (fun (name, expected) ->
      match Policy.by_name name with
      | None -> Alcotest.failf "unknown heuristic %s" name
      | Some h -> check_golden name expected (Engine.makespan h inst /. 1e6))
    random_expectations

let test_rng_stream_golden () =
  (* First three raw outputs of the SplitMix64 stream for seed 2006. *)
  let rng = Rng.create 2006 in
  let observed = List.init 3 (fun _ -> Rng.bits64 rng) in
  let as_strings = List.map Int64.to_string observed in
  Alcotest.(check (list string))
    "splitmix64 stream"
    [ "2585961775473798433"; "2846287610197900435"; "5817944072696408171" ]
    as_strings

let test_grid5000_instance_golden () =
  let grid = Gridb_topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  (* T of Orsay-A (31 machines, binomial, 100 MB/s, 47.56 us): pinned. *)
  check_golden "T Orsay-A (ms)" 50.290240 (inst.Instance.intra.(0) /. 1e3);
  check_golden "gap Orsay->IDPOT 1MB (ms)" 769.280769 (Instance.gap inst 0 2 /. 1e3)

(* Golden pin of the DES executors' exact output over a seeded corpus —
   event streams, arrival vectors, protocol counters, at full precision.
   The constant was recorded from the monolithic executors that preceded
   the wire/session split, so [Session.run]/[run_reliable] must reproduce
   every byte: a reassociated float add, a reordered rng draw or a changed
   tie-break in the session layer fails here even though the schedules
   still validate. *)
let exec_corpus_digest = "d505aeb03c59f565c075e1c5b8fb93a6"
let exec_corpus_bytes = 9_195_362

(* Corpus case [i]: clusters, machines, message size and ECEF-LA plan. *)
let corpus_case i =
  let n = 2 + (i mod 9) in
  let rng = Rng.create (21_000 + i) in
  let grid =
    Gridb_topology.Generators.uniform_random ~rng ~n
      Gridb_topology.Generators.default_random_spec
  in
  let machines = Gridb_topology.Machines.expand grid in
  let msg = if i mod 2 = 0 then 1_000_000 else 65_536 in
  let inst = Instance.of_grid ~root:(i mod n) ~msg grid in
  (n, machines, msg, Gridb_des.Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst))

let exec_corpus_buffer () =
  let module Machines = Gridb_topology.Machines in
  let module Faults = Gridb_des.Faults in
  let module Dynamics = Gridb_des.Dynamics in
  let module Sink = Gridb_obs.Sink in
  let module Event = Gridb_obs.Event in
  let buf = Buffer.create 65536 in
  let addf f = Buffer.add_string buf (Printf.sprintf "%.17g," f) in
  let add_arrivals a = Array.iter addf a in
  let add_events sink =
    List.iter
      (fun e ->
        Buffer.add_string buf (Event.to_json e);
        Buffer.add_char buf '\n')
      (Sink.events sink)
  in
  let faults_spec =
    match Faults.of_string "loss=0.05,crash=2e-8,degrade=1e-7" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad fault spec: %s" e
  in
  let dyn_spec =
    match Dynamics.of_string "drift=2e-5,churn=5e-8,recluster=2e5" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad dynamics spec: %s" e
  in
  for i = 0 to 11 do
    let n, machines, msg, plan = corpus_case i in
    let n_ranks = Machines.count machines in
    (* Simple executor: exact and noisy. *)
    let sink = Sink.memory () in
    let r = Session.run (Session.Config.v ~msg ~obs:sink ()) machines plan in
    add_arrivals r.Session.arrival;
    addf r.Session.makespan;
    Buffer.add_string buf (string_of_int r.Session.transmissions);
    add_events sink;
    let r =
      Session.run
        (Session.Config.v ~noise:(Gridb_des.Noise.Lognormal 0.08)
           ~rng:(Rng.create (91_000 + i)) ~msg ())
        machines plan
    in
    add_arrivals r.Session.arrival;
    addf r.Session.makespan;
    (* Reliable executor under faults, all three transports. *)
    List.iter
      (fun transport ->
        let faults = Faults.create ~seed:(61_000 + i) ~n:n_ranks faults_spec in
        let sink = Sink.memory () in
        let r =
          Session.run_reliable
            (Session.Config.v ~rng:(Rng.create (31_000 + i)) ~msg ~obs:sink ~faults
               ~transport ())
            machines plan
        in
        add_arrivals r.Session.r_arrival;
        addf r.Session.r_makespan;
        addf r.Session.horizon;
        Buffer.add_string buf
          (Printf.sprintf "tx=%d,rtx=%d,acks=%d,del=%d,co=%d" r.Session.r_transmissions
             r.Session.retransmissions r.Session.acks r.Session.delivered r.Session.circuit_opens);
        List.iter (fun (p, c) -> Buffer.add_string buf (Printf.sprintf "|g%d>%d" p c)) r.Session.gave_up;
        List.iter
          (fun (d, o, p) -> Buffer.add_string buf (Printf.sprintf "|r%d:%d>%d" d o p))
          r.Session.reroutes;
        add_events sink)
      [ Session.Fixed; Session.adaptive (); Session.adaptive ~reroute:true () ];
    (* Dynamics-bearing reliable run (drift + churn + ticks). *)
    let faults = Faults.create ~seed:(61_000 + i) ~n:n_ranks faults_spec in
    let d = Dynamics.create ~seed:(71_000 + i) ~n:n_ranks ~clusters:n dyn_spec in
    let sink = Sink.memory () in
    let r =
      Session.run_reliable
        (Session.Config.v ~rng:(Rng.create (41_000 + i)) ~msg ~obs:sink ~faults
           ~dynamics:d ~tick_every:dyn_spec.Dynamics.recluster_every
           ~transport:(Session.adaptive ~reroute:true ()) ())
        machines plan
    in
    add_arrivals r.Session.r_arrival;
    addf r.Session.r_makespan;
    addf r.Session.horizon;
    Buffer.add_string buf
      (Printf.sprintf "del=%d,left=%s,joined=%s" r.Session.delivered
         (String.concat "," (List.map string_of_int r.Session.left))
         (String.concat "," (List.map string_of_int r.Session.joined)));
    add_events sink
  done;
  buf

let test_exec_corpus_golden () =
  let buf = exec_corpus_buffer () in
  Alcotest.(check int) "exec corpus size" exec_corpus_bytes (Buffer.length buf);
  Alcotest.(check string)
    "exec corpus digest" exec_corpus_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The corpus's fault-free reliable runs without a sink, where a fixed
   session settles its ACKs without queueing them and no session arms an
   unqueued timer: arrivals, makespan, horizon and counters pinned as
   recorded when every ACK was a queued event. *)
let settled_acks_digest = "91510e495a6616613861ddb7312e91d4"

let test_settled_acks_golden () =
  let buf = Buffer.create 4096 in
  for i = 0 to 11 do
    let _, machines, msg, plan = corpus_case i in
    List.iter
      (fun transport ->
        let r =
          Session.run_reliable
            (Session.Config.v ~rng:(Rng.create (31_000 + i)) ~msg ~transport ())
            machines plan
        in
        Array.iter (fun a -> Printf.bprintf buf "%.17g," a) r.Session.r_arrival;
        Printf.bprintf buf "%.17g,%.17g,tx=%d,rtx=%d,acks=%d,del=%d;" r.Session.r_makespan
          r.Session.horizon r.Session.r_transmissions r.Session.retransmissions
          r.Session.acks r.Session.delivered)
      [ Session.Fixed; Session.adaptive () ]
  done;
  Alcotest.(check string)
    "settled-ACK corpus digest" settled_acks_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let regen () =
  let grid = Gridb_topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  Printf.printf "grid5000 expectations:\n";
  List.iter
    (fun h ->
      Printf.printf "    (%S, %.6f);\n" (Policy.name h)
        (Engine.makespan h inst /. 1e6))
    Policy.all;
  let inst = golden_instance () in
  Printf.printf "random expectations (seed 2006, n=10):\n";
  List.iter
    (fun h ->
      Printf.printf "    (%S, %.6f);\n" (Policy.name h)
        (Engine.makespan h inst /. 1e6))
    Policy.all;
  let rng = Rng.create 2006 in
  Printf.printf "rng stream: %s\n"
    (String.concat "; "
       (List.init 3 (fun _ -> Int64.to_string (Rng.bits64 rng))));
  let grid = Gridb_topology.Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  Printf.printf "T Orsay-A: %.6f ms, gap 0->2: %.6f ms\n"
    (inst.Instance.intra.(0) /. 1e3)
    (Instance.gap inst 0 2 /. 1e3);
  let buf = exec_corpus_buffer () in
  Printf.printf "exec corpus: digest %s, %d bytes\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Buffer.length buf)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "regen" then regen ()
  else begin
    let quick name f = Alcotest.test_case name `Quick f in
    Alcotest.run "golden"
      [
        ( "golden",
          [
            quick "grid5000 makespans" test_grid5000_golden;
            quick "random instance makespans" test_random_instance_golden;
            quick "rng stream" test_rng_stream_golden;
            quick "grid5000 instance values" test_grid5000_instance_golden;
            quick "pre-refactor executor corpus digest" test_exec_corpus_golden;
            quick "settled-ACK corpus digest" test_settled_acks_golden;
          ] );
      ]
  end
