(* Tests for the broadcast-as-a-service layer: topology fingerprints
   (stability, sensitivity), the memoized plan cache (hit identity,
   divergence invalidation, observability), the seeded workload generator,
   predicted-load admission control, the server's jobs-invariance, and the
   multi-session invariants of Gridb_check. *)

module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Generators = Gridb_topology.Generators
module Fingerprint = Gridb_topology.Fingerprint
module Params = Gridb_plogp.Params
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Instance = Gridb_sched.Instance
module Adaptive = Gridb_des.Adaptive
module Session = Gridb_des.Session
module Event = Gridb_obs.Event
module Sink = Gridb_obs.Sink
module Rng = Gridb_util.Rng
module Plan_cache = Gridb_service.Plan_cache
module Workload = Gridb_service.Workload
module Admission = Gridb_service.Admission
module Server = Gridb_service.Server
module I = Gridb_check.Invariant
module Scenario = Gridb_check.Scenario
module Run = Gridb_check.Run

let grid_of_seed ?(n = 4) seed =
  let spec = { Generators.default_random_spec with cluster_size = (1, 4) } in
  Generators.uniform_random ~rng:(Rng.create seed) ~n spec

let machines_of_seed ?n seed = Machines.expand (grid_of_seed ?n seed)

let fresh_schedule machines ~root ~msg ~policy =
  let h = Option.get (Policy.by_name policy) in
  Engine.run h (Instance.of_grid ~root ~msg (Machines.grid machines))

(* --- fingerprint ------------------------------------------------------- *)

let test_fingerprint_stable () =
  for seed = 0 to 9 do
    let g = grid_of_seed seed in
    let a = Fingerprint.of_machines (Machines.expand g) in
    let b = Fingerprint.of_machines (Machines.expand g) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: same grid, same fingerprint" seed)
      true (Fingerprint.equal a b)
  done

let test_fingerprint_distinguishes_grids () =
  for seed = 0 to 9 do
    let a = Fingerprint.of_machines (machines_of_seed seed) in
    let b = Fingerprint.of_machines (machines_of_seed (seed + 1)) in
    Alcotest.(check bool)
      (Printf.sprintf "seeds %d vs %d differ" seed (seed + 1))
      false (Fingerprint.equal a b)
  done

let test_fingerprint_sensitive_to_perturbation () =
  for seed = 0 to 9 do
    let g = grid_of_seed seed in
    let base = Fingerprint.of_machines (Machines.expand g) in
    (* Nudge a single inter-cluster link by 0.01%: any bit-level parameter
       change must move the hash. *)
    let perturbed =
      Grid.map_links
        (fun i j p ->
          if i = 0 && j = 1 then Params.rescale ~gap_factor:1. ~latency_factor:1.0001 p
          else p)
        g
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: perturbed link moves the fingerprint" seed)
      false
      (Fingerprint.equal base (Fingerprint.of_machines (Machines.expand perturbed)))
  done

let test_fingerprint_to_string () =
  let fp = Fingerprint.of_machines (machines_of_seed 3) in
  let s = Fingerprint.to_string fp in
  Alcotest.(check int) "16 hex digits" 16 (String.length s);
  String.iter
    (fun c ->
      Alcotest.(check bool) "lowercase hex" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    s

(* --- plan cache -------------------------------------------------------- *)

let test_bucket_of_size () =
  List.iter
    (fun (msg, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket of %d" msg) want
        (Plan_cache.bucket_of_size msg))
    [ (0, 64); (1, 64); (64, 64); (65, 128); (65_536, 65_536); (1_000_000, 1_048_576) ];
  Alcotest.check_raises "negative size"
    (Invalid_argument "Plan_cache.bucket_of_size: negative size") (fun () ->
      ignore (Plan_cache.bucket_of_size (-1)))

let test_cache_hit_returns_identical_plan () =
  let machines = machines_of_seed 11 in
  let fingerprint = Fingerprint.of_machines machines in
  let cache = Plan_cache.create () in
  let k = Plan_cache.key ~fingerprint ~root:1 ~msg:70_000 ~policy:"ECEF" in
  let compute () =
    fresh_schedule machines ~root:1 ~msg:(Plan_cache.bucket_of_size 70_000)
      ~policy:"ECEF"
  in
  let s1, kind1 = Plan_cache.lookup cache k ~compute in
  let s2, kind2 = Plan_cache.lookup cache k ~compute in
  Alcotest.(check bool) "first lookup misses" true (kind1 = `Miss);
  Alcotest.(check bool) "second lookup hits" true (kind2 = `Hit);
  Alcotest.(check bool) "cached plan is the stored one" true (s1 == s2);
  Alcotest.(check bool) "cached plan equals a fresh compute" true (s2 = compute ());
  let stats = Plan_cache.stats cache in
  Alcotest.(check int) "one hit" 1 stats.Plan_cache.hits;
  Alcotest.(check int) "one miss" 1 stats.Plan_cache.misses;
  Alcotest.(check int) "no invalidations" 0 stats.Plan_cache.invalidations;
  Alcotest.(check int) "one entry" 1 stats.Plan_cache.entries

let test_cache_key_buckets_msg () =
  let machines = machines_of_seed 11 in
  let fingerprint = Fingerprint.of_machines machines in
  let a = Plan_cache.key ~fingerprint ~root:0 ~msg:65_537 ~policy:"ECEF" in
  let b = Plan_cache.key ~fingerprint ~root:0 ~msg:100_000 ~policy:"ECEF" in
  let c = Plan_cache.key ~fingerprint ~root:0 ~msg:65_536 ~policy:"ECEF" in
  Alcotest.(check bool) "same bucket, same key" true (a = b);
  Alcotest.(check bool) "different bucket, different key" false (a = c)

(* Degrade three links of a 3-rank estimator to quality 2: mean drift
   3/9 = 0.33 > 0.25 forces a divergence recomputation. *)
let diverged_estimator () =
  let est = Adaptive.create ~n:3 () in
  List.iter
    (fun (src, dst) ->
      ignore (Adaptive.rto est ~src ~dst ~nominal:100. ~fallback:1_000.);
      ignore (Adaptive.on_sample est ~src ~dst ~rtt:200. ~retransmitted:false ~now:0.))
    [ (0, 1); (1, 2); (2, 0) ];
  est

let test_cache_divergence_invalidates () =
  let machines = machines_of_seed 12 ~n:3 in
  let fingerprint = Fingerprint.of_machines machines in
  let cache = Plan_cache.create () in
  let k = Plan_cache.key ~fingerprint ~root:0 ~msg:65_536 ~policy:"ECEF-LA" in
  let compute () =
    fresh_schedule machines ~root:0 ~msg:65_536 ~policy:"ECEF-LA"
  in
  (* Planned under nominal conditions (no estimator: snapshot = all 1.). *)
  let _, kind1 = Plan_cache.lookup cache k ~compute in
  Alcotest.(check bool) "miss" true (kind1 = `Miss);
  let est = diverged_estimator () in
  let _, kind2 = Plan_cache.lookup cache ~estimator:est k ~compute in
  Alcotest.(check bool) "drifted estimator invalidates" true (kind2 = `Invalidated);
  (* The recomputed entry snapshots the drifted matrix: same estimator
     state now reads as zero drift. *)
  let _, kind3 = Plan_cache.lookup cache ~estimator:est k ~compute in
  Alcotest.(check bool) "re-snapshot hits" true (kind3 = `Hit);
  let stats = Plan_cache.stats cache in
  Alcotest.(check int) "invalidations counted" 1 stats.Plan_cache.invalidations;
  (* Mild drift stays under the threshold: a fresh estimator with no
     samples reads quality 1. everywhere. *)
  let nominal = Adaptive.create ~n:3 () in
  let _, kind4 = Plan_cache.lookup cache ~estimator:nominal k ~compute in
  Alcotest.(check bool) "nominal estimator vs drifted snapshot invalidates again" true
    (kind4 = `Invalidated)

let test_cache_emits_events_and_counters () =
  let machines = machines_of_seed 13 in
  let fingerprint = Fingerprint.of_machines machines in
  let sink = Sink.memory () in
  let cache = Plan_cache.create ~obs:sink () in
  let k = Plan_cache.key ~fingerprint ~root:0 ~msg:64 ~policy:"FlatTree" in
  let compute () = fresh_schedule machines ~root:0 ~msg:64 ~policy:"FlatTree" in
  ignore (Plan_cache.lookup cache k ~compute);
  ignore (Plan_cache.lookup cache k ~compute);
  let events = Sink.events sink in
  let key = Plan_cache.key_string k in
  Alcotest.(check bool) "miss event" true
    (List.exists (function Event.Cache_miss { key = k' } -> k' = key | _ -> false) events);
  Alcotest.(check bool) "hit event" true
    (List.exists (function Event.Cache_hit { key = k' } -> k' = key | _ -> false) events);
  let last_counter name =
    List.fold_left
      (fun acc e ->
        match e with
        | Event.Counter { name = n; value } when n = name -> Some value
        | _ -> acc)
      None events
  in
  Alcotest.(check (option int)) "hits counter" (Some 1) (last_counter "plan_cache.hits");
  Alcotest.(check (option int)) "misses counter" (Some 1) (last_counter "plan_cache.misses")

let test_cache_clear () =
  let machines = machines_of_seed 14 in
  let fingerprint = Fingerprint.of_machines machines in
  let cache = Plan_cache.create () in
  let k = Plan_cache.key ~fingerprint ~root:0 ~msg:64 ~policy:"ECEF" in
  let compute () = fresh_schedule machines ~root:0 ~msg:64 ~policy:"ECEF" in
  ignore (Plan_cache.lookup cache k ~compute);
  Alcotest.(check bool) "entry present" true (Plan_cache.find cache k <> None);
  Plan_cache.clear cache;
  Alcotest.(check bool) "entry gone" true (Plan_cache.find cache k = None);
  Alcotest.(check int) "counters survive clear" 1
    (Plan_cache.stats cache).Plan_cache.misses

(* --- workload ---------------------------------------------------------- *)

let test_workload_deterministic () =
  let machines = machines_of_seed 20 in
  let a = Workload.generate ~seed:5 ~rate:5e-5 ~duration:1e6 machines in
  let b = Workload.generate ~seed:5 ~rate:5e-5 ~duration:1e6 machines in
  Alcotest.(check bool) "equal seeds, equal streams" true (a = b);
  let c = Workload.generate ~seed:6 ~rate:5e-5 ~duration:1e6 machines in
  Alcotest.(check bool) "different seed, different stream" false (a = c)

let test_workload_shape () =
  let machines = machines_of_seed 21 in
  let requests = Workload.generate ~seed:1 ~rate:1e-4 ~duration:1e6 machines in
  Alcotest.(check bool) "non-empty at this rate" true (requests <> []);
  List.iteri
    (fun i (r : Workload.request) ->
      Alcotest.(check int) "dense rid" i r.Workload.rid;
      Alcotest.(check bool) "arrival in (0, duration]" true
        (r.Workload.at > 0. && r.Workload.at <= 1e6))
    requests;
  let rec chronological = function
    | a :: (b : Workload.request) :: rest ->
        Alcotest.(check bool) "non-decreasing arrivals" true
          (a.Workload.at <= b.Workload.at);
        chronological (b :: rest)
    | _ -> ()
  in
  chronological requests

let test_workload_validation () =
  let machines = machines_of_seed 22 in
  Alcotest.check_raises "non-positive rate"
    (Invalid_argument "Workload.generate: rate must be positive") (fun () ->
      ignore (Workload.generate ~seed:0 ~rate:0. ~duration:1e6 machines));
  (* A NaN rate passes [rate <= 0.], and an infinite one draws zero gaps:
     either used to loop forever, consing one request per pass. *)
  List.iter
    (fun (name, rate, duration) ->
      Alcotest.check_raises name
        (Invalid_argument "Workload.generate: rate and duration must be finite")
        (fun () -> ignore (Workload.generate ~seed:0 ~rate ~duration machines)))
    [
      ("NaN rate", Float.nan, 1e6); ("infinite rate", infinity, 1e6);
      ("NaN duration", 1e-5, Float.nan); ("infinite duration", 1e-5, infinity);
    ];
  Alcotest.check_raises "infinite retry backoff"
    (Invalid_argument "Server.retry: backoff_us must be finite") (fun () ->
      ignore (Server.retry ~backoff_us:infinity ()));
  let bad_mix =
    {
      Workload.roots = [| 0 |];
      msgs = [| 64 |];
      policies = [| "NoSuchPolicy" |];
      deadlines = [| infinity |];
      high_frac = 0.;
    }
  in
  Alcotest.(check bool) "unknown policy rejected" true
    (try
       ignore (Workload.generate ~mix:bad_mix ~seed:0 ~rate:1e-5 ~duration:1e6 machines);
       false
     with Invalid_argument _ -> true)

let test_mix_round_trip () =
  let machines = machines_of_seed 22 in
  let round m =
    match Workload.mix_of_string machines (Workload.mix_to_string m) with
    | Ok m' -> m'
    | Error e -> Alcotest.failf "round trip of %S: %s" (Workload.mix_to_string m) e
  in
  let check_mix name m =
    Alcotest.(check bool) name true (round m = m)
  in
  check_mix "default mix round-trips" (Workload.default_mix machines);
  check_mix "chaotic mix round-trips"
    {
      Workload.roots = [| 0; 2 |];
      msgs = [| 65_536 |];
      policies = [| "ECEF" |];
      deadlines = [| 2e5; infinity |];
      high_frac = 0.25;
    };
  (* A Mixed policy carries its own '|' inside the angle brackets. *)
  check_mix "mixed policy round-trips"
    {
      (Workload.default_mix machines) with
      Workload.policies = [| "Mixed<FEF|ECEF@1000>"; "ECEF-LA<min-edge+T>"; "FEF" |];
    };
  Alcotest.(check bool) "\"default\" is the default mix" true
    (Workload.mix_of_string machines "default"
    = Ok (Workload.default_mix machines))

let test_mix_errors_name_keys () =
  let machines = machines_of_seed 22 in
  let err s =
    match Workload.mix_of_string machines s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> e
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let check_names s fragment =
    let e = err s in
    Alcotest.(check bool)
      (Printf.sprintf "%S error %S names %S" s e fragment)
      true (contains e fragment)
  in
  check_names "roots=x" "mix key \"roots\"";
  check_names "msgs=1|oops" "mix key \"msgs\"";
  check_names "deadlines=-5" "deadline must be positive";
  check_names "high=1.5" "mix key \"high\"";
  check_names "roots=99" "root cluster out of range";
  check_names "colour=blue" "unknown key";
  check_names "roots" "expected key=value"

(* --- admission --------------------------------------------------------- *)

let test_admission_concurrency_cap () =
  let a = Admission.create ~max_concurrent:2 () in
  let admit now =
    match Admission.decide a ~now ~predicted_makespan:100. with
    | Admission.Admit -> true
    | Admission.Reject _ -> false
  in
  Alcotest.(check bool) "first admitted" true (admit 0.);
  Alcotest.(check bool) "second admitted" true (admit 0.);
  Alcotest.(check bool) "third rejected at the cap" false (admit 0.);
  Alcotest.(check int) "two inflight" 2 (Admission.inflight a ~now:0.);
  (* Predicted finishes pass: slots free up. *)
  Alcotest.(check bool) "admitted again after drain" true (admit 200.);
  Alcotest.(check int) "one inflight after drain" 1 (Admission.inflight a ~now:200.)

let test_admission_backlog_budget () =
  (* Backlog = latest predicted finish minus now, judged on the queue as it
     stands (the candidate books its own finish only on admit). *)
  let a = Admission.create ~max_concurrent:100 ~max_backlog_us:250. () in
  let decide now predicted = Admission.decide a ~now ~predicted_makespan:predicted in
  Alcotest.(check bool) "empty queue admits" true (decide 0. 300. = Admission.Admit);
  Alcotest.(check bool) "backlog over budget rejects" true
    (match decide 0. 10. with Admission.Reject _ -> true | _ -> false);
  Alcotest.(check bool) "admits again once the backlog drains" true
    (decide 100. 10. = Admission.Admit)

let test_admission_boundary_exact_finish () =
  (* A predicted finish is exclusive: a session booked to finish at t has
     drained by an arrival at exactly t. *)
  let a = Admission.create ~max_concurrent:1 () in
  Alcotest.(check bool) "books the only slot" true
    (Admission.decide a ~now:0. ~predicted_makespan:100. = Admission.Admit);
  Alcotest.(check int) "inflight just before the finish" 1
    (Admission.inflight a ~now:99.999);
  Alcotest.(check int) "drained at exactly the predicted finish" 0
    (Admission.inflight a ~now:100.);
  Alcotest.(check bool) "arrival exactly at the finish admits" true
    (Admission.decide a ~now:100. ~predicted_makespan:50. = Admission.Admit)

let test_admission_boundary_exact_backlog () =
  (* The backlog budget is inclusive: rejection needs backlog strictly
     past it. *)
  let a = Admission.create ~max_concurrent:100 ~max_backlog_us:250. () in
  Alcotest.(check bool) "books a finish at 300" true
    (Admission.decide a ~now:0. ~predicted_makespan:300. = Admission.Admit);
  (match Admission.decide a ~now:40. ~predicted_makespan:10. with
  | Admission.Reject (Admission.Backlog b) ->
      Alcotest.(check (float 1e-9)) "reason carries the backlog" 260. b
  | other ->
      Alcotest.failf "backlog 260 > 250 should reject, got %s"
        (match other with Admission.Admit -> "Admit" | _ -> "other reason"));
  Alcotest.(check bool) "backlog exactly at the budget admits" true
    (Admission.decide a ~now:50. ~predicted_makespan:10. = Admission.Admit)

let test_admission_single_slot_drain_ordering () =
  (* max_concurrent = 1 forces strict alternation: each admit books a
     finish, every arrival before it bounces, the first at-or-after lands. *)
  let a = Admission.create ~max_concurrent:1 () in
  let outcomes =
    List.map
      (fun (now, predicted) ->
        match Admission.decide a ~now ~predicted_makespan:predicted with
        | Admission.Admit -> "admit"
        | Admission.Reject (Admission.Concurrency _) -> "full"
        | Admission.Reject _ -> "other")
      [ (0., 100.); (10., 5.); (99., 5.); (100., 50.); (149., 5.); (150., 10.) ]
  in
  Alcotest.(check (list string))
    "strict alternation through the single slot"
    [ "admit"; "full"; "full"; "admit"; "full"; "admit" ]
    outcomes

(* --- server ------------------------------------------------------------ *)

let server_fixture ?(seed = 30) ?(rate = 4e-5) () =
  let machines = machines_of_seed seed in
  let requests = Workload.generate ~seed ~rate ~duration:1e6 machines in
  (machines, requests)

let test_server_accounting () =
  let machines, requests = server_fixture () in
  let sink = Sink.memory () in
  let report = Server.run ~obs:sink machines requests in
  Alcotest.(check int) "one outcome per request" (List.length requests)
    (Array.length report.Server.outcomes);
  Alcotest.(check int) "admitted + rejected = requests" report.Server.requests
    (report.Server.admitted + report.Server.rejected);
  let stats = report.Server.cache_stats in
  Alcotest.(check int) "one cache lookup per request" report.Server.requests
    (stats.Plan_cache.hits + stats.Plan_cache.misses);
  (* No faults: every admitted session delivers its full population. *)
  Alcotest.(check int) "all admitted sessions deliver everyone"
    (report.Server.admitted * Machines.count machines)
    report.Server.delivered

let test_server_jobs_invariant () =
  let machines, requests = server_fixture ~seed:31 () in
  let lines jobs = Server.smoke_lines (Server.run ~jobs machines requests) in
  Alcotest.(check (list string)) "smoke lines identical at jobs 1 vs 4" (lines 1)
    (lines 4)

let test_server_multi_session_invariants () =
  let machines, requests = server_fixture ~seed:32 ~rate:8e-5 () in
  let n = Machines.count machines in
  let sink = Sink.memory () in
  let report = Server.run ~obs:sink machines requests in
  Alcotest.(check bool) "some concurrency in the fixture" true
    (report.Server.admitted >= 2);
  let events = Sink.events sink in
  (match I.sessions_nic_serialization ~n events with
  | Ok () -> ()
  | Error v -> Alcotest.failf "shared wire: %a" I.pp_violation v);
  let sessions = I.split_sessions events in
  Alcotest.(check int) "one tagged session per admitted request"
    report.Server.admitted (List.length sessions);
  List.iter
    (fun (sid, evs) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d untagged after split" sid)
        true
        (List.for_all (fun e -> Event.sid e = None) evs);
      match I.stream_receive_at_most_once ~n evs with
      | Ok () -> ()
      | Error v -> Alcotest.failf "session %d: %a" sid I.pp_violation v)
    sessions

(* Fault-free sessions settle leaf deliveries at the send, skipping the
   receiver's NIC bookkeeping, only when no sink is set: the untraced serve
   must equal the traced one on the shared wire. *)
let test_server_untraced_matches_traced () =
  let machines, requests = server_fixture ~seed:32 ~rate:8e-5 () in
  let quiet = Server.run ~obs:Sink.null machines requests in
  let traced = Server.run ~obs:(Sink.memory ()) machines requests in
  Alcotest.(check (list string)) "smoke lines" (Server.smoke_lines traced)
    (Server.smoke_lines quiet);
  Alcotest.(check (float 0.)) "horizon" traced.Server.horizon_us quiet.Server.horizon_us;
  let arrivals (r : Server.report) =
    Array.map
      (fun o -> Option.map (fun res -> res.Session.r_arrival) o.Server.result)
      r.Server.outcomes
  in
  Alcotest.(check (array (option (array (float 0.))))) "every outcome's arrivals"
    (arrivals traced) (arrivals quiet)

let test_server_rejects_out_of_order () =
  let machines = machines_of_seed 33 in
  let r rid at =
    {
      Workload.rid;
      at;
      root = 0;
      msg = 64;
      policy = "ECEF";
      deadline = infinity;
      priority = Workload.Low;
    }
  in
  Alcotest.check_raises "out-of-order requests"
    (Invalid_argument "Server.run: requests not in arrival order") (fun () ->
      ignore (Server.run machines [ r 0 100.; r 1 50. ]))

(* Cluster 0's own gap table falls, so at 5,000 bytes its intra-cluster
   sends would replay at a negative gap, while its binomial [T_k] stays
   finite and [Instance.of_grid] accepts the grid.  [Server.run] checks
   every request size before planning and names the cluster. *)
let test_server_refuses_negative_gap () =
  let text =
    String.concat "\n"
      [
        "grid 2";
        "cluster 0 a 4 L 10 G 0:1000,1:999";
        "cluster 1 b 4 L 10 G 0:10,1000000:1000";
        "link 0 1 L 100 G 0:10,1000000:1000";
        "link 1 0 L 100 G 0:10,1000000:1000";
      ]
  in
  let machines =
    Machines.expand (Result.get_ok (Gridb_topology.Serialize.of_string text))
  in
  let request msg =
    {
      Workload.rid = 0;
      at = 0.;
      root = 1;
      msg;
      policy = "ECEF";
      deadline = infinity;
      priority = Workload.Low;
    }
  in
  let report = Server.run machines [ request 500 ] in
  Alcotest.(check int) "a size the gap table covers is served" 8 report.Server.delivered;
  Alcotest.check_raises "a negative gap is refused before planning"
    (Invalid_argument
       "Server.run: cluster 0: intra-cluster gap at message size 5000 bytes is -4000 us, \
        not finite and >= 0") (fun () ->
      ignore (Server.run machines [ request 500; { (request 5000) with Workload.rid = 1 } ]))

(* --- zero-chaos regression pin ----------------------------------------- *)

(* The exact smoke rendering of the seed-30 fixture served with every
   default (no faults, no dynamics, no retries, no shedding, no deadlines).
   The resilience machinery must leave this byte-identical: any drift here
   means the zero-chaos identity broke.  Regenerate only on a deliberate
   output-format change. *)
let zero_chaos_golden =
  [
    "req 0   at=10392.2 root=0 msg=65536 policy=ECEF-LA cache=miss admitted delivered=11/11 makespan=47368.6";
    "req 1   at=13177.1 root=0 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=61537.0";
    "req 2   at=75788.1 root=2 msg=65536 policy=ECEF cache=miss admitted delivered=11/11 makespan=62384.7";
    "req 3   at=88923.1 root=2 msg=1000000 policy=ECEF cache=miss admitted delivered=11/11 makespan=1167354.5";
    "req 4   at=101168.3 root=2 msg=1000000 policy=ECEF-LA cache=miss admitted delivered=11/11 makespan=1726844.1";
    "req 5   at=103994.6 root=0 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=346074.8";
    "req 6   at=107536.2 root=0 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=364997.9";
    "req 7   at=111215.0 root=1 msg=1000000 policy=ECEF cache=miss admitted delivered=11/11 makespan=446694.3";
    "req 8   at=117473.1 root=2 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=2431371.6";
    "req 9   at=117710.2 root=2 msg=65536 policy=ECEF cache=hit admitted delivered=11/11 makespan=2443130.7";
    "req 10  at=147846.2 root=1 msg=65536 policy=ECEF cache=miss admitted delivered=11/11 makespan=414116.8";
    "req 11  at=169181.8 root=0 msg=1000000 policy=ECEF cache=miss admitted delivered=11/11 makespan=1133221.9";
    "req 12  at=220557.2 root=0 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=1082022.1";
    "req 13  at=221049.4 root=2 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=2496479.0";
    "req 14  at=268299.9 root=1 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=725471.9";
    "req 15  at=328618.0 root=1 msg=1000000 policy=ECEF-LA cache=miss admitted delivered=11/11 makespan=1300075.4";
    "req 16  at=352327.4 root=2 msg=1000000 policy=ECEF-LA cache=hit rejected (concurrency limit (8 in flight))";
    "req 17  at=361045.8 root=2 msg=65536 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 18  at=429548.7 root=1 msg=1000000 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 19  at=435801.3 root=2 msg=1000000 policy=ECEF-LA cache=hit rejected (concurrency limit (8 in flight))";
    "req 20  at=437134.2 root=0 msg=65536 policy=ECEF cache=miss rejected (concurrency limit (8 in flight))";
    "req 21  at=441574.1 root=1 msg=65536 policy=ECEF-LA cache=miss rejected (concurrency limit (8 in flight))";
    "req 22  at=465126.5 root=2 msg=1000000 policy=ECEF-LA cache=hit rejected (concurrency limit (8 in flight))";
    "req 23  at=465504.7 root=1 msg=65536 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 24  at=508952.0 root=1 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=1123090.4";
    "req 25  at=518847.0 root=2 msg=65536 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 26  at=528690.2 root=1 msg=1000000 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 27  at=578369.4 root=2 msg=1000000 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=2293125.8";
    "req 28  at=578490.1 root=2 msg=1000000 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=2446971.8";
    "req 29  at=585230.6 root=1 msg=1000000 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=1153369.1";
    "req 30  at=590375.9 root=2 msg=65536 policy=ECEF-LA cache=miss admitted delivered=11/11 makespan=2422909.5";
    "req 31  at=605044.2 root=0 msg=1000000 policy=ECEF-LA cache=miss admitted delivered=11/11 makespan=1408270.7";
    "req 32  at=607139.0 root=0 msg=1000000 policy=ECEF cache=hit rejected (concurrency limit (8 in flight))";
    "req 33  at=634837.8 root=0 msg=65536 policy=ECEF cache=hit admitted delivered=11/11 makespan=1725223.2";
    "req 34  at=657733.1 root=0 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=1724792.7";
    "req 35  at=679590.1 root=2 msg=65536 policy=ECEF-LA cache=hit rejected (concurrency limit (8 in flight))";
    "req 36  at=767079.1 root=2 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=2246382.0";
    "req 37  at=844757.3 root=1 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=1505382.7";
    "req 38  at=846215.2 root=0 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=1692529.9";
    "req 39  at=881338.9 root=1 msg=65536 policy=ECEF cache=hit admitted delivered=11/11 makespan=1494807.7";
    "req 40  at=919870.9 root=1 msg=65536 policy=ECEF-LA cache=hit admitted delivered=11/11 makespan=1478740.4";
    "req 41  at=986326.7 root=0 msg=1000000 policy=ECEF cache=hit admitted delivered=11/11 makespan=1564882.9";
    "requests 42 admitted 30 rejected 12";
    "cache hits 30 misses 12 invalidations 0 entries 12 (hit rate 0.714)";
    "delivered ranks 330, mean session makespan 1350987.5 us, horizon 3034530.9 us";
  ]

let test_server_zero_chaos_golden () =
  let machines, requests = server_fixture () in
  let report = Server.run machines requests in
  Alcotest.(check bool) "zero-chaos run is not chaotic" false
    report.Server.chaotic;
  Alcotest.(check (list string)) "smoke lines pinned" zero_chaos_golden
    (Server.smoke_lines report)

(* --- equal-time tie pins ------------------------------------------------ *)

(* MD5 of a Memory sink's stream rendered as JSONL: event order, equal-time
   ties included, is part of what it pins. *)
let stream_md5 sink =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Event.to_json e);
      Buffer.add_char b '\n')
    (Sink.events sink);
  Digest.to_hex (Digest.string (Buffer.contents b))

let served_stream machines requests =
  let sink = Sink.memory () in
  ignore (Server.run ~obs:sink machines requests : Server.report);
  (match I.sessions_start_order (Sink.events sink) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "start order: %a" I.pp_violation v);
  stream_md5 sink

let test_server_stream_golden () =
  let machines, requests = server_fixture () in
  Alcotest.(check string) "seed-30 fixture stream" "959a8f814530baa25810d06f080e495f"
    (served_stream machines requests)

(* Request 1 arrives exactly when request 0's broadcast reaches cluster 1's
   coordinator, which is request 1's root: its start and that delivery are
   due at the same instant on the same NIC.  The start fires first (it was
   scheduled before the run), so it takes the NIC first. *)
let test_server_arrival_tie_golden () =
  let machines = machines_of_seed 30 in
  let request rid at root =
    {
      Workload.rid;
      at;
      root;
      msg = 65536;
      policy = "ECEF";
      deadline = infinity;
      priority = Workload.Low;
    }
  in
  let first = request 0 1000. 0 in
  let solo = Server.run machines [ first ] in
  let arrival (report : Server.report) rid =
    match report.Server.outcomes.(rid).Server.result with
    | Some r -> r.Session.r_arrival
    | None -> Alcotest.failf "request %d not admitted" rid
  in
  let coordinator = Machines.coordinator machines 1 in
  let tie = (arrival solo 0).(coordinator) in
  let requests = [ first; request 1 tie 1 ] in
  let report = Server.run machines requests in
  Alcotest.(check (float 0.)) "request 0 still reaches the coordinator at the tie" tie
    (arrival report 0).(coordinator);
  Alcotest.(check (float 0.)) "request 1 starts at the tie" tie
    (arrival report 1).(coordinator);
  Alcotest.(check string) "tie stream" "d9cf8e4e61de9cbe80a9a7e7fe800927"
    (served_stream machines requests)

(* --- resilience: retries, shedding, deadlines --------------------------- *)

let chaotic_mix machines =
  {
    (Workload.default_mix machines) with
    Workload.deadlines = [| 2e5; 2e6; infinity |];
    high_frac = 0.4;
  }

let chaotic_fixture ?(seed = 30) ?(rate = 4e-5) () =
  let machines = machines_of_seed seed in
  let requests =
    Workload.generate ~mix:(chaotic_mix machines) ~seed ~rate ~duration:1e6
      machines
  in
  (machines, requests)

let test_server_unknown_policy_rejected_per_request () =
  (* Satellite 1: an unknown policy must not abort the batch mid-replay —
     it becomes a per-request typed rejection and is never planned or
     charged to the cache. *)
  let machines, requests = server_fixture () in
  let requests =
    List.map
      (fun (r : Workload.request) ->
        if r.Workload.rid mod 5 = 2 then { r with Workload.policy = "NoSuchPolicy" }
        else r)
      requests
  in
  let report = Server.run machines requests in
  let invalid =
    List.length (List.filter (fun (r : Workload.request) -> r.Workload.policy = "NoSuchPolicy") requests)
  in
  Alcotest.(check int) "invalid counter" invalid report.Server.invalid;
  Array.iter
    (fun (o : Server.outcome) ->
      if o.Server.request.Workload.policy = "NoSuchPolicy" then begin
        (match o.Server.decision with
        | Admission.Reject (Admission.Bad_policy "NoSuchPolicy") -> ()
        | _ -> Alcotest.fail "unknown policy not rejected with Bad_policy");
        Alcotest.(check bool) "never planned" true (o.Server.cache = `Unplanned);
        Alcotest.(check int) "no session launched" 0 o.Server.attempts;
        Alcotest.(check bool) "no result" true (o.Server.result = None)
      end)
    report.Server.outcomes;
  let stats = report.Server.cache_stats in
  Alcotest.(check int) "invalid requests never charge the cache"
    (report.Server.requests - invalid)
    (stats.Plan_cache.hits + stats.Plan_cache.misses)

let test_server_retry_recovers_delivery () =
  let machines, requests = chaotic_fixture () in
  let faults = Gridb_des.Faults.v ~loss:0.45 () in
  let run retry = Server.run ~faults ~retry machines requests in
  let base = run Server.no_retry in
  let retried = run (Server.retry ~budget:2 ()) in
  Alcotest.(check bool) "fixture is lossy enough to leave gaps" true
    (base.Server.delivered < base.Server.admitted * Machines.count machines);
  Alcotest.(check int) "no requeues without a budget" 0 base.Server.requeues;
  Alcotest.(check bool) "retries happened" true (retried.Server.requeues > 0);
  Alcotest.(check bool) "union delivery never shrinks" true
    (retried.Server.delivered >= base.Server.delivered);
  let stats = retried.Server.cache_stats in
  Alcotest.(check int) "retry replanning charged to the cache"
    (retried.Server.requests - retried.Server.invalid + retried.Server.retry_lookups)
    (stats.Plan_cache.hits + stats.Plan_cache.misses);
  Array.iter
    (fun (o : Server.outcome) ->
      match o.Server.decision with
      | Admission.Admit ->
          Alcotest.(check bool) "attempts within budget" true
            (o.Server.attempts >= 1 && o.Server.attempts <= 3);
          let result = Option.get o.Server.result in
          Alcotest.(check bool) "union at least the final attempt" true
            (o.Server.delivered_union >= result.Session.delivered)
      | Admission.Reject _ ->
          Alcotest.(check int) "rejected requests launch nothing" 0
            o.Server.attempts)
    retried.Server.outcomes

(* The cache already holds a FlatTree schedule under the request's ECEF
   key: wave 0 launches the batch-planned ECEF schedule, and the retry
   launches what the cache returns, lowered afresh — not the plan already
   lowered for that key. *)
let test_server_retry_lowers_cached_schedule () =
  let machines = machines_of_seed 30 in
  let request =
    {
      Workload.rid = 0;
      at = 0.;
      root = 0;
      msg = 65536;
      policy = "ECEF";
      deadline = infinity;
      priority = Workload.Low;
    }
  in
  let key =
    Plan_cache.key ~fingerprint:(Fingerprint.of_machines machines) ~root:0 ~msg:65536
      ~policy:"ECEF"
  in
  let inst =
    Instance.of_grid ~root:0 ~msg:key.Plan_cache.bucket (Machines.grid machines)
  in
  let plan_of policy =
    Gridb_des.Plan.of_cluster_schedule machines
      (Engine.run (Option.get (Policy.by_name policy)) inst)
  in
  let root_children (plan : Gridb_des.Plan.t) =
    plan.Gridb_des.Plan.children.(plan.Gridb_des.Plan.root)
  in
  let cache = Plan_cache.create () in
  let flat = Engine.run (Option.get (Policy.by_name "FlatTree")) inst in
  ignore (Plan_cache.lookup cache key ~compute:(fun () -> flat));
  Alcotest.(check bool) "the two plans' roots differ" false
    (root_children (plan_of "ECEF") = root_children (plan_of "FlatTree"));
  let sink = Sink.memory () in
  let report =
    Server.run ~cache ~obs:sink
      ~faults:(Gridb_des.Faults.v ~loss:0.8 ())
      ~retry:(Server.retry ~budget:1 ()) machines [ request ]
  in
  Alcotest.(check int) "the lossy first attempt is retried" 2
    report.Server.outcomes.(0).Server.attempts;
  (* A live root sends a first try to each of its plan children at once. *)
  let first_sends sid =
    List.filter_map
      (fun e ->
        match (Event.sid e, Event.untag e) with
        | Some s, Event.Send_start { src; dst; try_no = 0; _ }
          when s = sid && src = Machines.coordinator machines 0 ->
            Some dst
        | _ -> None)
      (Sink.events sink)
  in
  Alcotest.(check (list int)) "wave 0 runs the batch plan"
    (root_children (plan_of "ECEF")) (first_sends 0);
  Alcotest.(check (list int)) "the retry runs the cached plan"
    (root_children (plan_of "FlatTree")) (first_sends 1)

let test_server_shedding_protects_high_priority () =
  let machines, requests = chaotic_fixture ~rate:8e-5 () in
  let admission =
    Admission.create ~shed:(Admission.shed ~watermark_us:2e5 ()) ()
  in
  let report = Server.run ~admission machines requests in
  Alcotest.(check bool) "watermark low enough to shed" true
    (report.Server.sheds > 0);
  Array.iter
    (fun (o : Server.outcome) ->
      match o.Server.decision with
      | Admission.Reject r when Admission.is_shed r ->
          Alcotest.(check bool) "only low-priority requests shed" true
            (o.Server.request.Workload.priority = Workload.Low)
      | _ -> ())
    report.Server.outcomes;
  Alcotest.(check int) "high-priority class never shed" 0
    report.Server.slo_high.Server.c_shed;
  Alcotest.(check int) "sheds all land in the low class"
    report.Server.sheds report.Server.slo_low.Server.c_shed;
  (* The SLO tables partition the report. *)
  let h = report.Server.slo_high and l = report.Server.slo_low in
  Alcotest.(check int) "class requests partition"
    report.Server.requests (h.Server.c_requests + l.Server.c_requests);
  Alcotest.(check int) "class admissions partition"
    report.Server.admitted (h.Server.c_admitted + l.Server.c_admitted)

let test_server_deadline_bookkeeping () =
  let machines, requests = chaotic_fixture () in
  let report = Server.run ~faults:(Gridb_des.Faults.v ~loss:0.3 ()) machines requests in
  let misses = ref 0 in
  Array.iter
    (fun (o : Server.outcome) ->
      let r = o.Server.request in
      (match o.Server.deadline_met with
      | None ->
          Alcotest.(check bool)
            "verdicts absent only without a deadline or admission" true
            (r.Workload.deadline = infinity || o.Server.result = None)
      | Some met ->
          Alcotest.(check bool) "verdict implies deadline and admission" true
            (Float.is_finite r.Workload.deadline && o.Server.result <> None);
          let on_time =
            (not (Float.is_nan o.Server.completion_us))
            && o.Server.completion_us -. r.Workload.at <= r.Workload.deadline
          in
          Alcotest.(check bool) "verdict recomputes from completion" met on_time;
          if not met then incr misses);
      if o.Server.attempts <= 1 then
        match o.Server.result with
        | Some result ->
            Alcotest.(check int) "single-attempt union = delivered"
              result.Session.delivered o.Server.delivered_union
        | None -> ())
    report.Server.outcomes;
  Alcotest.(check int) "deadline_misses counter" !misses
    report.Server.deadline_misses;
  Alcotest.(check bool) "fixture exercises both verdicts" true
    (!misses > 0 && report.Server.deadline_misses < report.Server.admitted)

(* The event stream of a chaotic run: lossy, crashing and degrading
   sessions on the adaptive, rerouting transport, retry waves, low-priority
   sheds, and a cache threshold low enough that retries invalidate.  The
   digest pins the order of [Retry], [Shed] and [Cache_*] events within
   and across waves, which the smoke lines do not show. *)
let test_server_chaotic_stream_golden () =
  let machines, requests = chaotic_fixture () in
  let admission =
    Admission.create ~shed:(Admission.shed ~watermark_us:2e5 ~max_open_frac:0.3 ()) ()
  in
  let sink = Sink.memory () in
  let report =
    Server.run ~obs:sink ~admission
      ~cache:(Plan_cache.create ~obs:sink ~threshold:0.02 ())
      ~transport:(Session.adaptive ~reroute:true ())
      ~faults:(Gridb_des.Faults.v ~loss:0.45 ~crash_rate:2e-7 ~degrade_rate:1e-6 ())
      ~retry:(Server.retry ~budget:2 ()) machines requests
  in
  let count p = List.length (List.filter p (Sink.events sink)) in
  Alcotest.(check bool) "retry waves ran" true
    (report.Server.requeues > 0
    && count (function Event.Retry _ -> true | _ -> false) = report.Server.requeues);
  Alcotest.(check bool) "requests were shed" true
    (report.Server.sheds > 0
    && count (function Event.Shed _ -> true | _ -> false) = report.Server.sheds);
  Alcotest.(check bool) "retries invalidated cached plans" true
    (report.Server.cache_stats.Plan_cache.invalidations > 0);
  Alcotest.(check string) "chaotic stream" "6a9a6ea9fccef314b27c4f8834bcbf32" (stream_md5 sink)

let test_server_chaotic_jobs_invariant () =
  let machines, requests = chaotic_fixture ~seed:34 ~rate:6e-5 () in
  let lines jobs =
    let admission =
      Admission.create ~shed:(Admission.shed ~watermark_us:5e5 ()) ()
    in
    Server.smoke_lines
      (Server.run ~jobs ~admission
         ~faults:(Gridb_des.Faults.v ~loss:0.25 ~crash_rate:2e-7 ())
         ~dynamics:(Gridb_des.Dynamics.v ~drift_rate:2e-5 ~leave_rate:5e-8 ())
         ~retry:(Server.retry ~budget:2 ())
         ~seed:2006 machines requests)
  in
  let l1 = lines 1 in
  Alcotest.(check bool) "chaotic fixture is chaotic" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "slo ") l1);
  Alcotest.(check (list string)) "chaotic smoke lines identical at jobs 1 vs 4"
    l1 (lines 4)

(* --- multi-session invariants on synthetic streams --------------------- *)

let test_sessions_nic_serialization_catches_overlap () =
  (* Two sessions drive rank 0's NIC at overlapping times — exactly what a
     shared wire must prevent. *)
  let events =
    [
      Event.tag ~sid:0
        (Event.Send_start { src = 0; dst = 1; time = 0.; msg = 64; intra = false; try_no = 0 });
      Event.tag ~sid:0 (Event.Send_end { src = 0; dst = 1; time = 100.; arrival = 110. });
      Event.tag ~sid:1
        (Event.Send_start { src = 0; dst = 2; time = 50.; msg = 64; intra = false; try_no = 0 });
      Event.tag ~sid:1 (Event.Send_end { src = 0; dst = 2; time = 150.; arrival = 160. });
    ]
  in
  match I.sessions_nic_serialization ~n:3 events with
  | Ok () -> Alcotest.fail "overlapping cross-session injections not caught"
  | Error v ->
      Alcotest.(check string) "invariant name" "sessions-nic-serialization"
        v.I.invariant

let test_sessions_nic_serialization_allows_disjoint () =
  let events =
    [
      Event.tag ~sid:0
        (Event.Send_start { src = 0; dst = 1; time = 0.; msg = 64; intra = false; try_no = 0 });
      Event.tag ~sid:0 (Event.Send_end { src = 0; dst = 1; time = 100.; arrival = 110. });
      Event.tag ~sid:1
        (Event.Send_start { src = 0; dst = 2; time = 100.; msg = 64; intra = false; try_no = 0 });
      Event.tag ~sid:1 (Event.Send_end { src = 0; dst = 2; time = 200.; arrival = 210. });
      (* Untagged noise is ignored. *)
      Event.Counter { name = "plan_cache.hits"; value = 3 };
    ]
  in
  match I.sessions_nic_serialization ~n:3 events with
  | Ok () -> ()
  | Error v -> Alcotest.failf "disjoint injections flagged: %a" I.pp_violation v

(* Two sessions share sender 0; each stream has one send that does not
   pair up within its own session. *)
let test_sessions_nic_serialization_rejects_unpaired () =
  let start sid dst time =
    Event.tag ~sid
      (Event.Send_start { src = 0; dst; time; msg = 64; intra = false; try_no = 0 })
  in
  let stop sid dst time =
    Event.tag ~sid (Event.Send_end { src = 0; dst; time; arrival = time +. 10. })
  in
  List.iter
    (fun (what, events) ->
      match I.sessions_nic_serialization ~n:3 events with
      | Ok () -> Alcotest.failf "%s not caught" what
      | Error v ->
          Alcotest.(check string) what "sessions-nic-serialization" v.I.invariant)
    [
      ( "start twice without an end",
        [ start 0 1 0.; start 1 2 100.; stop 1 2 200.; start 0 1 300.; stop 0 1 400. ] );
      ("end without a start", [ start 0 1 0.; stop 0 1 100.; stop 1 2 200. ]);
      ("end from another session", [ start 0 1 0.; stop 1 1 100. ]);
      ("start with no end", [ start 0 1 0.; stop 0 1 100.; start 1 2 100. ]);
    ]

let test_sessions_start_order () =
  let start sid r t = Event.tag ~sid (Event.Arrival { src = r; dst = r; time = t }) in
  let arrival sid t = Event.tag ~sid (Event.Arrival { src = 0; dst = 1; time = t }) in
  let ack sid t = Event.tag ~sid (Event.Ack { src = 1; dst = 0; time = t }) in
  let verdict events =
    match I.sessions_start_order events with
    | Ok () -> "ok"
    | Error v -> v.I.invariant
  in
  Alcotest.(check string) "starts first, other starts at the same time" "ok"
    (verdict [ start 0 0 0.; start 1 2 5.; start 2 3 5.; arrival 0 5.; ack 0 5.; arrival 1 5. ]);
  Alcotest.(check string) "own handlers and earlier stamps do not count" "ok"
    (verdict [ start 0 0 0.; ack 1 4.; start 0 0 5. ]);
  Alcotest.(check string) "another session's arrival before a start" "start-order"
    (verdict [ start 0 0 0.; arrival 0 5.; start 1 2 5. ]);
  Alcotest.(check string) "another session's ACK before a start" "start-order"
    (verdict [ start 0 0 0.; start 1 2 1.; arrival 1 3.; ack 0 5.; start 2 3 5. ])

let test_split_sessions_groups_and_orders () =
  let e t = Event.Arrival { src = 0; dst = 1; time = t } in
  let events =
    [ Event.tag ~sid:2 (e 1.); Event.tag ~sid:0 (e 2.); Event.tag ~sid:2 (e 3.);
      Event.Counter { name = "x"; value = 1 } ]
  in
  match I.split_sessions events with
  | [ (0, [ a ]); (2, [ b; c ]) ] ->
      Alcotest.(check bool) "sid 0 slice" true (a = e 2.);
      Alcotest.(check bool) "sid 2 order kept" true (b = e 1. && c = e 3.)
  | other ->
      Alcotest.failf "unexpected grouping: %d groups" (List.length other)

(* --- the service family end to end ------------------------------------- *)

let test_check_service_passes () =
  let sc =
    {
      Scenario.seed = 424_242;
      n = 4;
      msg = 65_536;
      root = 0;
      policy = "ECEF-LA";
      transport = "adaptive";
      faults = "none";
      dynamics = "none";
    }
  in
  match Run.check_service sc with
  | Ok () -> ()
  | Error v -> Alcotest.failf "service scenario: %a" I.pp_violation v

let test_check_chaos_passes () =
  let sc =
    {
      Scenario.seed = 424_242;
      n = 4;
      msg = 65_536;
      root = 0;
      policy = "ECEF-LA";
      transport = "adaptive";
      faults = "loss=0.3,crash=2e-7";
      dynamics = "drift=2e-5,churn=5e-8";
    }
  in
  match Run.check_chaos sc with
  | Ok () -> ()
  | Error v -> Alcotest.failf "chaos scenario: %a" I.pp_violation v

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "service"
    [
      ( "fingerprint",
        [
          quick "stable across expansions" test_fingerprint_stable;
          quick "distinguishes random grids" test_fingerprint_distinguishes_grids;
          quick "sensitive to one-link perturbation" test_fingerprint_sensitive_to_perturbation;
          quick "hex rendering" test_fingerprint_to_string;
        ] );
      ( "plan-cache",
        [
          quick "bucket_of_size" test_bucket_of_size;
          quick "hit returns the identical plan" test_cache_hit_returns_identical_plan;
          quick "keys bucket message sizes" test_cache_key_buckets_msg;
          quick "divergence invalidates" test_cache_divergence_invalidates;
          quick "events and counters" test_cache_emits_events_and_counters;
          quick "clear drops entries, keeps counters" test_cache_clear;
        ] );
      ( "workload",
        [
          quick "deterministic in the seed" test_workload_deterministic;
          quick "dense rids, chronological arrivals" test_workload_shape;
          quick "validation" test_workload_validation;
          quick "mix round-trips through its grammar" test_mix_round_trip;
          quick "mix parse errors name the key" test_mix_errors_name_keys;
        ] );
      ( "admission",
        [
          quick "concurrency cap" test_admission_concurrency_cap;
          quick "backlog budget" test_admission_backlog_budget;
          quick "arrival exactly at a predicted finish" test_admission_boundary_exact_finish;
          quick "backlog exactly at the budget" test_admission_boundary_exact_backlog;
          quick "single-slot drain ordering" test_admission_single_slot_drain_ordering;
        ] );
      ( "server",
        [
          quick "accounting" test_server_accounting;
          quick "jobs-invariant smoke lines" test_server_jobs_invariant;
          quick "multi-session invariants hold" test_server_multi_session_invariants;
          quick "untraced serve matches traced" test_server_untraced_matches_traced;
          quick "out-of-order requests rejected" test_server_rejects_out_of_order;
          quick "negative gap refused" test_server_refuses_negative_gap;
          quick "zero-chaos smoke output pinned" test_server_zero_chaos_golden;
          quick "event stream pinned" test_server_stream_golden;
          quick "arrival-tie event stream pinned" test_server_arrival_tie_golden;
        ] );
      ( "resilience",
        [
          quick "unknown policy rejected per-request" test_server_unknown_policy_rejected_per_request;
          quick "retries recover delivery" test_server_retry_recovers_delivery;
          quick "retry lowers the schedule the cache returns"
            test_server_retry_lowers_cached_schedule;
          quick "shedding protects high priority" test_server_shedding_protects_high_priority;
          quick "deadline bookkeeping" test_server_deadline_bookkeeping;
          quick "chaotic event stream pinned" test_server_chaotic_stream_golden;
          quick "chaotic smoke lines jobs-invariant" test_server_chaotic_jobs_invariant;
        ] );
      ( "invariants",
        [
          quick "cross-session overlap caught" test_sessions_nic_serialization_catches_overlap;
          quick "disjoint injections pass" test_sessions_nic_serialization_allows_disjoint;
          quick "unpaired sends caught" test_sessions_nic_serialization_rejects_unpaired;
          quick "split_sessions groups by sid" test_split_sessions_groups_and_orders;
          quick "start order" test_sessions_start_order;
        ] );
      ( "family",
        [
          quick "check_service passes a fixed scenario" test_check_service_passes;
          quick "check_chaos passes a fixed scenario" test_check_chaos_passes;
        ] );
    ]
