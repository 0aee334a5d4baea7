(* Tests for the dynamics layer: the spec grammar, the drift/churn model,
   the executor under dynamics, the estimated latency matrix, the
   replan-vs-ride-out machinery and the check-harness wiring.  The central
   invariant mirrors the faults suite: with a zero-dynamics model attached
   the reliable executor is a bit-exact identity. *)

module Dyn = Gridb_des.Dynamics
module Faults = Gridb_des.Faults
module Adaptive = Gridb_des.Adaptive
module Session = Gridb_des.Session
module Plan = Gridb_des.Plan
module Machines = Gridb_topology.Machines
module Generators = Gridb_topology.Generators
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Repair = Gridb_sched.Repair
module Replan = Gridb_sched.Replan
module Scenario = Gridb_check.Scenario
module Run = Gridb_check.Run
module Invariant = Gridb_check.Invariant
module Metamorphic = Gridb_check.Metamorphic
module Rng = Gridb_util.Rng

(* Small clusters keep the DES population (and runtimes) down; the full
   default_random_spec grids are bench territory. *)
let small_spec = { Generators.default_random_spec with Generators.cluster_size = (1, 6) }

let small_grid ~seed ~n = Generators.uniform_random ~rng:(Rng.create seed) ~n small_spec

let plan_of_grid ?(policy = Policy.ecef_la) ~msg grid =
  let inst = Instance.of_grid ~root:0 ~msg grid in
  let schedule = Sched_engine.run policy inst in
  let machines = Machines.expand grid in
  (inst, schedule, machines, Plan.of_cluster_schedule machines schedule)

(* --- spec grammar ------------------------------------------------------- *)

let test_spec_parse_basics () =
  Alcotest.(check bool) "empty is none" true (Dyn.of_string "" = Ok Dyn.none);
  Alcotest.(check bool) "none is none" true (Dyn.of_string "none" = Ok Dyn.none);
  Alcotest.(check bool) "NONE is none" true (Dyn.of_string "NONE" = Ok Dyn.none);
  (match Dyn.of_string "drift=2e-5,churn=5e-8,recluster=2e5" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check (float 0.)) "drift" 2e-5 s.Dyn.drift_rate;
      Alcotest.(check (float 0.)) "leave via churn" 5e-8 s.Dyn.leave_rate;
      Alcotest.(check (float 0.)) "join via churn" 5e-8 s.Dyn.join_rate;
      Alcotest.(check (float 0.)) "recluster" 2e5 s.Dyn.recluster_every;
      Alcotest.(check bool) "not none" false (Dyn.is_none s));
  match Dyn.of_string "join-max=3,join=1e-7" with
  | Error e -> Alcotest.fail e
  | Ok s -> Alcotest.(check int) "join-max" 3 s.Dyn.join_max

let expect_error_mentioning key str =
  match Dyn.of_string str with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed but should not" str)
  | Error e ->
      let mentions =
        let kl = String.length key and el = String.length e in
        let rec go i = i + kl <= el && (String.sub e i kl = key || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "error %S names %S" e key) true mentions

let test_spec_parse_errors () =
  (* The Faults.of_string contract: the error names the offending key as
     the user typed it. *)
  expect_error_mentioning "drift" "drift=-1";
  expect_error_mentioning "drift-sigma" "drift-sigma=0";
  expect_error_mentioning "drift-max" "drift=1e-5,drift-max=0.5";
  expect_error_mentioning "load-on" "load-on=0";
  expect_error_mentioning "churn" "churn=-2";
  expect_error_mentioning "join-max" "join-max=2.5";
  expect_error_mentioning "recluster" "recluster=-1";
  expect_error_mentioning "warp" "warp=9";
  expect_error_mentioning "known:" "warp=9";
  (match Dyn.of_string "drift" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key without value parsed");
  (match Dyn.of_string "drift=fast" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric value parsed");
  (* Non-finite values used to hang the drift loop (drift=inf, a zero step
     gap) or kill the exponential draws (load-on/load-off=inf). *)
  List.iter
    (fun key ->
      List.iter
        (fun value ->
          match Dyn.of_string (key ^ "=" ^ value) with
          | Error e ->
              Alcotest.(check string) (key ^ "=" ^ value)
                (Printf.sprintf "%s: not a finite number (%S)" key value) e
          | Ok _ -> Alcotest.failf "%s=%s parsed" key value)
        [ "inf"; "nan" ])
    [ "drift"; "drift-sigma"; "drift-max"; "load-on"; "load-off"; "leave"; "join";
      "join-max"; "churn"; "recluster" ];
  Alcotest.(check (result reject string)) "join-max beyond 2^53"
    (Error "join-max: beyond 2^53 (got 1e+16)") (Dyn.of_string "join-max=1e16");
  Alcotest.check_raises "Dyn.v refuses join_max beyond 2^53"
    (Invalid_argument "Dynamics.v: join_max beyond 2^53") (fun () ->
      ignore (Dyn.v ~join_max:((1 lsl 53) + 1) ()));
  Alcotest.check_raises "Dyn.v refuses a NaN rate"
    (Invalid_argument "Dynamics.v: leave_rate must be finite") (fun () ->
      ignore (Dyn.v ~leave_rate:Float.nan ()))

let spec_gen =
  let open QCheck.Gen in
  (* Either a menu value (zeros keep the inert paths hot) or any float in
     range, which needs more than %g's six digits to print back exactly. *)
  let pickf l lo hi = oneof [ oneofl l; float_range lo hi ] in
  map
    (fun ((drift, sigma, dmax), (on, off), (leave, join, jmax, recluster)) ->
      Dyn.v ~drift_rate:drift ~drift_sigma:sigma ~drift_max:dmax ~load_on_mean:on
        ~load_off_mean:off ~leave_rate:leave ~join_rate:join ~join_max:jmax
        ~recluster_every:recluster ())
    (triple
       (triple (pickf [ 0.; 1e-5; 2e-5; 1e-4 ] 0. 1e-3) (pickf [ 0.25; 0.5; 1. ] 0.01 2.)
          (pickf [ 2.; 4.; 8. ] 1. 16.))
       (pair (pickf [ 1e5; 2e5 ] 1. 1e6) (pickf [ 0.; 2e5 ] 0. 1e6))
       (quad (pickf [ 0.; 3e-8; 1e-7 ] 0. 1e-6) (pickf [ 0.; 3e-8; 1e-7 ] 0. 1e-6)
          (oneofl [ 0; 2; 4 ]) (pickf [ 0.; 2e5; 5e5 ] 0. 1e6)))

let spec_roundtrip =
  QCheck.Test.make ~name:"dynamics spec print/parse round-trips"
    ~count:(Testutil.count 200)
    (QCheck.make spec_gen ~print:Dyn.to_string)
    (fun s ->
      match Dyn.of_string (Dyn.to_string s) with Ok s' -> s' = s | Error _ -> false)

let test_to_string_fixpoint () =
  Alcotest.(check string) "none prints none" "none" (Dyn.to_string Dyn.none);
  (* An inert spec keeps its other fields: printing is an exact inverse. *)
  Alcotest.(check string) "inert spec" "drift-sigma=0.5,join-max=1000000"
    (Dyn.to_string (Dyn.v ~drift_sigma:0.5 ~join_max:1_000_000 ()));
  Alcotest.(check (result string string)) "drift=0e308"
    (Ok "load-on=1e+308")
    (Result.map Dyn.to_string (Dyn.of_string "drift=0e308,load-on=1e308"));
  (* churn shorthand is never printed back, so print∘parse∘print is a
     fixpoint even for specs entered via the shorthand. *)
  match Dyn.of_string "churn=5e-8" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let printed = Dyn.to_string s in
      Alcotest.(check string) "shorthand expanded" "leave=5e-08,join=5e-08" printed;
      Alcotest.(check bool) "fixpoint" true
        (Result.map Dyn.to_string (Dyn.of_string printed) = Ok printed)

(* --- the model: determinism, bounds, churn books ------------------------ *)

let drifty_spec =
  Dyn.v ~drift_rate:1e-4 ~drift_sigma:0.5 ~drift_max:4. ~load_off_mean:0. ()

let test_factor_bounds_and_determinism () =
  let mk () = Dyn.create ~seed:11 ~n:6 ~clusters:3 drifty_spec in
  let d1 = mk () and d2 = mk () in
  let times = [ 0.; 1e4; 1e5; 5e5; 1e6; 3e6 ] in
  List.iter
    (fun at ->
      for src = 0 to 5 do
        for dst = 0 to 5 do
          let f = Dyn.factor d1 ~src ~dst ~at in
          Alcotest.(check bool)
            (Printf.sprintf "factor %g in [1/4, 4] at %g" f at)
            true
            (f >= 0.25 && f <= 4.);
          if src = dst then
            Alcotest.(check (float 0.)) "self link undrifted" 1. f;
          Alcotest.(check (float 0.)) "same seed, same factor" f
            (Dyn.factor d2 ~src ~dst ~at)
        done
      done)
    times

let test_factor_query_order_independence () =
  (* Materialisation is lazy but pre-seeded per link: asking in a different
     order, or only for a subset, must not change any answer. *)
  let d1 = Dyn.create ~seed:7 ~n:4 ~clusters:2 drifty_spec in
  let d2 = Dyn.create ~seed:7 ~n:4 ~clusters:2 drifty_spec in
  let times = [ 2.5e5; 1e4; 9e5; 0.; 4e5 ] in
  (* d1: all links, ascending times.  d2: one link, shuffled times first. *)
  let sorted = List.sort compare times in
  let probe1 =
    List.concat_map
      (fun at ->
        List.concat_map
          (fun src -> List.map (fun dst -> Dyn.factor d1 ~src ~dst ~at) [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ])
      sorted
  in
  List.iter (fun at -> ignore (Dyn.factor d2 ~src:3 ~dst:1 ~at)) times;
  let probe2 =
    List.concat_map
      (fun at ->
        List.concat_map
          (fun src -> List.map (fun dst -> Dyn.factor d2 ~src ~dst ~at) [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ])
      sorted
  in
  Alcotest.(check (list (float 0.))) "query order never perturbs draws" probe1 probe2

let test_churn_pre_drawn () =
  let spec = Dyn.v ~leave_rate:1e-5 ~join_rate:1e-5 ~join_max:3 () in
  let d = Dyn.create ~seed:3 ~n:5 ~clusters:4 spec in
  Alcotest.(check int) "size" 5 (Dyn.size d);
  Alcotest.(check int) "total = n + join_max" 8 (Dyn.total d);
  Array.iteri
    (fun k (j : Dyn.join) ->
      Alcotest.(check int) "join ranks count up from n" (5 + k) j.Dyn.rank;
      Alcotest.(check bool) "join cluster in range" true (j.Dyn.cluster >= 0 && j.Dyn.cluster < 4);
      Alcotest.(check bool) "join time positive" true (j.Dyn.at > 0.);
      Alcotest.(check bool) "join never leaves" true
        (Dyn.leave_time d j.Dyn.rank = infinity))
    (Dyn.joins d);
  let sorted =
    Array.to_list (Dyn.joins d) |> List.map (fun j -> j.Dyn.at) |> List.sort compare
  in
  Alcotest.(check (list (float 0.)))
    "joins in arrival order" sorted
    (Array.to_list (Dyn.joins d) |> List.map (fun j -> j.Dyn.at));
  for i = 0 to 4 do
    Alcotest.(check bool) "leave time positive" true (Dyn.leave_time d i > 0.);
    Alcotest.(check bool) "left is leave_time <= at" true
      (Dyn.left d i ~at:(Dyn.leave_time d i))
  done;
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Dynamics.leave_time: rank out of range") (fun () ->
      ignore (Dyn.leave_time d 8))

let test_t0_shifts_origin () =
  (* Shifting the time origin translates every drawn time — leaves, join
     arrivals, the drift timeline — without touching the random stream, so
     a session launched mid-simulation sees dynamics from its own start. *)
  let spec = Dyn.v ~drift_rate:1e-5 ~leave_rate:1e-5 ~join_rate:1e-5 ~join_max:3 () in
  let t0 = 5e5 in
  let a = Dyn.create ~seed:3 ~n:5 ~clusters:4 spec
  and b = Dyn.create ~seed:3 ~t0 ~n:5 ~clusters:4 spec in
  for i = 0 to 4 do
    let la = Dyn.leave_time a i in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "leave %d shifted by t0" i)
      (if Float.is_finite la then la +. t0 else la)
      (Dyn.leave_time b i)
  done;
  Array.iter2
    (fun (ja : Dyn.join) (jb : Dyn.join) ->
      Alcotest.(check int) "join rank t0-independent" ja.Dyn.rank jb.Dyn.rank;
      Alcotest.(check int) "join cluster t0-independent" ja.Dyn.cluster jb.Dyn.cluster;
      Alcotest.(check (float 1e-9)) "join time shifted by t0" (ja.Dyn.at +. t0) jb.Dyn.at)
    (Dyn.joins a) (Dyn.joins b);
  for src = 0 to 4 do
    for dst = 0 to 4 do
      if src <> dst then
        Alcotest.(check (float 1e-9))
          "drift timeline shifted by t0"
          (Dyn.factor a ~src ~dst ~at:1e5)
          (Dyn.factor b ~src ~dst ~at:(1e5 +. t0))
    done
  done;
  Alcotest.check_raises "non-finite t0"
    (Invalid_argument "Dynamics.create: t0 must be finite") (fun () ->
      ignore (Dyn.create ~t0:infinity ~n:5 ~clusters:4 spec))

(* --- zero-dynamics bit-identity ----------------------------------------- *)

let dynamics_identity_prop =
  QCheck.Test.make ~name:"zero-dynamics model is a bit-exact identity"
    ~count:(Testutil.count 15)
    QCheck.(pair small_int (bool))
    (fun (seed0, faulty) ->
      let seed = 1 + (seed0 mod 50) in
      let n = 2 + (seed mod 4) in
      let grid = small_grid ~seed ~n in
      let _, _, machines, plan = plan_of_grid ~msg:65_536 grid in
      let spec = if faulty then Faults.v ~loss:0.1 () else Faults.none in
      let transport =
        if seed mod 2 = 0 then Session.adaptive ~reroute:true () else Session.Fixed
      in
      Metamorphic.dynamics_identity ~msg:65_536 ~seed ~transport ~spec machines plan
      = Ok ())

(* --- executor under churn ----------------------------------------------- *)

(* A leave rate high enough that departures land inside the horizon with
   certainty across a few seeds, plus joins early enough to be adopted. *)
let churny_spec = Dyn.v ~leave_rate:2e-6 ~join_rate:1e-5 ~join_max:3 ()

let run_churny ~seed =
  let grid = small_grid ~seed ~n:4 in
  let _, _, machines, plan = plan_of_grid ~msg:65_536 grid in
  let n = Machines.count machines in
  let d = Dyn.create ~seed:(seed lxor 0x64796e) ~n ~clusters:4 churny_spec in
  let rel =
    Session.run_reliable
      (Session.Config.v ~msg:65_536 ~dynamics:d
         ~transport:(Session.adaptive ~reroute:true ()) ())
      machines plan
  in
  (d, rel, n)

let test_churn_delivery_accounting () =
  let saw_leaver = ref false and saw_join = ref false in
  for seed = 1 to 6 do
    let d, rel, n = run_churny ~seed in
    let ntot = Dyn.total d in
    Alcotest.(check int) "arrival vector spans joins" ntot
      (Array.length rel.Session.r_arrival);
    (* Departures: exactly the pre-drawn leaves inside the horizon. *)
    let expected_left = ref [] in
    for k = n - 1 downto 0 do
      if Dyn.leave_time d k <= rel.Session.horizon then expected_left := k :: !expected_left
    done;
    Alcotest.(check (list int))
      "left matches the model" !expected_left
      (List.sort compare rel.Session.left);
    if rel.Session.left <> [] then saw_leaver := true;
    (* Nothing is delivered to a rank at or after its departure; joins
       never receive before they exist. *)
    Array.iteri
      (fun k a ->
        if not (Float.is_nan a) then
          Alcotest.(check bool) "delivered before departure" true
            (a < Dyn.leave_time d k))
      rel.Session.r_arrival;
    Array.iter
      (fun (j : Dyn.join) ->
        let a = rel.Session.r_arrival.(j.Dyn.rank) in
        if not (Float.is_nan a) then begin
          saw_join := true;
          Alcotest.(check bool) "join delivered after joining" true (a >= j.Dyn.at);
          Alcotest.(check bool) "delivered join is within the horizon" true
            (j.Dyn.at <= rel.Session.horizon)
        end)
      (Dyn.joins d);
    (* delivered counter agrees with the vector. *)
    let delivered_vec =
      Array.fold_left (fun acc a -> if Float.is_nan a then acc else acc + 1) 0
        rel.Session.r_arrival
    in
    Alcotest.(check int) "delivered counter" delivered_vec rel.Session.delivered
  done;
  Alcotest.(check bool) "some rank departed across the seeds" true !saw_leaver;
  Alcotest.(check bool) "some join was adopted across the seeds" true !saw_join

let test_join_requires_reroute () =
  (* Adoption is gated on a rerouting transport: under Fixed, joins still
     show up in the membership books ([joined] records arrivals within the
     horizon) but none of them is ever delivered to. *)
  let grid = small_grid ~seed:2 ~n:4 in
  let _, _, machines, plan = plan_of_grid ~msg:65_536 grid in
  let n = Machines.count machines in
  let d =
    Dyn.create ~seed:5 ~n ~clusters:4 (Dyn.v ~join_rate:1e-4 ~join_max:2 ())
  in
  let rel =
    Session.run_reliable
      (Session.Config.v ~msg:65_536 ~dynamics:d ~transport:Session.Fixed ())
      machines plan
  in
  Array.iter
    (fun (j : Dyn.join) ->
      Alcotest.(check bool) "join stays undelivered" true
        (Float.is_nan rel.Session.r_arrival.(j.Dyn.rank)))
    (Dyn.joins d);
  List.iter
    (fun r ->
      Alcotest.(check bool) "joined list only records arrival" true
        (r >= n && Dyn.leave_time d r = infinity))
    rel.Session.joined;
  Alcotest.(check bool) "delivered never exceeds the original population" true
    (rel.Session.delivered <= n)

(* --- estimated latency matrix (satellite: full-matrix view) -------------- *)

let test_estimated_matrix_agrees_with_links () =
  let est = Adaptive.create ~n:4 () in
  let nominal_m =
    [| [| 0.; 100.; 400.; 250. |]; [| 100.; 0.; 300.; 80. |];
       [| 400.; 300.; 0.; 60. |]; [| 250.; 80.; 60.; 0. |] |]
  in
  let nominal ~src ~dst = nominal_m.(src).(dst) in
  (* Latch nominals and feed a few links samples: 0->1 slowed 3x, 1->0
     slowed 1.5x, 2->3 sped up 0.5x; everything else unobserved. *)
  List.iter
    (fun (src, dst, mult) ->
      ignore
        (Adaptive.rto est ~src ~dst ~nominal:nominal_m.(src).(dst)
           ~fallback:(4. *. nominal_m.(src).(dst)));
      for k = 0 to 7 do
        ignore
          (Adaptive.on_sample est ~src ~dst
             ~rtt:(mult *. nominal_m.(src).(dst))
             ~retransmitted:false
             ~now:(float_of_int (k + 1) *. 1_000.))
      done)
    [ (0, 1, 3.); (1, 0, 1.5); (2, 3, 0.5) ];
  let m = Adaptive.estimated_latency_matrix est ~nominal in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let expected =
        if i = j then 0. else Adaptive.quality est ~src:i ~dst:j *. nominal_m.(i).(j)
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "entry (%d,%d) equals quality x nominal" i j)
        expected m.(i).(j)
    done
  done;
  (* Observed links moved, unobserved ones sit at nominal. *)
  Alcotest.(check bool) "slowed link reads slower" true (m.(0).(1) > 250.);
  Alcotest.(check bool) "sped-up link reads faster" true (m.(2).(3) < 60.);
  Alcotest.(check (float 1e-9)) "unobserved link at nominal" 300. m.(1).(2);
  let sym = Adaptive.estimated_latency_matrix ~symmetric:true est ~nominal in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let expected = if i = j then 0. else Float.max m.(i).(j) m.(j).(i) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "symmetric entry (%d,%d) is the max of both directions" i j)
        expected
        sym.(i).(j)
    done
  done

(* --- Replan: decide / fresh / evaluate ----------------------------------- *)

let test_replan_decide () =
  let t = Replan.default in
  Alcotest.(check string) "ride-out" "ride-out"
    (Replan.decision_to_string
       (Replan.decide t ~drift:0. ~divergence:0. ~departed:0));
  Alcotest.(check bool) "splice on departure" true
    (Replan.decide t ~drift:0.1 ~divergence:0.1 ~departed:1 = Replan.Splice);
  Alcotest.(check bool) "replan on drift" true
    (Replan.decide t ~drift:0.35 ~divergence:0. ~departed:0 = Replan.Replan);
  Alcotest.(check bool) "replan on divergence" true
    (Replan.decide t ~drift:0. ~divergence:0.3 ~departed:0 = Replan.Replan);
  Alcotest.(check bool) "replan wins over splice" true
    (Replan.decide t ~drift:0.9 ~divergence:0. ~departed:2 = Replan.Replan);
  (match Replan.v ~drift:0.5 () with
  | t' -> Alcotest.(check (float 0.)) "custom drift" 0.5 t'.Replan.drift);
  Alcotest.check_raises "invalid threshold"
    (Invalid_argument "Replan.v: drift threshold must be positive") (fun () ->
      ignore (Replan.v ~drift:0. ()))

let test_replan_fresh () =
  let s = Replan.fresh ~root:1 ~n:3 in
  Alcotest.(check int) "root" 1 s.Schedule.root;
  Alcotest.(check int) "n" 3 s.Schedule.n;
  Alcotest.(check bool) "no events" true (s.Schedule.events = []);
  Alcotest.(check (float 0.)) "root ready" 0. s.Schedule.ready.(1);
  Alcotest.(check bool) "others unreached" true
    (s.Schedule.ready.(0) = infinity && s.Schedule.ready.(2) = infinity);
  Alcotest.check_raises "bad root" (Invalid_argument "Replan.fresh: root out of range")
    (fun () -> ignore (Replan.fresh ~root:3 ~n:3))

(* Repair on a fresh schedule is a full replan: everything alive receives. *)
let test_full_replan_via_fresh () =
  let grid = small_grid ~seed:9 ~n:5 in
  let inst = Instance.of_grid ~root:0 ~msg:65_536 grid in
  (* The crash must precede [at]: crashes after the repair instant are
     future faults and the cluster still counts as a live target. *)
  let o =
    Repair.repair ~at:20. inst (Replan.fresh ~root:0 ~n:5)
      ~crash:[| infinity; infinity; 10.; infinity; infinity |]
  in
  Alcotest.(check (list int)) "dead cluster excluded" [ 2 ] o.Repair.dead;
  Alcotest.(check int) "everyone alive delivered" 4
    (Array.fold_left (fun a d -> if d then a + 1 else a) 0 o.Repair.delivered);
  Alcotest.(check int) "replanned everything" 3 (List.length o.Repair.replanned)

let test_evaluate_retimes_under_truth () =
  (* Two clusters, one send.  Under the truth the link is 2x slower than
     planned; evaluate must re-time, not trust the baked-in stamps. *)
  let latency = [| [| 0.; 100. |]; [| 100.; 0. |] |] in
  let gap = [| [| 0.; 50. |]; [| 50.; 0. |] |] in
  let intra = [| 10.; 10. |] in
  let inst = Instance.v ~root:0 ~latency ~gap ~intra in
  let s = Sched_engine.run Policy.flat_tree inst in
  let slow =
    Instance.v ~root:0
      ~latency:[| [| 0.; 200. |]; [| 200.; 0. |] |]
      ~gap:[| [| 0.; 100. |]; [| 100.; 0. |] |]
      ~intra
  in
  let v = Replan.evaluate slow ~halt:[| infinity; infinity |] s in
  Alcotest.(check int) "both delivered" 2 v.Replan.delivered_count;
  Alcotest.(check int) "nobody stranded" 0 v.Replan.stranded;
  (* Sender busy until gap 100, arrival 300; makespan = busy + intra at the
     completion-dominating cluster: max(100 + 10 sender, 300 + 10). *)
  Alcotest.(check (float 1e-9)) "re-timed makespan" 310. v.Replan.makespan;
  (* Kill the receiver before the re-timed arrival: the send still executes
     (sender pays the gap) but nothing lands. *)
  let v' = Replan.evaluate slow ~halt:[| infinity; 250. |] s in
  Alcotest.(check int) "only the root holds it" 1 v'.Replan.delivered_count;
  Alcotest.(check int) "receiver dead, not stranded" 0 v'.Replan.stranded;
  (* Under the nominal truth the same halt is late enough. *)
  let v'' = Replan.evaluate inst ~halt:[| infinity; 250. |] s in
  Alcotest.(check int) "nominal truth delivers" 2 v''.Replan.delivered_count

let test_evaluate_strands_orphans () =
  (* Root -> 1 -> 2 chain: killing 1 before its send strands 2. *)
  let latency =
    [| [| 0.; 100.; 500. |]; [| 100.; 0.; 100. |]; [| 500.; 100.; 0. |] |]
  in
  let gap = Array.map (Array.map (fun l -> l /. 2.)) latency in
  let intra = [| 10.; 10.; 10. |] in
  let inst = Instance.v ~root:0 ~latency ~gap ~intra in
  let s = Sched_engine.run Policy.ecef_la inst in
  let relayed =
    List.exists (fun (e : Schedule.event) -> e.Schedule.src = 1) s.Schedule.events
  in
  if relayed then begin
    let v = Replan.evaluate inst ~halt:[| infinity; 140.; infinity |] s in
    Alcotest.(check int) "relay's subtree stranded" 1 v.Replan.stranded;
    Alcotest.(check bool) "cluster 2 not delivered" false v.Replan.delivered.(2)
  end

(* --- repeated splices (satellite: sequential-repair property) ------------ *)

(* Receive-at-most-once over a (possibly spliced) schedule's events, plus
   exact-once for clusters the outcome claims delivered. *)
let check_spliced inst (o : Repair.outcome) =
  let s = o.Repair.schedule in
  let received = Array.make s.Schedule.n 0 in
  List.iter
    (fun (e : Schedule.event) -> received.(e.Schedule.dst) <- received.(e.Schedule.dst) + 1)
    s.Schedule.events;
  let ok = ref true in
  for k = 0 to s.Schedule.n - 1 do
    if k = s.Schedule.root then ok := !ok && received.(k) = 0
    else if o.Repair.delivered.(k) then ok := !ok && received.(k) = 1
    else ok := !ok && received.(k) <= 1
  done;
  !ok && Invariant.causality inst s = Ok ()

let double_splice_prop =
  QCheck.Test.make ~name:"two successive splices keep receive-once and causality"
    ~count:(Testutil.count 40)
    QCheck.(pair small_int small_int)
    (fun (seed0, pick) ->
      let seed = 1 + (seed0 mod 100) in
      let n = 4 + (seed mod 4) in
      let grid = small_grid ~seed ~n in
      let inst = Instance.of_grid ~root:0 ~msg:250_000 grid in
      let s = Sched_engine.run Policy.ecef_la inst in
      let mk = Schedule.makespan inst s in
      let c1 = 1 + (pick mod (n - 1)) in
      let c2 = 1 + ((pick + 1) mod (n - 1)) in
      QCheck.assume (c1 <> c2);
      let t1 = 0.3 *. mk and t2 = 0.6 *. mk in
      let crash1 = Array.init n (fun k -> if k = c1 then t1 else infinity) in
      let o1 = Repair.repair ~at:t1 inst s ~crash:crash1 in
      let crash2 =
        Array.init n (fun k -> if k = c1 then t1 else if k = c2 then t2 else infinity)
      in
      let o2 = Repair.repair ~at:t2 inst o1.Repair.schedule ~crash:crash2 in
      check_spliced inst o1 && check_spliced inst o2
      && (* a cluster delivered by the first splice stays delivered: the
            second repair never un-delivers survivors. *)
      Array.for_all2
        (fun d1 d2 -> (not d1) || d2 || o2.Repair.dead <> [])
        o1.Repair.delivered o2.Repair.delivered)

(* --- scenario wiring ----------------------------------------------------- *)

let test_scenario_dynamics_roundtrip () =
  let sc = Scenario.generate (Rng.create 12) in
  Alcotest.(check bool) "generated scenario round-trips" true
    (Scenario.of_json (Scenario.to_json sc) = Ok sc);
  (* Back-compat: a reproducer recorded before the dynamics field existed
     still loads, as a dynamics-free scenario. *)
  let legacy =
    "{\"format\":\"gridsched-check/1\",\"seed\":7,\"n\":3,\"msg\":10000,\"root\":1,\
     \"policy\":\"FEF\",\"transport\":\"fixed\",\"faults\":\"none\"}"
  in
  (match Scenario.of_json legacy with
  | Error e -> Alcotest.fail e
  | Ok sc -> Alcotest.(check string) "defaults to none" "none" sc.Scenario.dynamics);
  (* The dyn seed tag matches the experiment layer's derivation. *)
  let sc = { sc with Scenario.seed = 100 } in
  Alcotest.(check int) "dyn seed tag" (100 lxor 0x64796e) (Scenario.dyn_seed sc)

let test_scenario_dynamics_shrinks_first () =
  let sc = Scenario.generate (Rng.create 12) in
  let sc = { sc with Scenario.dynamics = "drift=2e-5,churn=5e-8" } in
  match Scenario.shrink_candidates sc with
  | first :: _ -> Alcotest.(check string) "dynamics dropped first" "none" first.Scenario.dynamics
  | [] -> Alcotest.fail "no shrink candidates"

let test_run_check_dynamic_scenarios () =
  let base =
    {
      Scenario.seed = 0;
      n = 3;
      msg = 10_000;
      root = 0;
      policy = "ECEF-LA";
      transport = "adaptive,reroute";
      faults = "none";
      dynamics = "drift=2e-5,load-off=0,churn=2e-6,recluster=2e5";
    }
  in
  (match Run.check base with
  | Ok () -> ()
  | Error v -> Alcotest.failf "dynamic scenario: %a" Invariant.pp_violation v);
  (match Run.check { base with Scenario.faults = "loss=0.1"; transport = "fixed" } with
  | Ok () -> ()
  | Error v -> Alcotest.failf "dynamic+faulty scenario: %a" Invariant.pp_violation v);
  match Run.check { base with Scenario.dynamics = "drift=oops" } with
  | Error { Invariant.invariant = "scenario"; _ } -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" Invariant.pp_violation v
  | Ok () -> Alcotest.fail "bad dynamics spec accepted"

(* --- the experiment ------------------------------------------------------ *)

let test_experiment_outcome () =
  let grid = small_grid ~seed:21 ~n:4 in
  (* Small grids finish fast: the re-clustering period must sit well
     inside the horizon or no tick ever fires. *)
  let dyn =
    Dyn.v ~drift_rate:1e-4 ~drift_sigma:0.5 ~load_off_mean:0. ~leave_rate:1e-6
      ~join_rate:1e-6 ~recluster_every:5e3 ()
  in
  let o = Gridb_experiments.Dynamics.run ~seed:21 ~msg:65_536 ~dyn grid in
  Alcotest.(check int) "clusters" 4 o.Gridb_experiments.Dynamics.clusters;
  Alcotest.(check bool) "delivery ratio in (0, 1]" true
    (o.Gridb_experiments.Dynamics.delivery_ratio > 0.
    && o.Gridb_experiments.Dynamics.delivery_ratio <= 1.);
  Alcotest.(check bool) "re-clustering trail recorded" true
    (o.Gridb_experiments.Dynamics.ticks <> []);
  List.iter
    (fun (t : Gridb_experiments.Dynamics.tick) ->
      Alcotest.(check bool) "tick inside horizon" true
        (t.Gridb_experiments.Dynamics.at <= o.Gridb_experiments.Dynamics.horizon);
      Alcotest.(check bool) "drift in [0, 1]" true
        (t.Gridb_experiments.Dynamics.drift >= 0. && t.Gridb_experiments.Dynamics.drift <= 1.))
    o.Gridb_experiments.Dynamics.ticks;
  (* chosen returns the verdict of the decision actually taken. *)
  let chosen = Gridb_experiments.Dynamics.chosen o in
  let expected =
    match o.Gridb_experiments.Dynamics.decision with
    | Replan.Ride_out -> o.Gridb_experiments.Dynamics.ride_out
    | Replan.Splice -> o.Gridb_experiments.Dynamics.splice
    | Replan.Replan -> o.Gridb_experiments.Dynamics.replan
  in
  Alcotest.(check bool) "chosen matches decision" true (chosen == expected);
  (* All three candidate verdicts stay within the cluster count. *)
  List.iter
    (fun (v : Replan.verdict) ->
      Alcotest.(check bool) "delivered_count within range" true
        (v.Replan.delivered_count >= 1 && v.Replan.delivered_count <= 4))
    [ o.Gridb_experiments.Dynamics.ride_out; o.Gridb_experiments.Dynamics.splice;
      o.Gridb_experiments.Dynamics.replan ];
  let rendered = Gridb_experiments.Dynamics.render o in
  Alcotest.(check bool) "render mentions the decision" true
    (let needle = Replan.decision_to_string o.Gridb_experiments.Dynamics.decision in
     let nl = String.length needle and rl = String.length rendered in
     let rec go i = i + nl <= rl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0)

let test_experiment_static_is_ride_out () =
  (* recluster ticks alone (no drift, no churn): signals stay zero and the
     decision must be ride-out with every candidate delivering totally. *)
  let grid = small_grid ~seed:5 ~n:3 in
  let dyn = Dyn.v ~recluster_every:1e5 () in
  let o = Gridb_experiments.Dynamics.run ~seed:5 ~msg:65_536 ~dyn grid in
  Alcotest.(check bool) "decision is ride-out" true
    (o.Gridb_experiments.Dynamics.decision = Replan.Ride_out);
  Alcotest.(check (float 0.)) "no partition drift" 0.
    o.Gridb_experiments.Dynamics.final_drift;
  Alcotest.(check (float 0.)) "full delivery" 1.
    o.Gridb_experiments.Dynamics.delivery_ratio;
  List.iter
    (fun (v : Replan.verdict) ->
      Alcotest.(check int) "candidate delivers everywhere" 3 v.Replan.delivered_count)
    [ o.Gridb_experiments.Dynamics.ride_out; o.Gridb_experiments.Dynamics.splice;
      o.Gridb_experiments.Dynamics.replan ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dynamics"
    [
      ( "spec",
        [
          quick "parse basics" test_spec_parse_basics;
          quick "parse errors name the key" test_spec_parse_errors;
          QCheck_alcotest.to_alcotest spec_roundtrip;
          quick "to_string fixpoints" test_to_string_fixpoint;
        ] );
      ( "model",
        [
          quick "factor bounds and determinism" test_factor_bounds_and_determinism;
          quick "query order independence" test_factor_query_order_independence;
          quick "churn pre-drawn books" test_churn_pre_drawn;
          quick "t0 shifts the origin, not the draws" test_t0_shifts_origin;
        ] );
      ( "executor",
        [
          QCheck_alcotest.to_alcotest dynamics_identity_prop;
          quick "churn delivery accounting" test_churn_delivery_accounting;
          quick "joins need a rerouting transport" test_join_requires_reroute;
        ] );
      ( "estimator",
        [ quick "estimated matrix agrees per link" test_estimated_matrix_agrees_with_links ] );
      ( "replan",
        [
          quick "decide" test_replan_decide;
          quick "fresh" test_replan_fresh;
          quick "full replan via fresh" test_full_replan_via_fresh;
          quick "evaluate re-times under truth" test_evaluate_retimes_under_truth;
          quick "evaluate strands orphans" test_evaluate_strands_orphans;
          QCheck_alcotest.to_alcotest double_splice_prop;
        ] );
      ( "scenario",
        [
          quick "dynamics field round-trips and back-compat" test_scenario_dynamics_roundtrip;
          quick "shrinking drops dynamics first" test_scenario_dynamics_shrinks_first;
          quick "Run.check over dynamic scenarios" test_run_check_dynamic_scenarios;
        ] );
      ( "experiment",
        [
          quick "outcome is coherent" test_experiment_outcome;
          quick "static run rides out" test_experiment_static_is_ride_out;
        ] );
    ]
