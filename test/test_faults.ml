(* Tests for the robustness layer: fault processes, the cancellable engine
   timers, the reliable executor, schedule repair and the simMPI receive
   timeout.  The central invariant: with an empty fault spec the reliable
   executor and the repair pass are both bit-exact identities. *)

module Engine = Gridb_des.Engine
module Noise = Gridb_des.Noise
module Faults = Gridb_des.Faults
module Adaptive = Gridb_des.Adaptive
module Params = Gridb_plogp.Params
module Plan = Gridb_des.Plan
module Exec = Gridb_des.Exec
module Machines = Gridb_topology.Machines
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Sched_engine = Gridb_sched.Engine
module Repair = Gridb_sched.Repair
module Runtime = Gridb_mpi.Runtime
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* Either topology generator, selected by the seed's parity, so the
   property tests cover both regimes. *)
let random_grid ~rng ~n seed =
  if seed mod 2 = 0 then Generators.uniform_random ~rng ~n Generators.default_random_spec
  else
    Generators.multilevel ~rng
      { Generators.default_multilevel_spec with Generators.sites = max 1 (n / 3) }

let plan_of_grid ?(policy = Policy.ecef_la) ~msg grid =
  let inst = Instance.of_grid ~root:0 ~msg grid in
  let schedule = Sched_engine.run policy inst in
  let machines = Machines.expand grid in
  (machines, Plan.of_cluster_schedule machines schedule)

(* --- Rng.bernoulli ------------------------------------------------------ *)

let test_bernoulli_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "p < 0" (Invalid_argument "Rng.bernoulli: p outside [0, 1]")
    (fun () -> ignore (Rng.bernoulli rng (-0.1)));
  Alcotest.check_raises "p > 1" (Invalid_argument "Rng.bernoulli: p outside [0, 1]")
    (fun () -> ignore (Rng.bernoulli rng 1.5));
  Alcotest.check_raises "nan" (Invalid_argument "Rng.bernoulli: p outside [0, 1]")
    (fun () -> ignore (Rng.bernoulli rng nan))

let test_bernoulli_extremes () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "p = 0 never fires" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p = 1 always fires" true (Rng.bernoulli rng 1.)
  done

let test_bernoulli_frequency () =
  let rng = Rng.create 42 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "frequency %.3f near 0.3" freq)
    true
    (freq > 0.27 && freq < 0.33)

(* --- Engine timers ------------------------------------------------------ *)

let test_timer_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.schedule_timer e ~time:3. (fun _ -> fired := true) in
  Alcotest.(check bool) "live before run" true (Engine.timer_live tm);
  Engine.run e;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) "dead after firing" false (Engine.timer_live tm);
  check_feq "clock" 3. (Engine.now e);
  (* Cancelling after the fact is a harmless no-op. *)
  Engine.cancel e tm

let test_cancelled_timer_never_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.schedule_timer e ~time:10. (fun _ -> fired := true) in
  Engine.schedule e ~time:2. (fun _ -> ());
  Engine.cancel e tm;
  Alcotest.(check bool) "dead after cancel" false (Engine.timer_live tm);
  Engine.run e;
  Alcotest.(check bool) "never fired" false !fired;
  check_feq "clock stops at the real event" 2. (Engine.now e);
  Alcotest.(check int) "cancelled event not processed" 1 (Engine.processed e)

let test_cancelled_timer_does_not_block () =
  (* A cancelled event at the head of the queue must not hold run_until's
     horizon hostage nor count as pending work. *)
  let e = Engine.create () in
  let tm = Engine.schedule_timer e ~time:1. (fun _ -> ()) in
  let fired = ref false in
  Engine.schedule e ~time:5. (fun _ -> fired := true);
  Engine.cancel e tm;
  Alcotest.(check int) "pending excludes cancelled" 1 (Engine.pending e);
  Engine.run_until e 3.;
  Alcotest.(check bool) "late event untouched" false !fired;
  Engine.run e;
  Alcotest.(check bool) "late event ran" true !fired

let test_timer_rearm () =
  (* Cancel-and-rearm, the retransmission idiom. *)
  let e = Engine.create () in
  let log = ref [] in
  let tm = ref (Engine.schedule_timer e ~time:4. (fun _ -> log := "old" :: !log)) in
  Engine.schedule e ~time:1. (fun _ ->
      Engine.cancel e !tm;
      tm := Engine.schedule_timer e ~time:2. (fun _ -> log := "new" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "only the rearmed timer fired" [ "new" ] !log;
  check_feq "clock" 2. (Engine.now e)

(* --- Fault specs -------------------------------------------------------- *)

let test_spec_validation () =
  Alcotest.check_raises "loss >= 1"
    (Invalid_argument "Faults.v: loss outside [0, 1)") (fun () ->
      ignore (Faults.v ~loss:1. ()));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Faults.v: negative crash_rate") (fun () ->
      ignore (Faults.v ~crash_rate:(-1e-6) ()));
  Alcotest.check_raises "degrade factor < 1"
    (Invalid_argument "Faults.v: degrade_factor < 1") (fun () ->
      ignore (Faults.v ~degrade_factor:0.5 ()))

let test_spec_of_string () =
  (match Faults.of_string "loss=0.05,crash=2e-8" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      check_feq "loss parsed" 0.05 spec.Faults.loss;
      check_feq "crash parsed" 2e-8 spec.Faults.crash_rate);
  (match Faults.of_string "none" with
  | Ok spec -> Alcotest.(check bool) "none is none" true (Faults.is_none spec)
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "" with
  | Ok spec -> Alcotest.(check bool) "empty is none" true (Faults.is_none spec)
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted")

let test_spec_roundtrip () =
  let spec = Faults.v ~loss:0.1 ~crash_rate:1e-7 ~degrade_rate:1e-6 ~degrade_factor:4. () in
  match Faults.of_string (Faults.to_string spec) with
  | Error e -> Alcotest.fail e
  | Ok spec' ->
      check_feq "loss" spec.Faults.loss spec'.Faults.loss;
      check_feq "crash" spec.Faults.crash_rate spec'.Faults.crash_rate;
      check_feq "degrade" spec.Faults.degrade_rate spec'.Faults.degrade_rate;
      check_feq "factor" spec.Faults.degrade_factor spec'.Faults.degrade_factor

let test_spec_errors_name_keys () =
  let err s =
    match Faults.of_string s with
    | Error e -> e
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  Alcotest.(check string) "loss range" "loss: outside [0, 1) (got 1.5)" (err "loss=1.5");
  Alcotest.(check string) "cut range" "cut: negative rate (got -1)" (err "cut=-1");
  Alcotest.(check string) "crash range" "crash: negative rate (got -2e-08)"
    (err "crash=-2e-8");
  Alcotest.(check string) "degrade range" "degrade: negative rate (got -0.5)"
    (err "loss=0.1,degrade=-0.5");
  Alcotest.(check string) "degrade-mean range" "degrade-mean: must be positive (got 0)"
    (err "degrade-mean=0");
  Alcotest.(check string) "degrade-factor range" "degrade-factor: must be >= 1 (got 0.5)"
    (err "degrade-factor=0.5");
  Alcotest.(check string) "not a number" "loss: not a number (\"lots\")"
    (err "loss=lots");
  Alcotest.(check string) "unknown key"
    "unknown key \"bogus\" (known: loss, cut, crash, degrade, degrade-mean, \
     degrade-factor)"
    (err "bogus=1");
  Alcotest.(check string) "malformed pair" "malformed \"loss\" (want key=value)"
    (err "loss")

(* to_string prints with %g (6 significant digits), so the round trip is
   exact only to that precision. *)
let spec_roundtrip_property =
  QCheck.Test.make ~name:"Faults.to_string/of_string round-trips every spec" ~count:(Testutil.count 200)
    QCheck.(
      pair
        (pair (float_range 0. 0.999) (float_range 0. 1e-3))
        (pair
           (pair (float_range 0. 1e-3) (float_range 1. 1e7))
           (pair (float_range 1. 10.) (float_range 0. 1e-3))))
    (fun ((loss, cut_rate), ((degrade_rate, degrade_mean), (degrade_factor, crash_rate))) ->
      let spec =
        Faults.v ~loss ~cut_rate ~degrade_rate ~degrade_mean ~degrade_factor ~crash_rate
          ()
      in
      match Faults.of_string (Faults.to_string spec) with
      | Error e -> QCheck.Test.fail_reportf "rejected own rendering: %s" e
      | Ok spec' ->
          let close a b = feq ~eps:1e-5 a b || abs_float (a -. b) <= 1e-5 *. abs_float a in
          close spec.Faults.loss spec'.Faults.loss
          && close spec.Faults.cut_rate spec'.Faults.cut_rate
          && close spec.Faults.degrade_rate spec'.Faults.degrade_rate
          && close spec.Faults.degrade_mean spec'.Faults.degrade_mean
          && close spec.Faults.degrade_factor spec'.Faults.degrade_factor
          && close spec.Faults.crash_rate spec'.Faults.crash_rate)

let test_faults_deterministic () =
  let spec = Faults.v ~loss:0.2 ~crash_rate:1e-6 ~cut_rate:1e-7 ()
  and n = 12 in
  let a = Faults.create ~seed:5 ~n spec and b = Faults.create ~seed:5 ~n spec in
  for r = 0 to n - 1 do
    check_feq "crash times equal" (Faults.crash_time a r) (Faults.crash_time b r)
  done;
  (* Per-link streams are pre-seeded: querying b's links in reverse order
     must not change any answer. *)
  let qa = ref [] and qb = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then qa := Faults.lose a ~src ~dst :: !qa
    done
  done;
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then qb := Faults.lose b ~src ~dst :: !qb
    done
  done;
  Alcotest.(check (list bool)) "loss draws query-order independent" !qa (List.rev !qb)

let test_faults_t0_shifts_origin () =
  (* Shifting the time origin translates every drawn time without touching
     the random stream — what lets a broadcast-service session launched
     mid-simulation face faults unfolding from its own start. *)
  let spec = Faults.v ~loss:0.2 ~crash_rate:1e-6 ~cut_rate:1e-7 ~degrade_rate:1e-6 ()
  and n = 8
  and t0 = 5e5 in
  let a = Faults.create ~seed:5 ~n spec and b = Faults.create ~seed:5 ~t0 ~n spec in
  for r = 0 to n - 1 do
    let ca = Faults.crash_time a r in
    check_feq
      (Printf.sprintf "crash %d shifted by t0" r)
      (if Float.is_finite ca then ca +. t0 else ca)
      (Faults.crash_time b r)
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let ca = Faults.cut_time a ~src ~dst in
        check_feq "cut shifted by t0"
          (if Float.is_finite ca then ca +. t0 else ca)
          (Faults.cut_time b ~src ~dst);
        check_feq "degradation timeline shifted by t0"
          (Faults.slowdown a ~src ~dst ~at:1e5)
          (Faults.slowdown b ~src ~dst ~at:(1e5 +. t0));
        Alcotest.(check bool)
          "loss draws t0-independent"
          (Faults.lose a ~src ~dst)
          (Faults.lose b ~src ~dst)
      end
    done
  done;
  Alcotest.check_raises "non-finite t0"
    (Invalid_argument "Faults.create: t0 must be finite") (fun () ->
      ignore (Faults.create ~t0:nan ~n spec))

(* --- Per-link streams --------------------------------------------------- *)

(* A fixed query sequence over a fault model: [queries] random directed
   links, each asked [lose], [slowdown] and [link_up] at a random time.
   The answers are one line per query. *)
let fault_answers ~seed ~n ~queries spec =
  let f = Faults.create ~seed ~n spec in
  let q = Rng.create (seed + 101) in
  let buf = Buffer.create 4096 in
  for _ = 1 to queries do
    let src = Rng.int q n in
    let dst = (src + 1 + Rng.int q (n - 1)) mod n in
    let at = Rng.float q 5e6 in
    Printf.bprintf buf "%d>%d %b %h %b\n" src dst (Faults.lose f ~src ~dst)
      (Faults.slowdown f ~src ~dst ~at) (Faults.link_up f ~src ~dst ~at)
  done;
  Buffer.contents buf

(* Pinned on the eagerly seeded streams: every per-link loss and
   degradation stream must keep drawing exactly these answers however its
   seed is derived. *)
let fault_streams_golden = "245aefd5230c90b2fd0cddd25ae3ae3f"

let test_fault_streams_golden () =
  let cases =
    [
      (3, 5, Faults.v ~loss:0.2 ~degrade_rate:1e-6 ~degrade_mean:2e5 ());
      (7, 12, Faults.v ~loss:0.05 ~degrade_rate:3e-6 ~degrade_mean:5e4 ~degrade_factor:4. ());
      (11, 9, Faults.v ~loss:0.3 ());
      (13, 9, Faults.v ~degrade_rate:2e-6 ());
      ( 2006,
        16,
        Faults.v ~loss:0.15 ~degrade_rate:1e-6 ~cut_rate:1e-7 ~crash_rate:2e-7 () );
    ]
  in
  let answers =
    List.map (fun (seed, n, spec) -> fault_answers ~seed ~n ~queries:400 spec) cases
  in
  Alcotest.(check string) "per-link answers" fault_streams_golden
    (Digest.to_hex (Digest.string (String.concat "" answers)))

(* Each link draws from its own stream, so interleaving the queries of
   different links in any order leaves every link's answer sequence as
   it was. *)
let fault_streams_shuffled_order =
  QCheck.Test.make ~name:"per-link answers independent of link query order"
    ~count:(Testutil.count 30)
    QCheck.(triple (int_range 2 8) (int_bound 10_000) (int_bound 10_000))
    (fun (n, seed, order_seed) ->
      let spec = Faults.v ~loss:0.25 ~degrade_rate:2e-6 ~degrade_mean:1e5 ~cut_rate:1e-7 () in
      let q = Rng.create order_seed in
      (* Per link, a fixed list of query times. *)
      let times =
        Array.init (n * n) (fun _ -> List.init (1 + Rng.int q 4) (fun _ -> Rng.float q 4e6))
      in
      let ask f link at =
        let src = link / n and dst = link mod n in
        (Faults.lose f ~src ~dst, Faults.slowdown f ~src ~dst ~at, Faults.link_up f ~src ~dst ~at)
      in
      let links = List.filter (fun l -> l / n <> l mod n) (List.init (n * n) Fun.id) in
      let in_order = Faults.create ~seed ~n spec in
      let expected =
        List.map (fun l -> (l, List.map (ask in_order l) times.(l))) links
      in
      (* Interleave: repeatedly pick a random link with queries left. *)
      let shuffled = Faults.create ~seed ~n spec in
      let left = Array.map Fun.id times and got = Array.make (n * n) [] in
      let live = ref (Array.of_list links) in
      while Array.length !live > 0 do
        let l = Rng.pick q !live in
        (match left.(l) with
        | at :: rest ->
            got.(l) <- ask shuffled l at :: got.(l);
            left.(l) <- rest
        | [] -> ());
        live := Array.of_list (List.filter (fun l -> left.(l) <> []) (Array.to_list !live))
      done;
      List.for_all (fun (l, answers) -> List.rev got.(l) = answers) expected)

(* --- Reliable executor -------------------------------------------------- *)

(* The zero-fault identity must hold for every transport — the adaptive
   estimator draws no randomness and every timer is cancelled by its ACK
   before firing — and with or without an observability sink attached
   (sinks only watch; both topology generators via [random_grid]). *)
let reliable_zero_fault_identity =
  QCheck.Test.make ~name:"run_reliable with no faults is bit-identical to run" ~count:(Testutil.count 25)
    QCheck.(pair (int_range 2 9) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = random_grid ~rng ~n seed in
      let msg = 1 + (seed mod 4_000_000) in
      let machines, plan = plan_of_grid ~msg grid in
      let base = Exec.run ~msg machines plan in
      let identical (rel : Exec.reliable) =
        rel.Exec.r_makespan = base.Exec.makespan
        && rel.Exec.r_arrival = base.Exec.arrival
        && rel.Exec.r_transmissions = base.Exec.transmissions
        && rel.Exec.retransmissions = 0
        && rel.Exec.gave_up = []
        && rel.Exec.crashed = []
        && rel.Exec.reroutes = []
        && rel.Exec.circuit_opens = 0
        && rel.Exec.delivered = Machines.count machines
      in
      List.for_all
        (fun transport ->
          identical (Exec.run_reliable ~msg ~transport machines plan)
          &&
          let obs = Gridb_obs.Sink.memory () in
          let observed = Exec.run_reliable ~msg ~transport ~obs machines plan in
          identical observed && Gridb_obs.Sink.count obs > 0)
        [ Exec.Fixed; Exec.adaptive (); Exec.adaptive ~reroute:true () ])

let test_reliable_seeded_reproducible () =
  let grid = Grid5000.grid () in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let spec = Faults.v ~loss:0.1 ~crash_rate:1e-6 () in
  let once () =
    let faults = Faults.create ~seed:3 ~n:(Machines.count machines) spec in
    Exec.run_reliable ~msg ~faults machines plan
  in
  let a = once () and b = once () in
  (* Polymorphic compare, not (=): undelivered ranks hold nan. *)
  Alcotest.(check bool) "arrivals identical" true
    (compare a.Exec.r_arrival b.Exec.r_arrival = 0);
  Alcotest.(check int) "transmissions identical" a.Exec.r_transmissions b.Exec.r_transmissions;
  Alcotest.(check int) "retransmissions identical" a.Exec.retransmissions b.Exec.retransmissions;
  Alcotest.(check (list (pair int int))) "gave_up identical" a.Exec.gave_up b.Exec.gave_up;
  Alcotest.(check (list int)) "crashed identical" a.Exec.crashed b.Exec.crashed

let test_reliable_recovers_from_loss () =
  let grid = Grid5000.grid () in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let base = Exec.run ~msg machines plan in
  let faults = Faults.create ~seed:11 ~n (Faults.v ~loss:0.3 ()) in
  let rel = Exec.run_reliable ~msg ~faults ~retries:25 machines plan in
  Alcotest.(check int) "full delivery despite 30% loss" n rel.Exec.delivered;
  Alcotest.(check bool) "losses caused retransmissions" true (rel.Exec.retransmissions > 0);
  Alcotest.(check bool) "retransmissions cost time" true
    (rel.Exec.r_makespan >= base.Exec.makespan);
  Alcotest.(check bool) "every rank acked once" true (rel.Exec.acks >= n - 1)

let test_reliable_retry_budget_exhaustion () =
  let rng = Rng.create 2 in
  let grid = Generators.uniform_random ~rng ~n:6 Generators.default_random_spec in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let faults = Faults.create ~seed:4 ~n (Faults.v ~loss:0.9 ()) in
  let rel = Exec.run_reliable ~msg ~faults ~retries:1 machines plan in
  Alcotest.(check bool) "some edges gave up" true (rel.Exec.gave_up <> []);
  Alcotest.(check bool) "partial delivery" true (rel.Exec.delivered < n);
  (* Undelivered ranks must be marked, delivered ones timed. *)
  Array.iteri
    (fun r t ->
      if Float.is_nan t then
        Alcotest.(check bool)
          (Printf.sprintf "rank %d unreached and not root" r)
          true (r <> plan.Plan.root))
    rel.Exec.r_arrival

let test_reliable_crash_partitions () =
  let grid = Grid5000.grid () in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  (* Aggressive crash rate: mean time to failure well under the makespan. *)
  let faults = Faults.create ~seed:1 ~n (Faults.v ~crash_rate:5e-6 ()) in
  let rel = Exec.run_reliable ~msg ~faults machines plan in
  Alcotest.(check bool) "some ranks crashed" true (rel.Exec.crashed <> []);
  Alcotest.(check bool) "partial delivery" true (rel.Exec.delivered < n);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "crashed rank %d halted within horizon" r)
        true
        (Float.is_finite (Faults.crash_time faults r)))
    rel.Exec.crashed

(* --- Adaptive transport and in-flight reroute ---------------------------- *)

let test_run_reliable_rto_max_validation () =
  let grid = Grid5000.grid () in
  let machines, plan = plan_of_grid ~msg:1_000 grid in
  Alcotest.check_raises "rto_max < rto_min"
    (Invalid_argument "Exec.run_reliable: rto_max < rto_min") (fun () ->
      ignore (Exec.run_reliable ~rto_min:10. ~rto_max:5. machines plan))

let test_reroute_totality_under_loss () =
  (* Same cell as the retry-budget-exhaustion test: the fixed transport
     strands ranks, while adaptive+reroute must deliver everyone — no
     crashes and no cuts, so the reachability graph is complete. *)
  let rng = Rng.create 2 in
  let grid = Generators.uniform_random ~rng ~n:6 Generators.default_random_spec in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let faults () = Faults.create ~seed:4 ~n (Faults.v ~loss:0.9 ()) in
  let fixed = Exec.run_reliable ~msg ~faults:(faults ()) ~retries:1 machines plan in
  Alcotest.(check bool) "fixed transport strands ranks" true (fixed.Exec.delivered < n);
  let rer =
    Exec.run_reliable ~msg ~faults:(faults ()) ~retries:1
      ~transport:(Exec.adaptive ~reroute:true ()) machines plan
  in
  Alcotest.(check (list int)) "no crashes" [] rer.Exec.crashed;
  Alcotest.(check int) "total delivery" n rer.Exec.delivered;
  Alcotest.(check bool) "rescues went through reroutes" true (rer.Exec.reroutes <> []);
  Alcotest.(check (list (pair int int))) "nothing abandoned" [] rer.Exec.gave_up

let test_reroute_under_cuts () =
  (* Permanent link cuts with no crashes: any rank left undelivered by the
     rerouting transport must be physically partitioned — every link from a
     delivered rank to it was cut (otherwise a loss-free attempt over a
     live link would have delivered). *)
  let rng = Rng.create 8 in
  let grid = Generators.uniform_random ~rng ~n:8 Generators.default_random_spec in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let spec = Faults.v ~cut_rate:2e-6 () in
  let faults () = Faults.create ~seed:9 ~n spec in
  let fixed = Exec.run_reliable ~msg ~faults:(faults ()) machines plan in
  let rer =
    Exec.run_reliable ~msg ~faults:(faults ())
      ~transport:(Exec.adaptive ~reroute:true ()) machines plan
  in
  Alcotest.(check (list int)) "no crashes" [] rer.Exec.crashed;
  Alcotest.(check bool)
    (Printf.sprintf "reroute %d >= fixed %d delivered" rer.Exec.delivered
       fixed.Exec.delivered)
    true
    (rer.Exec.delivered >= fixed.Exec.delivered);
  let f = faults () in
  Array.iteri
    (fun dst t ->
      if Float.is_nan t then
        for src = 0 to n - 1 do
          if src <> dst && not (Float.is_nan rer.Exec.r_arrival.(src)) then
            Alcotest.(check bool)
              (Printf.sprintf "undelivered %d is partitioned: %d->%d was cut" dst src dst)
              true
              (Float.is_finite (Faults.cut_time f ~src ~dst))
        done)
    rer.Exec.r_arrival

let test_reroute_rescues_crashed_subtrees () =
  (* Same aggressive crash cell as the partition test.  With reroute, the
     planned subtrees under crashed relays are re-parented: every rank left
     undelivered must itself have crashed. *)
  let grid = Grid5000.grid () in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let faults () = Faults.create ~seed:1 ~n (Faults.v ~crash_rate:5e-6 ()) in
  let fixed = Exec.run_reliable ~msg ~faults:(faults ()) machines plan in
  let rer =
    Exec.run_reliable ~msg ~faults:(faults ())
      ~transport:(Exec.adaptive ~reroute:true ()) machines plan
  in
  Alcotest.(check bool) "crashes happened" true (rer.Exec.crashed <> []);
  Alcotest.(check bool)
    (Printf.sprintf "reroute %d > fixed %d delivered" rer.Exec.delivered
       fixed.Exec.delivered)
    true
    (rer.Exec.delivered > fixed.Exec.delivered);
  Array.iteri
    (fun r t ->
      if Float.is_nan t then
        Alcotest.(check bool)
          (Printf.sprintf "undelivered rank %d crashed" r)
          true
          (List.mem r rer.Exec.crashed))
    rer.Exec.r_arrival

(* Regression: the estimator's nominal must be the raw round trip, not the
   rto_mult-inflated, rto_min-floored RTO the executor arms.  With no
   faults and exact noise every plan edge samples exactly
   gap + latency + ACK latency, so every link's quality is 1 (to rounding)
   and the estimated parameters match the nominal ones — with the inflated
   nominal, healthy links would read ~1/rto_mult faster than the model. *)
let test_healthy_links_estimate_quality_one () =
  let grid = Grid5000.grid () in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let rel = Exec.run_reliable ~msg ~transport:(Exec.adaptive ()) machines plan in
  Alcotest.(check int) "all delivered" n rel.Exec.delivered;
  let est = Option.get rel.Exec.estimator in
  let edges = ref 0 in
  Array.iteri
    (fun parent children ->
      List.iter
        (fun child ->
          incr edges;
          Alcotest.(check int)
            (Printf.sprintf "edge %d->%d sampled once" parent child)
            1
            (Adaptive.samples est ~src:parent ~dst:child);
          check_feq
            (Printf.sprintf "edge %d->%d quality" parent child)
            1.
            (Adaptive.quality est ~src:parent ~dst:child);
          let p = Machines.link_params machines parent child in
          let ep = Adaptive.estimated_params est ~src:parent ~dst:child p in
          check_feq
            (Printf.sprintf "edge %d->%d estimated latency" parent child)
            (Params.latency p) (Params.latency ep);
          check_feq
            (Printf.sprintf "edge %d->%d estimated gap" parent child)
            (Params.gap p msg) (Params.gap ep msg))
        children)
    plan.Plan.children;
  Alcotest.(check int) "every non-root rank has a plan edge" (n - 1) !edges

let test_adaptive_emits_circuit_events () =
  (* Heavy loss with a generous retry budget: circuits must open (3
     consecutive timeouts) and close again on a later success, and the
     stream must carry the matching events. *)
  let rng = Rng.create 2 in
  let grid = Generators.uniform_random ~rng ~n:6 Generators.default_random_spec in
  let msg = 1_000_000 in
  let machines, plan = plan_of_grid ~msg grid in
  let n = Machines.count machines in
  let faults = Faults.create ~seed:4 ~n (Faults.v ~loss:0.6 ()) in
  let obs = Gridb_obs.Sink.memory () in
  let rel =
    Exec.run_reliable ~msg ~faults ~retries:25 ~transport:(Exec.adaptive ()) ~obs machines
      plan
  in
  Alcotest.(check bool) "circuits opened" true (rel.Exec.circuit_opens > 0);
  let events = Gridb_obs.Sink.events obs in
  let opens =
    List.length
      (List.filter (function Gridb_obs.Event.Circuit_open _ -> true | _ -> false) events)
  in
  let closes =
    List.length
      (List.filter (function Gridb_obs.Event.Circuit_close _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "open events match the counter" rel.Exec.circuit_opens opens;
  Alcotest.(check bool) "some circuit closed again" true (closes > 0);
  (* Plain adaptive never reroutes. *)
  Alcotest.(check (list (triple int int int))) "no reroutes without the flag" []
    rel.Exec.reroutes

let test_mean_reliable_discipline () =
  let grid = Grid5000.grid () in
  let machines, plan = plan_of_grid ~msg:1_000_000 grid in
  let spec = Faults.v ~loss:0.05 () in
  let s seed = Exec.mean_reliable ~repetitions:3 ~seed ~spec machines plan in
  let a = s 5 and b = s 5 in
  Alcotest.(check bool) "equal seeds, equal summaries" true (a = b);
  Alcotest.(check bool) "different seeds differ" true (s 5 <> s 6);
  Alcotest.(check bool) "losses retransmit" true (a.Exec.mean_retransmissions > 0.);
  Alcotest.(check bool) "stddev nonnegative" true (a.Exec.stddev_makespan >= 0.);
  let r =
    Exec.mean_reliable ~repetitions:3 ~seed:5 ~spec
      ~transport:(Exec.adaptive ~reroute:true ()) machines plan
  in
  Alcotest.(check bool) "reroute delivers in every repetition" true r.Exec.all_delivered;
  check_feq ~eps:0. "full delivered fraction" 1. r.Exec.delivered_fraction;
  (* Fanning the repetitions over a pool must not move a single bit: each
     rep's fault stream derives from (seed, rep) alone. *)
  let par = Exec.mean_reliable ~repetitions:3 ~seed:5 ~spec ~jobs:4 machines plan in
  Alcotest.(check bool) "jobs=4 bit-identical to sequential" true (a = par)

(* --- Exec.mean_makespan stream discipline ------------------------------- *)

let test_mean_makespan_seed_determinism () =
  let grid = Grid5000.grid () in
  let machines, plan = plan_of_grid ~msg:1_000_000 grid in
  let mean seed =
    Exec.mean_makespan ~noise:(Noise.Lognormal 0.08) ~repetitions:5 ~seed machines plan
  in
  check_feq ~eps:0. "equal seeds, equal means" (mean 9) (mean 9);
  Alcotest.(check bool) "different seeds differ" true (mean 9 <> mean 10)

let test_mean_makespan_split_streams () =
  (* Repetition [rep] runs on the indexed stream [Rng.split base rep], so a
     single-rep mean must equal a direct run on stream 0 — and every rep's
     value is independent of how many repetitions surround it. *)
  let grid = Grid5000.grid () in
  let machines, plan = plan_of_grid ~msg:1_000_000 grid in
  let noise = Noise.Lognormal 0.08 in
  let rng = Rng.create 21 in
  let direct = Exec.run ~noise ~rng:(Rng.split rng 0) machines plan in
  let m1 = Exec.mean_makespan ~noise ~repetitions:1 ~seed:21 machines plan in
  check_feq ~eps:0. "rep 0 is indexed stream 0" direct.Exec.makespan m1;
  let m2 = Exec.mean_makespan ~noise ~repetitions:2 ~seed:21 machines plan in
  let m3 = Exec.mean_makespan ~noise ~repetitions:3 ~seed:21 machines plan in
  (* Prefix property: rep 1's value recovered from the 2-rep mean must be
     exactly what the 3-rep mean implies for it, which fails if one rep's
     draw count shifted another's stream. *)
  let rep1_from_2 = (2. *. m2) -. m1 in
  let direct1 = Exec.run ~noise ~rng:(Rng.split rng 1) machines plan in
  check_feq "rep 1 is indexed stream 1" direct1.Exec.makespan rep1_from_2;
  let rep2_from_3 = (3. *. m3) -. (2. *. m2) in
  let direct2 = Exec.run ~noise ~rng:(Rng.split rng 2) machines plan in
  check_feq "rep 2 is indexed stream 2" direct2.Exec.makespan rep2_from_3;
  (* The indexed derivation is pure: deriving streams above did not advance
     [rng], so the means are reproducible from the same base. *)
  check_feq ~eps:0. "split is pure in the base state" m1
    (Exec.mean_makespan ~noise ~repetitions:1 ~seed:21 machines plan);
  (* And the pool gives the identical mean at any worker count. *)
  check_feq ~eps:0. "jobs=4 mean is bit-identical"
    m3
    (Exec.mean_makespan ~noise ~repetitions:3 ~jobs:4 ~seed:21 machines plan)

let test_noise_uniform_rejects_bad_eps () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "eps = 1"
    (Invalid_argument "Noise.factor: Uniform eps outside [0, 1)") (fun () ->
      ignore (Noise.factor (Noise.Uniform 1.) rng));
  Alcotest.check_raises "eps < 0"
    (Invalid_argument "Noise.factor: Uniform eps outside [0, 1)") (fun () ->
      ignore (Noise.factor (Noise.Uniform (-0.1)) rng))

(* --- Schedule repair ----------------------------------------------------- *)

let repair_zero_fault_identity =
  QCheck.Test.make ~name:"repair under zero faults is the identity" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 2 12) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = random_grid ~rng ~n seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let schedule = Sched_engine.run Policy.ecef_la inst in
      let crash = Array.make inst.Instance.n infinity in
      let o = Repair.repair inst schedule ~crash in
      o.Repair.schedule.Schedule.events = schedule.Schedule.events
      && o.Repair.schedule.Schedule.ready = schedule.Schedule.ready
      && o.Repair.schedule.Schedule.busy_until = schedule.Schedule.busy_until
      && o.Repair.replanned = [] && o.Repair.dead = [] && o.Repair.abandoned = []
      && Array.for_all Fun.id o.Repair.delivered)

(* A deterministic mid-broadcast coordinator crash: kill the first relay
   (non-root sender) at the very instant its copy would have arrived, so
   it never holds the message and every cluster it was to serve is
   orphaned. *)
let crash_first_relay inst schedule =
  let relay =
    match
      List.find_opt
        (fun (e : Schedule.event) -> e.Schedule.src <> schedule.Schedule.root)
        schedule.Schedule.events
    with
    | Some e -> e.Schedule.src
    | None -> Alcotest.fail "schedule has no relay sender"
  in
  let crash = Array.make inst.Instance.n infinity in
  crash.(relay) <- schedule.Schedule.ready.(relay);
  (relay, crash)

let test_repair_reroutes_orphans () =
  let grid = Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let schedule = Sched_engine.run Policy.ecef_la inst in
  let relay, crash = crash_first_relay inst schedule in
  let o = Repair.repair inst schedule ~crash in
  Alcotest.(check (list int)) "exactly the relay died" [ relay ] o.Repair.dead;
  Alcotest.(check bool) "orphans were replanned" true (o.Repair.replanned <> []);
  Alcotest.(check (list int)) "nobody abandoned" [] o.Repair.abandoned;
  Array.iteri
    (fun c delivered ->
      if c <> relay then
        Alcotest.(check bool) (Printf.sprintf "cluster %d served" c) true delivered)
    o.Repair.delivered;
  let at = crash.(relay) in
  List.iter
    (fun (e : Schedule.event) ->
      Alcotest.(check bool) "repair sends start at detection or later" true
        (e.Schedule.start >= at);
      Alcotest.(check bool) "no dead participants" true
        (e.Schedule.src <> relay && e.Schedule.dst <> relay))
    o.Repair.replanned;
  Alcotest.(check bool) "patched makespan is finite and positive" true
    (Float.is_finite o.Repair.makespan && o.Repair.makespan > 0.);
  (* Rounds are renumbered consecutively from 0. *)
  List.iteri
    (fun i (e : Schedule.event) -> Alcotest.(check int) "round" i e.Schedule.round)
    o.Repair.schedule.Schedule.events

let test_repair_abandons_without_sources () =
  (* Root crashes before sending anything: every other cluster is orphaned
     with no surviving holder. *)
  let grid = Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let schedule = Sched_engine.run Policy.ecef_la inst in
  let n = inst.Instance.n in
  let crash = Array.make n infinity in
  crash.(0) <- 0.;
  let o = Repair.repair ~at:0. inst schedule ~crash in
  Alcotest.(check (list int)) "root dead" [ 0 ] o.Repair.dead;
  Alcotest.(check (list int)) "everyone abandoned"
    (List.init (n - 1) (fun i -> i + 1))
    o.Repair.abandoned;
  Alcotest.(check bool) "nothing replanned" true (o.Repair.replanned = [])

let test_repair_respects_policy () =
  (* The residual replan is driven by the requested policy: on a fresh
     crash the flat-tree repair must fan out from sources only, while the
     default may relay.  Weak but policy-sensitive check: both deliver. *)
  let grid = Grid5000.grid () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let schedule = Sched_engine.run Policy.ecef_la inst in
  let relay, crash = crash_first_relay inst schedule in
  List.iter
    (fun policy ->
      let o = Repair.repair ~policy inst schedule ~crash in
      Array.iteri
        (fun c d ->
          if c <> relay then
            Alcotest.(check bool)
              (Printf.sprintf "%s serves cluster %d" (Policy.name policy) c)
              true d)
        o.Repair.delivered)
    [ Policy.flat_tree; Policy.fef; Policy.ecef; Policy.bottom_up ]

(* --- Robustness scorecard ------------------------------------------------ *)

let test_robustness_zero_faults () =
  let grid = Grid5000.grid () in
  let m = Gridb_experiments.Robustness.run ~spec:Faults.none grid in
  check_feq ~eps:0. "delivery ratio 1" 1. m.Gridb_experiments.Robustness.delivery_ratio;
  check_feq ~eps:0. "inflation exactly 1" 1. m.Gridb_experiments.Robustness.inflation;
  Alcotest.(check int) "no retransmissions" 0 m.Gridb_experiments.Robustness.retransmissions;
  Alcotest.(check bool) "no repair" false m.Gridb_experiments.Robustness.repair_invoked

let test_robustness_under_loss () =
  let grid = Grid5000.grid () in
  let spec = Faults.v ~loss:0.1 () in
  let m = Gridb_experiments.Robustness.run ~seed:6 ~spec grid in
  Alcotest.(check bool) "still delivers" true
    (m.Gridb_experiments.Robustness.delivery_ratio > 0.9);
  Alcotest.(check bool) "loss costs time" true
    (m.Gridb_experiments.Robustness.inflation >= 1.);
  Alcotest.(check bool) "retransmitted" true
    (m.Gridb_experiments.Robustness.retransmissions > 0);
  let rendered = Gridb_experiments.Robustness.render m in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions delivery ratio" true
    (contains rendered "delivery ratio")

(* --- simMPI recv_timeout ------------------------------------------------- *)

let test_recv_timeout_expires () =
  let rng = Rng.create 13 in
  let grid = Generators.uniform_random ~rng ~n:2 Generators.default_random_spec in
  let machines = Machines.expand grid in
  let expired_at = ref nan and late = ref false in
  let result =
    Runtime.run_exn machines (fun ~rank ~size:_ ->
        if rank = 1 then begin
          (match Runtime.Api.recv_timeout ~timeout:50. () with
          | None -> expired_at := Runtime.Api.time ()
          | Some _ -> Alcotest.fail "nothing was sent yet");
          (* The sender transmits at t = 100; a generous second deadline
             must now see the message (and the first, cancelled deadline
             must not have corrupted the parked state). *)
          match Runtime.Api.recv_timeout ~timeout:1e9 () with
          | Some m -> late := m.Runtime.src = 0
          | None -> Alcotest.fail "message never arrived"
        end
        else if rank = 0 then begin
          Runtime.Api.compute 100.;
          Runtime.Api.send ~dst:1 ~msg_size:1_000 ()
        end)
  in
  check_feq "deadline fired exactly at 50" 50. !expired_at;
  Alcotest.(check bool) "second wait caught the real message" true !late;
  Alcotest.(check (list int)) "no deadlocks" [] result.Runtime.deadlocked

let test_recv_timeout_cancelled_by_delivery () =
  let rng = Rng.create 14 in
  let grid = Generators.uniform_random ~rng ~n:2 Generators.default_random_spec in
  let machines = Machines.expand grid in
  let got = ref false and second_expired = ref nan in
  let result =
    Runtime.run_exn machines (fun ~rank ~size:_ ->
        if rank = 1 then begin
          (match Runtime.Api.recv_timeout ~timeout:1e9 () with
          | Some _ -> got := true
          | None -> Alcotest.fail "message lost");
          (* If the first deadline timer survived its cancellation it would
             fire during this second, short wait and resume us twice. *)
          match Runtime.Api.recv_timeout ~timeout:10. () with
          | None -> second_expired := Runtime.Api.time ()
          | Some _ -> Alcotest.fail "no second message exists"
        end
        else if rank = 0 then Runtime.Api.send ~dst:1 ~msg_size:1_000 ())
  in
  Alcotest.(check bool) "message received before deadline" true !got;
  Alcotest.(check bool) "second deadline fired 10us after the delivery" true
    (Float.is_finite !second_expired);
  Alcotest.(check (list int)) "no deadlocks" [] result.Runtime.deadlocked

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "bernoulli",
        [
          quick "validation" test_bernoulli_validation;
          quick "extremes" test_bernoulli_extremes;
          quick "frequency" test_bernoulli_frequency;
        ] );
      ( "timers",
        [
          quick "fires" test_timer_fires;
          quick "cancelled never fires" test_cancelled_timer_never_fires;
          quick "cancelled does not block" test_cancelled_timer_does_not_block;
          quick "rearm" test_timer_rearm;
        ] );
      ( "spec",
        [
          quick "validation" test_spec_validation;
          quick "of_string" test_spec_of_string;
          quick "roundtrip" test_spec_roundtrip;
          quick "errors name keys" test_spec_errors_name_keys;
          QCheck_alcotest.to_alcotest spec_roundtrip_property;
          quick "deterministic" test_faults_deterministic;
          quick "t0 shifts the origin, not the draws" test_faults_t0_shifts_origin;
        ] );
      ( "link streams",
        [
          quick "golden answers" test_fault_streams_golden;
          QCheck_alcotest.to_alcotest fault_streams_shuffled_order;
        ] );
      ( "reliable",
        [
          QCheck_alcotest.to_alcotest reliable_zero_fault_identity;
          quick "seeded reproducible" test_reliable_seeded_reproducible;
          quick "recovers from loss" test_reliable_recovers_from_loss;
          quick "retry budget exhaustion" test_reliable_retry_budget_exhaustion;
          quick "crash partitions" test_reliable_crash_partitions;
        ] );
      ( "adaptive transport",
        [
          quick "rto_max validation" test_run_reliable_rto_max_validation;
          quick "reroute totality under loss" test_reroute_totality_under_loss;
          quick "reroute under cuts" test_reroute_under_cuts;
          quick "reroute rescues crashed subtrees" test_reroute_rescues_crashed_subtrees;
          quick "healthy links estimate quality 1" test_healthy_links_estimate_quality_one;
          quick "circuit events" test_adaptive_emits_circuit_events;
          quick "mean_reliable discipline" test_mean_reliable_discipline;
        ] );
      ( "mean makespan",
        [
          quick "seed determinism" test_mean_makespan_seed_determinism;
          quick "split streams" test_mean_makespan_split_streams;
          quick "uniform eps validation" test_noise_uniform_rejects_bad_eps;
        ] );
      ( "repair",
        [
          QCheck_alcotest.to_alcotest repair_zero_fault_identity;
          quick "reroutes orphans" test_repair_reroutes_orphans;
          quick "abandons without sources" test_repair_abandons_without_sources;
          quick "respects policy" test_repair_respects_policy;
        ] );
      ( "robustness",
        [
          quick "zero faults" test_robustness_zero_faults;
          quick "under loss" test_robustness_under_loss;
        ] );
      ( "recv_timeout",
        [
          quick "expires" test_recv_timeout_expires;
          quick "cancelled by delivery" test_recv_timeout_cancelled_by_delivery;
        ] );
    ]
