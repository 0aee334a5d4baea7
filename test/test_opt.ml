(* Tests for lib/opt: the exact branch-and-bound solver, Träff's
   closed-form homogeneous construction, the shared policy name table,
   the analytic lower bound as a sound pruning bound, schedule replay of
   certified optima (invariants + DES), and a golden pin of the exact
   solver's schedules on a fixed corpus. *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Bounds = Gridb_sched.Bounds
module Generators = Gridb_topology.Generators
module Machines = Gridb_topology.Machines
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Faults = Gridb_des.Faults
module Invariant = Gridb_check.Invariant
module Scenario = Gridb_check.Scenario
module Exact = Gridb_opt.Exact
module Traff = Gridb_opt.Traff
module Optgap = Gridb_experiments.Optgap
module Config = Gridb_experiments.Config
module Rng = Gridb_util.Rng

let feq = Testutil.feq

let check_outcome name = function
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: %a" name Invariant.pp_violation v

(* ------------------------------------------------------------------ *)
(* Satellite 1: one shared policy name table, no drift between the    *)
(* Policy registry and the CLI/check listings                        *)
(* ------------------------------------------------------------------ *)

let test_policy_table_shared () =
  let slist = Alcotest.(check (list string)) in
  slist "Policy.names is the paper's seven, in paper order"
    [ "FlatTree"; "FEF"; "ECEF"; "ECEF-LA"; "ECEF-LAt"; "ECEF-LAT"; "BottomUp" ]
    Policy.names;
  slist "Policy.all renders to Policy.names" Policy.names
    (List.map Policy.name Policy.all);
  slist "Policy.ecef_family is Figures 3 and 4's curves"
    [ "ECEF"; "ECEF-LA"; "ECEF-LAt"; "ECEF-LAT" ]
    (List.map Policy.name Policy.ecef_family)

let test_policy_menu_consistent () =
  (* The seeded scenario menu is the shared table plus the pinned Mixed
     policy (kept last to preserve historical Rng.pick streams). *)
  let menu = Array.to_list Scenario.policy_menu in
  Alcotest.(check (list string))
    "policy_menu = Policy.names + Mixed"
    (Policy.names @ [ "Mixed<ECEF-LA|ECEF-LAT@10>" ])
    menu;
  List.iter
    (fun name ->
      (match Policy.by_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "Policy.by_name %S: no policy" name);
      match Policy.by_name name with
      | Some h ->
          Alcotest.(check string)
            (Printf.sprintf "by_name %S round-trips" name)
            name (Policy.name h)
      | None -> Alcotest.failf "Policy.by_name %S: no heuristic" name)
    menu

(* ------------------------------------------------------------------ *)
(* Satellite 2: the analytic lower bound never exceeds a heuristic    *)
(* makespan — on any topology family and on every DES transport.      *)
(* A wrong bound here is what would make B&B prune the true optimum.  *)
(* ------------------------------------------------------------------ *)

let sizes_for topo = match topo with Optgap.Multilevel -> [ 4; 6; 8 ] | _ -> [ 2; 5; 8 ]

let test_bound_below_heuristics () =
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun n ->
          List.iter
            (fun seed ->
              let inst = Optgap.instance topo ~seed ~n ~msg:1_000_000 in
              let lb = Bounds.combined inst in
              List.iter
                (fun p ->
                  let mk = Schedule.makespan inst (Engine.run p inst) in
                  if not (lb <= mk || feq lb mk) then
                    Alcotest.failf
                      "%s n=%d seed=%d: bound %.17g beats %s makespan %.17g" tname n
                      seed lb (Policy.name p) mk)
                Policy.all)
            [ 7; 42; 2006 ])
        (sizes_for topo))
    Optgap.topologies

let test_bound_below_des_transports () =
  (* The bound is stated over analytic schedules; the fault-free DES
     reproduces those exactly, on every transport.  Drive one heuristic
     schedule through all three transports and re-check the bound. *)
  let transports =
    [ Session.Fixed; Session.adaptive (); Session.adaptive ~reroute:true () ]
  in
  List.iter
    (fun seed ->
      let grid = Testutil.random_grid ~cluster_size:(1, 3) ~n:6 seed in
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let lb = Bounds.combined inst in
      let machines = Machines.expand grid in
      let sched = Engine.run Policy.ecef_lat_max inst in
      let plan = Plan.of_cluster_schedule machines sched in
      List.iter
        (fun transport ->
          let r =
            Session.run_reliable (Session.Config.v ~msg:1_000_000 ~transport ())
              machines plan
          in
          if not (lb <= r.Session.r_makespan || feq lb r.Session.r_makespan) then
            Alcotest.failf "seed=%d %s: bound %.17g beats DES makespan %.17g" seed
              (Session.transport_to_string transport)
              lb r.Session.r_makespan)
        transports)
    [ 3; 11; 2006 ]

(* ------------------------------------------------------------------ *)
(* Tentpole unit checks: certificates, brute-force agreement, Träff   *)
(* ------------------------------------------------------------------ *)

let test_exact_matches_brute_force () =
  (* The exhaustive oracle explores the identical schedule space with no
     pruning.  The ablation tables divide by Exact.makespan on draws from
     the Config.point_rng streams, so on those streams the two must agree
     bit for bit, not merely within a tolerance. *)
  let config = Config.default in
  List.iteri
    (fun point n ->
      let rng = Config.point_rng config ~point in
      for draw = 1 to 40 do
        let inst = Instance.random ~rng ~n config.Config.ranges in
        let bnb = Exact.makespan inst and brute = Brute_force.makespan inst in
        if not (Float.equal bnb brute) then
          Alcotest.failf "n=%d draw=%d: B&B %.17g <> brute force %.17g" n draw bnb brute
      done)
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_certificate_coherent () =
  List.iter
    (fun (seed, inst) ->
      let c = Exact.solve inst in
      let name = Printf.sprintf "seed=%d" seed in
      Alcotest.(check bool) (name ^ ": incumbent listed") true
        (List.mem c.Exact.incumbent Policy.names);
      Alcotest.(check bool) (name ^ ": makespan <= incumbent") true
        (c.Exact.makespan <= c.Exact.incumbent_makespan
        || feq c.Exact.makespan c.Exact.incumbent_makespan);
      Alcotest.(check bool) (name ^ ": root bound <= makespan") true
        (c.Exact.lower_bound <= c.Exact.makespan
        || feq c.Exact.lower_bound c.Exact.makespan);
      Alcotest.(check bool) (name ^ ": optimal_by_heuristic tracks improved") true
        (c.Exact.optimal_by_heuristic = (c.Exact.stats.Exact.improved = 0));
      Alcotest.(check bool) (name ^ ": schedule attains certificate") true
        (Float.equal (Schedule.makespan inst c.Exact.schedule) c.Exact.makespan);
      match Schedule.validate inst c.Exact.schedule with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: certified schedule invalid: %s" name e)
    (Testutil.corpus ~n_range:(2, 9) ~seed:13 ~count:5 ())

let test_exact_rejects_oversize () =
  let inst = Testutil.random_instance ~n:13 1 in
  Alcotest.check_raises "beyond default ceiling"
    (Invalid_argument "Exact: 13 clusters exceeds the ceiling of 12") (fun () ->
      ignore (Exact.solve inst))

let test_traff_informed_recurrence () =
  (* N(t) = 1 before g + L, then N(t - g) + N(t - g - L): the heap
     simulation and the recurrence must agree on the last arrival. *)
  List.iter
    (fun (gap, latency) ->
      List.iter
        (fun n ->
          let last = Traff.last_arrival ~n ~gap ~latency in
          (* The recurrence subtracts where the heap adds: evaluate a hair
             past [last] so an ulp of disagreement cannot drop an arrival. *)
          let at_last =
            Traff.informed ~gap ~latency (last +. (1e-9 *. Float.max 1. last))
          in
          if at_last < n then
            Alcotest.failf "g=%g L=%g n=%d: informed(%.17g) = %d < n" gap latency n last
              at_last;
          (* Strictly before any arrival can complete, fewer are informed. *)
          let before = Traff.informed ~gap ~latency ((gap +. latency) *. 0.5) in
          Alcotest.(check int)
            (Printf.sprintf "g=%g L=%g: only the root before g+L" gap latency)
            1 before)
        [ 1; 2; 3; 7; 16; 33 ])
    [ (1., 1.); (769.2, 12_500.); (100., 0.5) ]

let test_traff_schedule_matches_closed_form () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let r = Instance.table2_ranges in
      let draw (lo, hi) = Rng.float_in rng lo hi in
      let params =
        {
          Traff.n = 2 + Rng.int_in rng 0 10;
          root = 0;
          latency = draw r.Instance.latency_us;
          gap = draw r.Instance.gap_us;
          intra = draw r.Instance.intra_us;
        }
      in
      let inst = Traff.instance params in
      (match Traff.homogeneous inst with
      | Some p -> Alcotest.(check int) "round-trip n" params.Traff.n p.Traff.n
      | None -> Alcotest.fail "Traff.instance not detected homogeneous");
      let sched = Traff.schedule inst in
      (* Bitwise: greedy schedule and heap closed form share every float op. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed=%d: greedy schedule attains closed form" seed)
        true
        (Float.equal (Schedule.makespan inst sched) (Traff.makespan params));
      check_outcome
        (Printf.sprintf "seed=%d: Traff schedule invariants" seed)
        (Invariant.check_schedule inst sched))
    [ 1; 2; 3; 4; 5 ]

let test_exact_equals_traff_on_homogeneous () =
  List.iter
    (fun seed ->
      let inst = Optgap.instance Optgap.Homogeneous ~seed ~n:(4 + (seed mod 5)) ~msg:1 in
      let params =
        match Traff.homogeneous inst with Some p -> p | None -> assert false
      in
      let opt = Exact.makespan inst and closed = Traff.makespan params in
      if not (feq opt closed) then
        Alcotest.failf "seed=%d: exact %.17g <> Traff %.17g" seed opt closed)
    [ 10; 11; 12; 13 ]

let test_heterogeneous_not_homogeneous () =
  let inst = Testutil.random_instance ~n:6 5 in
  Alcotest.(check bool) "table2 draw is not homogeneous" true
    (Traff.homogeneous inst = None)

(* ------------------------------------------------------------------ *)
(* Satellite 3: certified schedules replay — invariant catalogue,     *)
(* Invariant.replay, and the DES executor at the certified makespan.  *)
(* ------------------------------------------------------------------ *)

let choices_of sched =
  List.map (fun e -> (e.Schedule.src, e.Schedule.dst)) sched.Schedule.events

let replay_analytic name inst cert =
  check_outcome (name ^ ": invariant catalogue")
    (Invariant.check_schedule inst cert.Exact.schedule);
  match Invariant.replay_makespan inst (choices_of cert.Exact.schedule) with
  | Error e -> Alcotest.failf "%s: replay rejected: %s" name e
  | Ok mk ->
      Alcotest.(check bool)
        (name ^ ": replay makespan = certified")
        true
        (Float.equal mk cert.Exact.makespan)

let test_replay_all_topologies () =
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun n ->
          let seed = 2006 + n in
          let inst = Optgap.instance topo ~seed ~n ~msg:1_000_000 in
          replay_analytic (Printf.sprintf "%s n=%d" tname n) inst (Exact.solve inst))
        (match topo with Optgap.Multilevel -> [ 4; 6; 8 ] | _ -> [ 2; 4; 8 ]))
    Optgap.topologies

let test_des_replay_certified () =
  (* Fault-free DES execution of the certified schedule lands exactly on
     the certified makespan, for every grid family the DES can host. *)
  let grids =
    [
      ("random n=4", Testutil.random_grid ~cluster_size:(1, 4) ~n:4 8);
      ("random n=8", Testutil.random_grid ~cluster_size:(1, 4) ~n:8 9);
      ( "multilevel n=6",
        Generators.multilevel ~rng:(Rng.create 10)
          {
            Generators.default_multilevel_spec with
            sites = 3;
            clusters_per_site = 2;
            machines_per_cluster = (1, 3);
          } );
      ( "homogeneous n=5",
        Generators.homogeneous ~n:5 ~cluster_size:2
          ~inter:
            (Gridb_plogp.Params.linear ~latency:5_000. ~g0:50. ~bandwidth_mb_s:8.)
          ~intra:
            (Gridb_plogp.Params.linear ~latency:50. ~g0:5. ~bandwidth_mb_s:400.) );
    ]
  in
  List.iter
    (fun (name, grid) ->
      let inst = Instance.of_grid ~root:0 ~msg:1_000_000 grid in
      let cert = Exact.solve inst in
      replay_analytic name inst cert;
      let machines = Machines.expand grid in
      let plan = Plan.of_cluster_schedule machines cert.Exact.schedule in
      let res = Session.run (Session.Config.v ~msg:1_000_000 ()) machines plan in
      (match
         Invariant.cross_check ~invariant:"opt-des-replay"
           ~expected:cert.Exact.makespan ~got:res.Session.makespan
       with
      | Ok () -> ()
      | Error v -> Alcotest.failf "%s: %a" name Invariant.pp_violation v);
      (* And reliably, fault-free, on the fixed transport: bit-identical. *)
      let r = Session.run_reliable (Session.Config.v ~msg:1_000_000 ()) machines plan in
      Alcotest.(check bool)
        (name ^ ": reliable fault-free = certified")
        true
        (feq r.Session.r_makespan cert.Exact.makespan))
    grids

let test_heuristics_never_beat_certificate () =
  List.iter
    (fun (seed, inst) ->
      let opt = Exact.makespan inst in
      List.iter
        (fun p ->
          let mk = Schedule.makespan inst (Engine.run p inst) in
          if not (mk >= opt || feq mk opt) then
            Alcotest.failf "seed=%d: %s %.17g beats certified optimum %.17g" seed
              (Policy.name p) mk opt)
        Policy.all)
    (Testutil.corpus ~n_range:(2, 8) ~seed:99 ~count:8 ())

(* ------------------------------------------------------------------ *)
(* Satellite 4: golden pin of the exact solver's schedules.  Any      *)
(* change to bounds, pruning order or tie-breaking that alters a      *)
(* certified schedule (not just its makespan) must show up here.      *)
(* ------------------------------------------------------------------ *)

let opt_corpus_digest = "001390e348ef84f38738f330d5f22daa"
let opt_corpus_bytes = 4_001

let opt_corpus () =
  List.concat_map
    (fun (tname, topo) ->
      List.filter_map
        (fun n ->
          match topo with
          | Optgap.Multilevel when n mod 2 <> 0 -> None
          | _ -> Some (tname, topo, n))
        [ 4; 5; 6 ])
    Optgap.topologies

let render_opt_corpus () =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun (tname, topo, n) ->
      let seed = 4_000 + (17 * n) in
      let inst = Optgap.instance topo ~seed ~n ~msg:1_000_000 in
      let cert = Exact.solve inst in
      Printf.bprintf buf "== %s n=%d seed=%d ==\n" tname n seed;
      Printf.bprintf buf "makespan %.17g incumbent %s improved %d\n" cert.Exact.makespan
        cert.Exact.incumbent cert.Exact.stats.Exact.improved;
      Buffer.add_string buf (Format.asprintf "%a@." Schedule.pp cert.Exact.schedule))
    (opt_corpus ());
  buf

let test_opt_corpus_golden () =
  let buf = render_opt_corpus () in
  Alcotest.(check int) "opt corpus size" opt_corpus_bytes (Buffer.length buf);
  Alcotest.(check string)
    "opt corpus digest" opt_corpus_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let regen () =
  let buf = render_opt_corpus () in
  Printf.printf "let opt_corpus_digest = %S\nlet opt_corpus_bytes = %d\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Buffer.length buf)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "regen" then regen ()
  else
    Alcotest.run "opt"
      [
        ( "policy-table",
          [
            Alcotest.test_case "one shared table" `Quick test_policy_table_shared;
            Alcotest.test_case "menu resolves everywhere" `Quick
              test_policy_menu_consistent;
          ] );
        ( "lower-bound",
          [
            Alcotest.test_case "below every heuristic" `Quick test_bound_below_heuristics;
            Alcotest.test_case "below DES on all transports" `Quick
              test_bound_below_des_transports;
          ] );
        ( "exact",
          [
            Alcotest.test_case "matches brute force" `Slow test_exact_matches_brute_force;
            Alcotest.test_case "certificate coherent" `Quick test_certificate_coherent;
            Alcotest.test_case "rejects oversize" `Quick test_exact_rejects_oversize;
            Alcotest.test_case "heuristics never beat it" `Quick
              test_heuristics_never_beat_certificate;
          ] );
        ( "traff",
          [
            Alcotest.test_case "informed recurrence" `Quick test_traff_informed_recurrence;
            Alcotest.test_case "schedule = closed form" `Quick
              test_traff_schedule_matches_closed_form;
            Alcotest.test_case "exact = Traff homogeneous" `Quick
              test_exact_equals_traff_on_homogeneous;
            Alcotest.test_case "heterogeneous detected" `Quick
              test_heterogeneous_not_homogeneous;
          ] );
        ( "replay",
          [
            Alcotest.test_case "all topologies" `Quick test_replay_all_topologies;
            Alcotest.test_case "DES at certified makespan" `Quick
              test_des_replay_certified;
          ] );
        ("golden", [ Alcotest.test_case "opt corpus" `Quick test_opt_corpus_golden ]);
      ]
