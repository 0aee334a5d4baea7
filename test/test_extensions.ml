(* Tests for gridb_extensions: scatter ordering (future work), alltoall
   scheduling, and the multilevel broadcast. *)

module Scatter = Gridb_extensions.Scatter_sched
module Alltoall = Gridb_extensions.Alltoall_sched
module Multilevel = Gridb_extensions.Multilevel
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let random_grid ?(n = 6) seed =
  let rng = Rng.create seed in
  Generators.uniform_random ~rng ~n Generators.default_random_spec

(* --- Scatter ---------------------------------------------------------------- *)

let test_scatter_orders_are_permutations () =
  let grid = Grid5000.grid () in
  let root = 0 in
  let expected = [ 1; 2; 3; 4; 5 ] in
  let is_perm o = List.sort compare o = expected in
  Alcotest.(check bool) "in_order" true (is_perm (Scatter.in_order grid ~root));
  Alcotest.(check bool) "fef" true
    (is_perm (Scatter.fastest_edge_first grid ~root ~msg_per_proc:1_000));
  Alcotest.(check bool) "ldf" true
    (is_perm (Scatter.longest_delivery_first grid ~root ~msg_per_proc:1_000));
  Alcotest.(check bool) "optimal" true
    (is_perm (Scatter.optimal_order grid ~root ~msg_per_proc:1_000))

let test_scatter_evaluate_rejects_bad_order () =
  let grid = Grid5000.grid () in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Scatter_sched.evaluate: order is not a permutation of non-root clusters")
    (fun () -> ignore (Scatter.evaluate grid ~root:0 ~msg_per_proc:100 [ 1; 2; 3 ]))

let jackson_is_optimal =
  QCheck.Test.make ~name:"Jackson LDF matches brute-force optimum" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 3 7) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let msg_per_proc = 5_000 in
      let ldf =
        Scatter.evaluate grid ~root:0 ~msg_per_proc
          (Scatter.longest_delivery_first grid ~root:0 ~msg_per_proc)
      in
      let opt =
        Scatter.evaluate grid ~root:0 ~msg_per_proc
          (Scatter.optimal_order grid ~root:0 ~msg_per_proc)
      in
      feq ~eps:1e-9 ldf.Scatter.makespan opt.Scatter.makespan)

let scatter_orders_never_beat_optimal =
  QCheck.Test.make ~name:"no order beats the brute-force optimum" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 3 7) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let msg_per_proc = 20_000 in
      let opt =
        (Scatter.evaluate grid ~root:0 ~msg_per_proc
           (Scatter.optimal_order grid ~root:0 ~msg_per_proc))
          .Scatter.makespan
      in
      List.for_all
        (fun order ->
          (Scatter.evaluate grid ~root:0 ~msg_per_proc order).Scatter.makespan
          >= opt -. 1e-6)
        [
          Scatter.in_order grid ~root:0;
          Scatter.fastest_edge_first grid ~root:0 ~msg_per_proc;
        ])

let test_scatter_completion_structure () =
  let grid = Grid5000.grid () in
  let msg_per_proc = 10_000 in
  let e = Scatter.evaluate grid ~root:0 ~msg_per_proc (Scatter.in_order grid ~root:0) in
  Alcotest.(check int) "every cluster completes" 6 (Array.length e.Scatter.per_cluster);
  (* completions are positive and include the root *)
  Array.iter
    (fun (c, t) ->
      Alcotest.(check bool) (Printf.sprintf "cluster %d positive" c) true (t > 0.))
    e.Scatter.per_cluster;
  Alcotest.(check bool) "makespan is the max" true
    (Array.for_all (fun (_, t) -> t <= e.Scatter.makespan +. 1e-9) e.Scatter.per_cluster)

let test_scatter_brute_force_ceiling () =
  let grid = random_grid ~n:10 1 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Scatter_sched.optimal_order: too many clusters for brute force")
    (fun () -> ignore (Scatter.optimal_order grid ~root:0 ~msg_per_proc:10))

(* --- Alltoall ---------------------------------------------------------------- *)

let test_rotation_rounds_cover_all_pairs () =
  let n = 6 in
  let rounds = Alltoall.rotation_rounds n in
  Alcotest.(check int) "n(n-1) triples" (n * (n - 1)) (List.length rounds);
  let pairs = List.map (fun (_, s, d) -> (s, d)) rounds in
  let sorted = List.sort_uniq compare pairs in
  Alcotest.(check int) "each ordered pair once" (n * (n - 1)) (List.length sorted);
  List.iter (fun (_, s, d) -> Alcotest.(check bool) "no self" true (s <> d)) rounds

let test_alltoall_prediction_components () =
  let grid = Grid5000.grid () in
  let p = Alltoall.predict grid ~msg_per_pair:1_000 in
  Alcotest.(check bool) "gather > 0" true (p.Alltoall.gather > 0.);
  Alcotest.(check bool) "exchange > 0" true (p.Alltoall.exchange > 0.);
  Alcotest.(check bool) "scatter > 0" true (p.Alltoall.scatter > 0.);
  check_feq "total is the sum"
    (p.Alltoall.gather +. p.Alltoall.exchange +. p.Alltoall.scatter)
    p.Alltoall.total

let test_alltoall_scales_with_message () =
  let grid = Grid5000.grid () in
  let small = (Alltoall.predict grid ~msg_per_pair:100).Alltoall.total in
  let large = (Alltoall.predict grid ~msg_per_pair:10_000).Alltoall.total in
  Alcotest.(check bool) "monotone" true (large > small)

let test_alltoall_direct_positive () =
  let grid = Grid5000.grid () in
  Alcotest.(check bool) "positive" true (Alltoall.predict_direct grid ~msg_per_pair:100 > 0.)

let test_alltoall_nonblocking_beats_blocking () =
  let grid = Grid5000.grid () in
  let blocking = Alltoall.simulate grid ~msg_per_pair:1_000 in
  let nonblocking = Alltoall.simulate ~nonblocking:true grid ~msg_per_pair:1_000 in
  let bound = (Alltoall.predict grid ~msg_per_pair:1_000).Alltoall.total in
  Alcotest.(check bool) "nonblocking <= blocking" true (nonblocking <= blocking +. 1e-9);
  Alcotest.(check bool) "nonblocking >= gap bound" true (nonblocking >= bound -. 1e-6);
  (* posting all sends up front should land close to the bound *)
  Alcotest.(check bool) "nonblocking within 1.5x of bound" true
    (nonblocking <= 1.5 *. bound)

let test_alltoall_simulation_close_to_prediction () =
  (* The simMPI exchange is blocking, so it can exceed the gap-bound
     prediction, but must stay within a small factor and never beat it. *)
  let grid = Grid5000.grid () in
  let p = Alltoall.predict grid ~msg_per_pair:1_000 in
  let s = Alltoall.simulate grid ~msg_per_pair:1_000 in
  Alcotest.(check bool) "simulation >= bound" true (s >= p.Alltoall.total -. 1e-6);
  Alcotest.(check bool) "within 4x" true (s <= 4. *. p.Alltoall.total)

(* --- Reduce by duality ---------------------------------------------------------- *)

module Reduce = Gridb_extensions.Reduce_sched

(* The reduce law of a mirrored schedule: no cluster sends before every
   contribution it gathers has arrived, nor before its own intra-cluster
   gather [T_k] (started at time 0) can have finished; the reduction ends
   with its latest arrival.  [None] when the law holds. *)
let reduce_law_violation (inst : Gridb_sched.Instance.t) (r : Reduce.t) =
  let le a b = a <= b +. (1e-9 *. Float.max 1. (Float.abs b)) in
  let early_send (e : Reduce.event) =
    if not (le inst.Gridb_sched.Instance.intra.(e.src) e.start) then
      Some
        (Printf.sprintf "cluster %d sends at %g, before its gather T = %g" e.src e.start
           inst.Gridb_sched.Instance.intra.(e.src))
    else
      List.find_map
        (fun (f : Reduce.event) ->
          if f.dst = e.src && not (le f.arrival e.start) then
            Some
              (Printf.sprintf "cluster %d sends at %g, before %d's contribution lands at %g"
                 e.src e.start f.src f.arrival)
          else None)
        r.Reduce.events
  in
  match List.find_map early_send r.Reduce.events with
  | Some _ as v -> v
  | None ->
      let latest =
        List.fold_left (fun acc (e : Reduce.event) -> Float.max acc e.arrival) 0.
          r.Reduce.events
      in
      if feq latest r.Reduce.makespan then None
      else
        Some (Printf.sprintf "makespan %g, latest arrival %g" r.Reduce.makespan latest)

let reduce_mirror_law =
  QCheck.Test.make ~name:"mirrored sends wait for their gathers" ~count:(Testutil.count 50)
    QCheck.(pair (int_range 2 15) (int_bound 10_000))
    (fun (n, seed) ->
      let grid = random_grid ~n seed in
      let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:500_000 grid in
      List.for_all
        (fun h ->
          let r = Reduce.of_broadcast inst (Engine.run h inst) in
          match reduce_law_violation inst r with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "%s: %s" (Policy.name h) d)
        Policy.all)

(* Moving one mirrored transmission in time breaks the law, whichever
   clause it crosses. *)
let test_reduce_law_catches_a_shift () =
  let grid = Grid5000.grid () in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let r = Reduce.of_broadcast inst (Engine.run Policy.ecef inst) in
  let events = Array.of_list r.Reduce.events in
  let shift i d =
    {
      r with
      Reduce.events =
        List.mapi
          (fun j (e : Reduce.event) ->
            if j = i then { e with start = e.start +. d; arrival = e.arrival +. d } else e)
          r.Reduce.events;
    }
  in
  let index p =
    let rec go i = if p events.(i) then i else go (i + 1) in
    go 0
  in
  let holds name r =
    Alcotest.(check (option string)) name None (reduce_law_violation inst r)
  in
  let breaks name r =
    Alcotest.(check bool) name true (reduce_law_violation inst r <> None)
  in
  holds "mirror holds" r;
  let latest =
    Array.fold_left (fun acc (e : Reduce.event) -> Float.max acc e.arrival) 0. events
  in
  breaks "last arrival 1 us later"
    (shift (index (fun (e : Reduce.event) -> e.arrival = latest)) 1.);
  (* A contribution landing 1 us after the send of the cluster it feeds. *)
  let into =
    index (fun (f : Reduce.event) ->
        Array.exists (fun (e : Reduce.event) -> e.src = f.dst) events)
  in
  let out = index (fun (e : Reduce.event) -> e.src = events.(into).dst) in
  breaks "contribution after its sender's send"
    (shift into (events.(out).start -. events.(into).arrival +. 1.));
  (* A leaf's send moved to halfway through its own gather (the leaf with
     the longest one). *)
  let gather i = inst.Gridb_sched.Instance.intra.(events.(i).src) in
  let is_leaf (e : Reduce.event) =
    not (Array.exists (fun (f : Reduce.event) -> f.dst = e.src) events)
  in
  let leaf = ref (index is_leaf) in
  Array.iteri (fun i e -> if is_leaf e && gather i > gather !leaf then leaf := i) events;
  let leaf = !leaf and t = gather !leaf in
  Alcotest.(check bool) "leaf gathers" true (t > 0.);
  breaks "send inside its gather" (shift leaf ((t /. 2.) -. events.(leaf).start))

let test_reduce_events_are_reversed () =
  let grid = Grid5000.grid () in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let b = Engine.run Policy.ecef inst in
  let r = Gridb_extensions.Reduce_sched.of_broadcast inst b in
  Alcotest.(check int) "same root" 0 r.Gridb_extensions.Reduce_sched.root;
  Alcotest.(check int) "same event count"
    (List.length b.Gridb_sched.Schedule.events)
    (List.length r.Gridb_extensions.Reduce_sched.events);
  (* every broadcast edge appears flipped *)
  let flipped =
    List.map
      (fun e -> (e.Gridb_sched.Schedule.dst, e.Gridb_sched.Schedule.src))
      b.Gridb_sched.Schedule.events
    |> List.sort compare
  in
  let reduced =
    List.map
      (fun e ->
        (e.Gridb_extensions.Reduce_sched.src, e.Gridb_extensions.Reduce_sched.dst))
      r.Gridb_extensions.Reduce_sched.events
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "edges flipped" flipped reduced;
  (* events are non-negative in time and ordered *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "start >= 0" true (e.Gridb_extensions.Reduce_sched.start >= -1e-9))
    r.Gridb_extensions.Reduce_sched.events

let test_reduce_best_heuristic () =
  let grid = Grid5000.grid () in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg:1_000_000 grid in
  let best_reduce heuristics =
    let c = Gridb_sched.Portfolio.run ~heuristics inst in
    ( c.Gridb_sched.Portfolio.heuristic,
      Gridb_extensions.Reduce_sched.of_broadcast inst c.Gridb_sched.Portfolio.schedule )
  in
  let h, r = best_reduce Policy.all in
  Alcotest.(check bool) "best is not the flat tree" true (Policy.name h <> "FlatTree");
  let _, flat = best_reduce [ Policy.flat_tree ] in
  Alcotest.(check bool) "beats flat-tree reduce" true
    (r.Gridb_extensions.Reduce_sched.makespan
    < flat.Gridb_extensions.Reduce_sched.makespan)

(* --- Segmented hierarchical broadcast ------------------------------------------- *)

module Pipeline = Gridb_collectives.Pipeline
module Invariant = Gridb_check.Invariant

let grid5000_plan msg =
  let grid = Grid5000.grid () in
  let machines = Machines.expand grid in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg grid in
  (machines, Plan.of_cluster_schedule machines (Engine.run Policy.ecef_la inst))

let segmented ?(noise = Gridb_des.Noise.Exact) ?obs ~msg ~segments machines plan =
  Session.run ~segments
    (Session.Config.v ~noise ~rng:(Rng.create 7) ?obs ~msg ())
    machines plan

let test_pb_segment_size () =
  Alcotest.(check int) "even" 1_000 (Pipeline.segment_size ~msg:4_000 ~segments:4);
  Alcotest.(check int) "rounds up" 1_001 (Pipeline.segment_size ~msg:4_001 ~segments:4);
  Alcotest.(check int) "floor 1" 1 (Pipeline.segment_size ~msg:2 ~segments:10);
  (* msg < segments: the count clamps to msg, so no byte is sent twice *)
  Alcotest.(check int) "clamped count" 3 (Pipeline.segment_count ~msg:3 ~segments:10);
  Alcotest.(check int) "clamped size" 1 (Pipeline.segment_size ~msg:3 ~segments:10);
  Alcotest.(check int) "empty message count" 1 (Pipeline.segment_count ~msg:0 ~segments:4);
  Alcotest.(check int) "empty message size" 0 (Pipeline.segment_size ~msg:0 ~segments:4);
  Alcotest.check_raises "segments < 1"
    (Invalid_argument "Pipeline.segment_size: segments < 1") (fun () ->
      ignore (Pipeline.segment_size ~msg:10 ~segments:0))

let test_pb_one_segment_matches_plain () =
  let msg = 1_000_000 in
  let machines, plan = grid5000_plan msg in
  let same name (a : Session.result) (b : Session.result) =
    Alcotest.(check bool) (name ^ ": arrivals") true
      (Array.for_all2 Float.equal a.Session.arrival b.Session.arrival);
    Alcotest.(check int) (name ^ ": transmissions") a.Session.transmissions
      b.Session.transmissions
  in
  let plain ~msg = Session.run (Session.Config.v ~rng:(Rng.create 7) ~msg ()) machines plan in
  same "S=1" (plain ~msg) (segmented ~msg ~segments:1 machines plan);
  (* a 1-byte message cannot be cut: ten segments clamp to one *)
  same "msg < S" (plain ~msg:1) (segmented ~msg:1 ~segments:10 machines plan)

let test_pb_segmentation_helps_large_messages () =
  let msg = 4_000_000 in
  let machines, plan = grid5000_plan msg in
  let time segments = (segmented ~msg ~segments machines plan).Session.makespan in
  let s1 = time 1 and s8 = time 8 in
  Alcotest.(check bool) "8 segments beat 1" true (s8 < s1);
  let best_s, best_t =
    List.fold_left
      (fun (bs, bt) s ->
        let t = time s in
        if t < bt then (s, t) else (bs, bt))
      (1, s1) [ 2; 4; 8; 16; 32; 64 ]
  in
  Alcotest.(check bool) "optimum is segmented" true (best_s > 1);
  Alcotest.(check bool) "optimum <= both" true (best_t <= s8 && best_t <= s1)

let test_pb_stream () =
  let msg = 1_000_000 and segments = 6 in
  let machines, plan = grid5000_plan msg in
  let n = Machines.count machines and root = plan.Plan.root in
  let seg = Pipeline.segment_size ~msg ~segments in
  List.iter
    (fun (label, noise) ->
      let sink = Gridb_obs.Sink.memory () in
      let r = segmented ~noise ~obs:sink ~msg ~segments machines plan in
      let events = Gridb_obs.Sink.events sink in
      let ok name = function
        | Ok () -> ()
        | Error v -> Alcotest.failf "%s %s: %a" label name Invariant.pp_violation v
      in
      ok "nic" (Invariant.stream_nic_serialization ~n events);
      ok "causality" (Invariant.stream_causality ~n events);
      ok "no spontaneous delivery" (Invariant.stream_no_spontaneous_delivery ~root events);
      if noise = Gridb_des.Noise.Exact then
        ok "gap conformance" (Invariant.stream_gap_conformance ~machines ~msg:seg events);
      Alcotest.(check int) (label ^ ": one send per segment and edge")
        (segments * (n - 1)) r.Session.transmissions;
      (* every non-root rank hears every segment; its arrival is the last *)
      let last = Array.make n neg_infinity and count = Array.make n 0 in
      List.iter
        (function
          | Gridb_obs.Event.Arrival { dst; time; _ } ->
              count.(dst) <- count.(dst) + 1;
              last.(dst) <- Float.max last.(dst) time
          | _ -> ())
        events;
      for rank = 0 to n - 1 do
        if rank <> root then begin
          Alcotest.(check int) (label ^ ": segments heard") segments count.(rank);
          Alcotest.(check (float 0.)) (label ^ ": arrival is the last segment") last.(rank)
            r.Session.arrival.(rank)
        end
      done)
    [ ("exact", Gridb_des.Noise.Exact); ("noisy", Gridb_des.Noise.default_measured) ]

(* Tiny segments under heavy latency noise land out of order; a rank must
   still forward them in segment order.  A parent's j-th send on an edge
   carries segment j (the root sends in order; inductively, so does every
   rank that forwards in order), so a rank's j-th send to each child may
   not start before segments 0 .. j have all landed. *)
let test_pb_reordered_segments_forward_in_order () =
  let msg = 64 and segments = 32 in
  let machines, plan = grid5000_plan 1_000_000 in
  let n = Machines.count machines in
  let sink = Gridb_obs.Sink.memory () in
  ignore
    (segmented ~noise:(Gridb_des.Noise.Lognormal 0.5) ~obs:sink ~msg ~segments machines
       plan);
  let events = Gridb_obs.Sink.events sink in
  (* landed.(r): predicted arrivals of the sends into r, in send order *)
  let landed = Array.make n [] and sent = Hashtbl.create 64 in
  List.iter
    (function
      | Gridb_obs.Event.Send_end { dst; arrival; _ } -> landed.(dst) <- arrival :: landed.(dst)
      | _ -> ())
    events;
  let reordered = ref 0 in
  let ready =
    Array.map
      (fun l ->
        let l = Array.of_list (List.rev l) in
        for j = 1 to Array.length l - 1 do
          if l.(j) < l.(j - 1) then incr reordered;
          l.(j) <- Float.max l.(j) l.(j - 1)
        done;
        l)
      landed
  in
  List.iter
    (function
      | Gridb_obs.Event.Send_start { src; dst; time; _ } when src <> plan.Plan.root ->
          let j = Option.value ~default:0 (Hashtbl.find_opt sent (src, dst)) in
          Hashtbl.replace sent (src, dst) (j + 1);
          if time < ready.(src).(j) then
            Alcotest.failf "rank %d sends segment %d to %d at %g before it holds 0..%d (%g)"
              src j dst time j ready.(src).(j)
      | _ -> ())
    events;
  Alcotest.(check bool) "some segments landed out of order" true (!reordered > 0)

(* --- DOT export ---------------------------------------------------------------- *)

let test_dot_export () =
  let grid = Grid5000.grid () in
  let dot = Gridb_topology.Dot.to_dot grid in
  Alcotest.(check bool) "graph header" true (String.length dot > 100);
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has all clusters" true (contains "Toulouse");
  Alcotest.(check bool) "wan styled" true (contains "style=bold");
  Alcotest.(check bool) "edge count" true (contains "c0 -- c1")

(* --- Multilevel ---------------------------------------------------------------- *)

let multilevel_spec =
  { Generators.default_multilevel_spec with sites = 3; clusters_per_site = 3 }

let multilevel_machines seed =
  let rng = Rng.create seed in
  Machines.expand (Generators.multilevel ~rng multilevel_spec)

let test_representatives () =
  let reps =
    Multilevel.representatives
      ~site_of_cluster:(Generators.site_of_cluster multilevel_spec)
      ~n_clusters:9 ~root:4
  in
  Alcotest.(check int) "3 sites" 3 (Array.length reps);
  Alcotest.(check int) "root site rep is root" 4 reps.(1);
  Alcotest.(check int) "site 0 rep" 0 reps.(0);
  Alcotest.(check int) "site 2 rep" 6 reps.(2)

let multilevel_plans_span =
  QCheck.Test.make ~name:"multilevel plans span all ranks" ~count:(Testutil.count 20)
    QCheck.(pair (int_bound 1_000) (int_range 0 8))
    (fun (seed, root) ->
      let machines = multilevel_machines seed in
      let site_of_cluster = Generators.site_of_cluster multilevel_spec in
      let plan =
        Multilevel.plan ~site_of_cluster ~root ~msg:1_000_000 machines
      in
      Plan.size plan = Machines.count machines
      && plan.Plan.root = Machines.coordinator machines root)

let test_multilevel_beats_flat () =
  let machines = multilevel_machines 3 in
  let site_of_cluster = Generators.site_of_cluster multilevel_spec in
  let msg = 2_000_000 in
  let smart = Multilevel.plan ~site_of_cluster ~root:0 ~msg machines in
  let flat = Multilevel.flat_sites_plan ~site_of_cluster ~root:0 ~msg machines in
  let grid = Machines.grid machines in
  let inst = Gridb_sched.Instance.of_grid ~root:0 ~msg grid in
  let single_flat =
    Plan.of_cluster_schedule machines (Engine.run Policy.flat_tree inst)
  in
  let run p = (Session.run (Session.Config.v ~msg ()) machines p).Session.makespan in
  Alcotest.(check bool) "heuristic multilevel <= flat multilevel" true
    (run smart <= run flat +. 1e-6);
  Alcotest.(check bool) "multilevel beats single-level flat tree" true
    (run smart < run single_flat)

let test_multilevel_exec_consistency () =
  (* Executing the same plan twice without noise is deterministic. *)
  let machines = multilevel_machines 4 in
  let site_of_cluster = Generators.site_of_cluster multilevel_spec in
  let plan = Multilevel.plan ~site_of_cluster ~root:2 ~msg:500_000 machines in
  let config = Session.Config.v ~msg:500_000 () in
  let a = (Session.run config machines plan).Session.makespan in
  let b = (Session.run config machines plan).Session.makespan in
  check_feq "deterministic" a b

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "scatter",
        [
          quick "orders are permutations" test_scatter_orders_are_permutations;
          quick "rejects bad order" test_scatter_evaluate_rejects_bad_order;
          QCheck_alcotest.to_alcotest jackson_is_optimal;
          QCheck_alcotest.to_alcotest scatter_orders_never_beat_optimal;
          quick "completion structure" test_scatter_completion_structure;
          quick "brute force ceiling" test_scatter_brute_force_ceiling;
        ] );
      ( "alltoall",
        [
          quick "rotation covers pairs" test_rotation_rounds_cover_all_pairs;
          quick "prediction components" test_alltoall_prediction_components;
          quick "scales with message" test_alltoall_scales_with_message;
          quick "direct positive" test_alltoall_direct_positive;
          quick "simulation close to prediction" test_alltoall_simulation_close_to_prediction;
          quick "nonblocking beats blocking" test_alltoall_nonblocking_beats_blocking;
        ] );
      ( "reduce",
        [
          QCheck_alcotest.to_alcotest reduce_mirror_law;
          quick "a one-event shift breaks the law" test_reduce_law_catches_a_shift;
          quick "events reversed" test_reduce_events_are_reversed;
          quick "best heuristic" test_reduce_best_heuristic;
        ] );
      ( "pipeline-bcast",
        [
          quick "segment size" test_pb_segment_size;
          quick "one segment = plain" test_pb_one_segment_matches_plain;
          quick "segmentation helps" test_pb_segmentation_helps_large_messages;
          quick "segmented stream" test_pb_stream;
          quick "reordered segments forward in order" test_pb_reordered_segments_forward_in_order;
        ] );
      ("dot", [ quick "export" test_dot_export ]);
      ( "multilevel",
        [
          quick "representatives" test_representatives;
          QCheck_alcotest.to_alcotest multilevel_plans_span;
          quick "beats flat" test_multilevel_beats_flat;
          quick "deterministic execution" test_multilevel_exec_consistency;
        ] );
    ]
