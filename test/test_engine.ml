(* Differential tests for the incremental selection engine.

   The contract under test: for every policy, Engine.run ~mode:`Incremental
   produces the event-for-event identical schedule to the naive reference
   scan (~mode:`Naive), including ascending-(i, j) tie-breaking — scores
   are recomputed with the same float expressions, so "identical" means
   bitwise, not approximately. *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Lookahead = Gridb_sched.Lookahead
module Overhead = Gridb_sched.Overhead
module Generators = Gridb_topology.Generators
module Rng = Gridb_util.Rng

(* Every policy shape the engine dispatches on: the seven paper heuristics,
   the ECEF driver under every lookahead (covering Zero, Fold Min, Fold Max
   and both Dynamic lookaheads), the Transmission pair score, and a Sized
   dispatch with a parameterised component. *)
let policies =
  Policy.all
  @ List.map Policy.ecef_with Lookahead.all
  @ [
      Policy.select_min ~name:"FEF(g+L)" ~score:Policy.Transmission Lookahead.none;
      Policy.sized ~threshold:6 ~small:Policy.ecef_la ~large:Policy.ecef_lat_max;
    ]

let check_identical ~what (naive : Schedule.t) (incr : Schedule.t) =
  let na = naive.Schedule.events and ia = incr.Schedule.events in
  if List.length na <> List.length ia then
    Alcotest.failf "%s: %d events naive vs %d incremental" what (List.length na)
      (List.length ia);
  List.iter2
    (fun (x : Schedule.event) (y : Schedule.event) ->
      let same =
        x.Schedule.round = y.Schedule.round
        && x.Schedule.src = y.Schedule.src
        && x.Schedule.dst = y.Schedule.dst
        && x.Schedule.start = y.Schedule.start
        && x.Schedule.sender_free = y.Schedule.sender_free
        && x.Schedule.arrival = y.Schedule.arrival
      in
      if not same then
        Alcotest.failf "%s: round %d: naive %d->%d @ %.17g vs incremental %d->%d @ %.17g"
          what x.Schedule.round x.Schedule.src x.Schedule.dst x.Schedule.start
          y.Schedule.src y.Schedule.dst y.Schedule.start)
    na ia

let check_instance ~what inst =
  List.iter
    (fun p ->
      let naive = Engine.run ~mode:`Naive p inst in
      let incr = Engine.run ~mode:`Incremental p inst in
      check_identical ~what:(Printf.sprintf "%s, %s" what (Policy.name p)) naive incr)
    policies

(* 200+ seeded instances, n in 2..64, drawn from both generators: i.i.d.
   Table 2 matrices and pLogP-evaluated uniform random topologies. *)
let test_differential_random () =
  let instances = 120 in
  for i = 0 to instances - 1 do
    let n = 2 + (i * 61 / (instances - 1)) in
    let rng = Rng.create (7_000 + i) in
    let inst = Instance.random ~rng ~n Instance.table2_ranges in
    check_instance ~what:(Printf.sprintf "table2 #%d n=%d" i n) inst
  done

let test_differential_topology () =
  let instances = 90 in
  for i = 0 to instances - 1 do
    let n = 2 + (i * 62 / (instances - 1)) in
    let rng = Rng.create (11_000 + i) in
    let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
    let inst = Instance.of_grid ~root:(i mod n) ~msg:1_000_000 grid in
    check_instance ~what:(Printf.sprintf "topology #%d n=%d" i n) inst
  done

(* Golden pin of the incremental engine's exact output on the full
   differential corpus above (120 Table 2 + 90 topology instances, every
   policy shape): an MD5 over every event of every schedule, all six fields
   printed at full precision.  The constant was recorded from the
   heap-of-records engine immediately BEFORE the struct-of-arrays state
   refactor, so any bit drift the refactor (or a future "optimisation")
   introduces — a reassociated float add, a changed tie-break — fails here
   even if naive and incremental drift together. *)
let golden_corpus_digest = "c41503ce355d6f12d3eaf9456937f173"
let golden_corpus_bytes = 6_355_835

let test_corpus_golden_digest () =
  let buf = Buffer.create 65536 in
  let feed inst =
    List.iter
      (fun p ->
        let s = Engine.run ~mode:`Incremental p inst in
        Buffer.add_string buf (Policy.name p);
        List.iter
          (fun (e : Schedule.event) ->
            Buffer.add_string buf
              (Printf.sprintf "|%d:%d>%d@%.17g,%.17g,%.17g" e.Schedule.round
                 e.Schedule.src e.Schedule.dst e.Schedule.start e.Schedule.sender_free
                 e.Schedule.arrival))
          s.Schedule.events)
      policies
  in
  for i = 0 to 119 do
    let n = 2 + (i * 61 / 119) in
    let rng = Rng.create (7_000 + i) in
    feed (Instance.random ~rng ~n Instance.table2_ranges)
  done;
  for i = 0 to 89 do
    let n = 2 + (i * 62 / 89) in
    let rng = Rng.create (11_000 + i) in
    let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
    feed (Instance.of_grid ~root:(i mod n) ~msg:1_000_000 grid)
  done;
  Alcotest.(check int) "corpus size" golden_corpus_bytes (Buffer.length buf);
  Alcotest.(check string) "corpus digest" golden_corpus_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Degenerate and tie-heavy corners: uniform matrices make every candidate
   tie every round, so any deviation from ascending-(i, j) resolution shows
   up immediately. *)
let test_differential_ties () =
  List.iter
    (fun n ->
      let latency = Array.make_matrix n n 5. in
      let gap = Array.make_matrix n n 3. in
      for i = 0 to n - 1 do
        latency.(i).(i) <- 0.;
        gap.(i).(i) <- 0.
      done;
      let inst = Instance.v ~root:0 ~latency ~gap ~intra:(Array.make n 7.) in
      check_instance ~what:(Printf.sprintf "uniform n=%d" n) inst)
    [ 2; 3; 5; 16; 33 ]

(* Lazy invalidation actually exercises: on Table 2 instances the ECEF
   family re-scores stale candidate entries (a sender's avail advanced
   after its entry was pushed) rather than never hitting the stale path. *)
let test_staleness_exercised () =
  let total = ref 0 in
  for seed = 0 to 9 do
    let rng = Rng.create (31 + seed) in
    let inst = Instance.random ~rng ~n:24 Instance.table2_ranges in
    let _, stats = Engine.run_stats ~mode:`Incremental Policy.ecef inst in
    total := !total + stats.Engine.rescored
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rescored %d stale entries over 10 instances" !total)
    true (!total > 0)

(* Static pair scores never go stale: no re-scoring for FEF. *)
let test_static_scores_never_rescore () =
  let rng = Rng.create 99 in
  let inst = Instance.random ~rng ~n:32 Instance.table2_ranges in
  List.iter
    (fun p ->
      let _, stats = Engine.run_stats ~mode:`Incremental p inst in
      Alcotest.(check int)
        (Policy.name p ^ " rescored")
        0 stats.Engine.rescored)
    [
      Policy.flat_tree;
      Policy.fef;
      Policy.select_min ~name:"FEF(g+L)" ~score:Policy.Transmission Lookahead.none;
    ]

(* The naive engine's work counters reproduce the Overhead closed forms:
   the model is not a guess but a count of what the reference scan does. *)
let test_overhead_cross_check () =
  List.iter
    (fun n ->
      let rng = Rng.create (500 + n) in
      let inst = Instance.random ~rng ~n Instance.table2_ranges in
      let count p =
        let _, stats = Engine.run_stats ~mode:`Naive p inst in
        stats
      in
      let pair = Overhead.pair_scan_evaluations n in
      let la = Overhead.lookahead_evaluations n in
      List.iter
        (fun p ->
          let stats = count p in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s pair evals n=%d" (Policy.name p) n)
            pair
            (float_of_int stats.Engine.pair_evaluations))
        [ Policy.fef; Policy.ecef; Policy.bottom_up ];
      List.iter
        (fun p ->
          let stats = count p in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s lookahead terms n=%d" (Policy.name p) n)
            la
            (float_of_int stats.Engine.lookahead_terms))
        [ Policy.ecef_la; Policy.ecef_lat_min; Policy.ecef_lat_max ];
      (* FlatTree: the model charges n, the loop runs n - 1 selections. *)
      let flat = count Policy.flat_tree in
      Alcotest.(check int) "flat tree selections" (n - 1) flat.Engine.pair_evaluations;
      Alcotest.(check bool) "flat model within 1" true
        (Float.abs (Overhead.evaluations ~n Policy.flat_tree -. float_of_int (n - 1)) <= 1.))
    [ 2; 3; 8; 17 ]

(* The incremental engine must do asymptotically less pair-score work than
   the scan on a lookahead policy; at n = 48 even the constant factors are
   decisively apart. *)
let test_incremental_does_less_work () =
  let rng = Rng.create 4242 in
  let inst = Instance.random ~rng ~n:48 Instance.table2_ranges in
  let _, naive = Engine.run_stats ~mode:`Naive Policy.ecef_lat_max inst in
  let _, incr = Engine.run_stats ~mode:`Incremental Policy.ecef_lat_max inst in
  let naive_total = naive.Engine.pair_evaluations + naive.Engine.lookahead_terms in
  let incr_total = incr.Engine.pair_evaluations + incr.Engine.lookahead_terms in
  Alcotest.(check bool)
    (Printf.sprintf "incremental %d << naive %d" incr_total naive_total)
    true
    (incr_total * 4 < naive_total)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "engine"
    [
      ( "differential",
        [
          quick "table2 instances" test_differential_random;
          quick "topology instances" test_differential_topology;
          quick "tie-heavy instances" test_differential_ties;
          quick "pre-refactor golden digest" test_corpus_golden_digest;
        ] );
      ( "internals",
        [
          quick "staleness exercised" test_staleness_exercised;
          quick "static scores never rescore" test_static_scores_never_rescore;
          quick "overhead cross-check" test_overhead_cross_check;
          quick "incremental does less work" test_incremental_does_less_work;
        ] );
    ]
