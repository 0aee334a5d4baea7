(* Scaling benchmark for the selection engine: every paper heuristic at
   n = 16 .. 1024 clusters, naive reference scan vs incremental engine,
   emitting machine-readable results to BENCH_scaling.json.

   Usage: dune exec bench/scaling.exe -- [--max-n N] [--max-naive-n N]
                                         [-o FILE] [--seed S] [--jobs J]

   The two modes are verified to produce identical schedules on every
   (heuristic, n) cell they both run, so the speedup column compares like
   with like.  Flags, the cell loop and the JSON envelope come from
   bench/sweep.ml.  CI runs this capped at --max-n 128 as a smoke test; the
   committed BENCH_scaling.json comes from a full local run. *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Rng = Gridb_util.Rng

type cell = {
  heuristic : string;
  n : int;
  incremental_ms : float;
  incremental_evals : int;
  naive_ms : float option; (* None when capped out by --max-naive-n *)
  naive_evals : int option;
  identical : bool option;
}

let sizes = [ 16; 32; 64; 128; 256; 512; 1024 ]

(* Time one run on the monotonic clock; repeat (short runs until ~50 ms of
   total work, long runs at least 3 times) and report the MINIMUM.  On a
   shared box a single 300 ms run can read anywhere up to 3x its true cost;
   the minimum over a few repetitions is the standard robust floor
   estimator and makes the committed JSON comparable across runs. *)
let time_run f =
  let once () =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6)
  in
  let r, first = once () in
  let reps =
    if first >= 50. then 3
    else min 1_000 (1 + int_of_float (50. /. Float.max first 0.001))
  in
  let best = ref first in
  for _ = 2 to reps do
    let _, t = once () in
    if t < !best then best := t
  done;
  (r, !best)

let bench_cell ~max_naive_n ~seed (policy, n) =
  let rng = Rng.create (seed + n) in
  let inst = Instance.random ~rng ~n Instance.table2_ranges in
  let run mode () = Engine.run_stats ~mode policy inst in
  let evals s = s.Engine.pair_evaluations + s.Engine.lookahead_terms in
  let (incr_sched, incr_stats), incremental_ms = time_run (run `Incremental) in
  let naive =
    if n > max_naive_n then None
    else
      let (naive_sched, naive_stats), naive_ms = time_run (run `Naive) in
      let identical = naive_sched.Schedule.events = incr_sched.Schedule.events in
      Some (naive_ms, evals naive_stats, identical)
  in
  {
    heuristic = Policy.name policy;
    n;
    incremental_ms;
    incremental_evals = evals incr_stats;
    naive_ms = Option.map (fun (ms, _, _) -> ms) naive;
    naive_evals = Option.map (fun (_, e, _) -> e) naive;
    identical = Option.map (fun (_, _, same) -> same) naive;
  }

let json_of_cell c =
  let opt f = function None -> "null" | Some v -> f v in
  Printf.sprintf
    "  {\"heuristic\": %S, \"n\": %d, \"incremental_ms\": %.4f, \
     \"incremental_evals\": %d, \"naive_ms\": %s, \"naive_evals\": %s, \
     \"speedup\": %s, \"identical\": %s}"
    c.heuristic c.n c.incremental_ms c.incremental_evals
    (opt (Printf.sprintf "%.4f") c.naive_ms)
    (opt string_of_int c.naive_evals)
    (match c.naive_ms with
    | Some nv when c.incremental_ms > 0. -> Printf.sprintf "%.2f" (nv /. c.incremental_ms)
    | _ -> "null")
    (opt string_of_bool c.identical)

let print_cell c =
  Printf.printf "%-10s n=%-5d incremental %8.2f ms%s%s\n%!" c.heuristic c.n
    c.incremental_ms
    (match c.naive_ms with
    | Some v ->
        Printf.sprintf "   naive %8.2f ms   speedup %6.2fx" v
          (v /. Float.max c.incremental_ms 1e-9)
    | None -> "   naive skipped")
    (match c.identical with Some false -> "   SCHEDULES DIFFER" | _ -> "")

let () =
  let max_n, sizes = Sweep.max_n sizes and max_naive_n = ref 1024 in
  let o =
    Sweep.parse ~output:"BENCH_scaling.json"
      (max_n
      @ Sweep.int ~min:0 [ "--max-naive-n" ] "N largest n the naive scan runs at"
          max_naive_n)
  in
  let policies = Policy.all in
  (* --jobs fans cells out over a Pool, for a quick CI sweep where
     throughput matters more than timing fidelity.  The default stays 1:
     concurrent cells contend for cores and caches, so committed timing
     runs should be sequential. *)
  let cells =
    Sweep.run ~jobs:o.jobs ~print:print_cell
      (bench_cell ~max_naive_n:!max_naive_n ~seed:o.seed)
      (List.concat_map (fun n -> List.map (fun p -> (p, n)) policies) (sizes ()))
  in
  (match List.filter (fun c -> c.identical = Some false) cells with
  | [] -> ()
  | bad ->
      List.iter
        (fun c -> Printf.eprintf "MISMATCH: %s at n=%d\n" c.heuristic c.n)
        bad;
      exit 1);
  Sweep.write o ~benchmark:"engine-scaling" ~cell:json_of_cell
    ~header:
      [
        ("instance", {|"Instance.random table2_ranges, one per n"|});
        ("timing", {|"min over repetitions"|});
        ("units", {|{"time": "ms", "evals": "pair scores + lookahead terms"}|});
      ]
    cells
