(* Broadcast-service throughput bench: serve seeded open-loop workloads at
   a sweep of arrival rates against the GRID5000 grid, one shared engine
   and wire per cell, and report sustained planning throughput, plan
   latency percentiles, cache effectiveness and admission behaviour.
   Results go to BENCH_service.json.

   Usage: dune exec bench/service.exe -- [--duration US] [-o FILE]
                                         [--seed S] [--jobs J]
                                         [--assert-hit-rate]

   Every cell derives its workload from (seed, rate) alone and the server
   replays requests sequentially, so all simulation-side numbers (request
   counts, admissions, cache stats, horizons) are bit-identical at any
   --jobs; only the host-clock throughput/latency fields vary run to run.
   --assert-hit-rate fails the run unless the default-mix cells reuse
   cached plans for more than half their lookups (the CI service job runs
   with it).  Flags, the cell loop and the JSON envelope come from
   bench/sweep.ml. *)

module Workload = Gridb_service.Workload
module Server = Gridb_service.Server
module Admission = Gridb_service.Admission
module Plan_cache = Gridb_service.Plan_cache

type cell = {
  rate : float; (* requests per simulated second *)
  report : Server.report;
}

let rates = [ 10.; 50.; 200. ]

let bench_cell ~seed ~duration ~jobs rate =
  let machines = Gridb_topology.Machines.expand (Gridb_topology.Grid5000.grid ()) in
  let requests = Workload.generate ~seed ~rate:(rate /. 1e6) ~duration machines in
  let admission = Admission.create ~max_concurrent:8 () in
  let report = Server.run ~jobs ~admission ~seed:(seed + 1) machines requests in
  { rate; report }

let print_cell c =
  let r = c.report in
  Printf.printf
    "rate=%-4g req/s | %3d requests, %3d admitted | hit rate %.3f | %7.0f plans/s | \
     p50 %8.1f us p99 %8.1f us | mean makespan %10.1f us\n\
     %!"
    c.rate r.Server.requests r.Server.admitted r.Server.hit_rate r.Server.plans_per_sec
    r.Server.plan_p50_us r.Server.plan_p99_us r.Server.mean_makespan_us

let json_of_cell c =
  let r = c.report in
  let s = r.Server.cache_stats in
  Printf.sprintf
    "  {\"rate_req_s\": %g, \"requests\": %d, \"admitted\": %d, \"rejected\": %d,\n\
    \   \"cache\": {\"hits\": %d, \"misses\": %d, \"invalidations\": %d, \
     \"entries\": %d, \"hit_rate\": %.4f},\n\
    \   \"plans_per_sec\": %.0f, \"plan_p50_us\": %.1f, \"plan_p99_us\": %.1f, \
     \"plan_wall_s\": %.4f,\n\
    \   \"delivered_ranks\": %d, \"mean_makespan_us\": %.1f, \"horizon_us\": %.1f}"
    c.rate r.Server.requests r.Server.admitted r.Server.rejected s.Plan_cache.hits
    s.Plan_cache.misses s.Plan_cache.invalidations s.Plan_cache.entries r.Server.hit_rate
    r.Server.plans_per_sec r.Server.plan_p50_us r.Server.plan_p99_us r.Server.plan_wall_s
    r.Server.delivered r.Server.mean_makespan_us r.Server.horizon_us

let () =
  let duration = ref 2e6 and assert_hit_rate = ref false in
  let o =
    Sweep.parse ~output:"BENCH_service.json"
      (Sweep.positive_float [ "--duration" ] "US simulated window per cell" duration
      @ [
          ( "--assert-hit-rate",
            Arg.Set assert_hit_rate,
            " exit 1 if a long default-mix cell reuses at most half its plans" );
        ])
  in
  (* Cells are cheap and share nothing; the pool inside each cell's server
     does the fan-out, so the sweep itself runs its cells one at a time. *)
  let cells =
    Sweep.run ~jobs:1 ~print:print_cell
      (bench_cell ~seed:o.seed ~duration:!duration ~jobs:o.jobs)
      rates
  in
  (* A sustained stream must amortise planning: over enough requests the
     default mix's small key space forces reuse.  Short cells (fewer
     requests than ~4x the mix's 12 keys) are dominated by compulsory
     misses and are exempt. *)
  (if !assert_hit_rate then
     match
       List.filter (fun c -> c.report.Server.requests >= 50 && c.report.Server.hit_rate <= 0.5) cells
     with
     | [] -> ()
     | bad ->
         List.iter
           (fun c ->
             Printf.eprintf
               "HIT-RATE MISS at rate=%g: %.3f <= 0.5 over %d requests (default mix \
                should reuse cached plans)\n"
               c.rate c.report.Server.hit_rate c.report.Server.requests)
           bad;
         exit 1);
  Sweep.write o ~benchmark:"broadcast-service" ~cell:json_of_cell
    ~header:
      [
        ("grid", {|"GRID5000 (Table 3)"|});
        ( "workload",
          Printf.sprintf {|"open-loop Poisson, default mix, %.0f us window"|} !duration );
        ("admission", {|"max 8 predicted-concurrent sessions"|});
        ("units", {|{"time": "us unless suffixed", "rates": "requests per second"}|});
      ]
    cells
