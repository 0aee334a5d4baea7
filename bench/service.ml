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
   with it). *)

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

(* Handwritten JSON writer, same rationale as bench/scaling.ml. *)
let json_of_cells buf cells =
  let add fmt = Printf.bprintf buf fmt in
  add "[\n";
  List.iteri
    (fun i c ->
      let r = c.report in
      let s = r.Server.cache_stats in
      add "  {\"rate_req_s\": %g, \"requests\": %d, \"admitted\": %d, \"rejected\": %d,\n"
        c.rate r.Server.requests r.Server.admitted r.Server.rejected;
      add
        "   \"cache\": {\"hits\": %d, \"misses\": %d, \"invalidations\": %d, \
         \"entries\": %d, \"hit_rate\": %.4f},\n"
        s.Plan_cache.hits s.Plan_cache.misses s.Plan_cache.invalidations
        s.Plan_cache.entries r.Server.hit_rate;
      add
        "   \"plans_per_sec\": %.0f, \"plan_p50_us\": %.1f, \"plan_p99_us\": %.1f, \
         \"plan_wall_s\": %.4f,\n"
        r.Server.plans_per_sec r.Server.plan_p50_us r.Server.plan_p99_us
        r.Server.plan_wall_s;
      add
        "   \"delivered_ranks\": %d, \"mean_makespan_us\": %.1f, \"horizon_us\": %.1f}%s\n"
        r.Server.delivered r.Server.mean_makespan_us r.Server.horizon_us
        (if i = List.length cells - 1 then "" else ","))
    cells;
  add "]"

let () =
  let duration = ref 2e6
  and out = ref "BENCH_service.json"
  and seed = ref 2006
  and jobs = ref 1
  and assert_hit_rate = ref false in
  let rec parse = function
    | [] -> ()
    | "--duration" :: v :: rest ->
        duration := Flags.positive_float "--duration" v;
        parse rest
    | ("-o" | "--output") :: v :: rest ->
        out := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Flags.int "--seed" v;
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        jobs := Flags.int ~min:1 "--jobs" v;
        parse rest
    | "--assert-hit-rate" :: rest ->
        assert_hit_rate := true;
        parse rest
    | other :: _ ->
        prerr_endline
          ("unknown option " ^ other
         ^ " (known: --duration US, -o FILE, --seed S, --jobs J, --assert-hit-rate)");
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Cells are cheap and share nothing; the pool inside each cell's server
     does the fan-out, so the sweep itself runs sequentially. *)
  let cells =
    List.map (fun rate ->
        let c = bench_cell ~seed:!seed ~duration:!duration ~jobs:!jobs rate in
        print_cell c;
        c)
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
  let buf = Buffer.create 4_096 in
  Printf.bprintf buf
    "{\n\
    \  \"benchmark\": \"broadcast-service\",\n\
    \  \"seed\": %d,\n\
    \  %s,\n\
    \  \"grid\": \"GRID5000 (Table 3)\",\n\
    \  \"workload\": \"open-loop Poisson, default mix, %.0f us window\",\n\
    \  \"admission\": \"max 8 predicted-concurrent sessions\",\n\
    \  \"units\": {\"time\": \"us unless suffixed\", \"rates\": \"requests per second\"},\n\
    \  \"results\": " !seed
    (Gridb_util.Provenance.json_fields ~jobs:!jobs)
    !duration;
  json_of_cells buf cells;
  Buffer.add_string buf "\n}\n";
  let oc = open_out !out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" !out (List.length cells)
