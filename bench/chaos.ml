(* Chaos-hardening bench: sweep fault intensity x offered load x shedding
   over the GRID5000 grid and report per-priority-class SLO outcomes —
   deadline attainment, union delivery ratio (retries included), sheds and
   requeues.  Results go to BENCH_chaos.json.

   Usage: dune exec bench/chaos.exe -- [--duration US] [-o FILE]
                                       [--seed S] [--jobs J]
                                       [--assert-delivery]

   Every cell derives its workload from (seed, rate) alone and every
   per-session fault stream from (seed, rid, attempt), so all
   simulation-side numbers are bit-identical at any --jobs.  Flags, the
   cell loop and the JSON envelope come from bench/sweep.ml.

   --assert-delivery (the CI chaos job runs with it) fails the run unless
   (1) retrying keeps the high-priority union delivery ratio >= 0.95 in
   every shedding cell of the sweep, and (2) degraded-mode shedding earns
   its keep: some faulty cell has high-priority deadline attainment >= 0.9
   with shedding on while the same cell without shedding attains < 0.7. *)

module Workload = Gridb_service.Workload
module Server = Gridb_service.Server
module Admission = Gridb_service.Admission
module Faults = Gridb_des.Faults

type cell = {
  loss : float; (* per-transmission loss probability *)
  rate : float; (* requests per simulated second *)
  shed : bool;
  report : Server.report;
}

let losses = [ 0.; 0.15; 0.3 ]
let rates = [ 5.; 10. ]
let deadline_us = 4e6
let high_frac = 0.3
let watermark_us = 5e5
let max_open_frac = 0.5
let retry_budget = 2

let bench_cell ~seed ~duration ~jobs (loss, rate, shed) =
  let machines = Gridb_topology.Machines.expand (Gridb_topology.Grid5000.grid ()) in
  let mix =
    { (Workload.default_mix machines) with deadlines = [| deadline_us |]; high_frac }
  in
  let requests = Workload.generate ~mix ~seed ~rate:(rate /. 1e6) ~duration machines in
  let admission =
    Admission.create
      ~shed:
        (if shed then Admission.shed ~watermark_us ~max_open_frac ()
         else Admission.no_shed)
      ()
  in
  let faults = if loss > 0. then Some (Faults.v ~loss ()) else None in
  let report =
    Server.run ~jobs ~admission ?faults
      ~retry:{ Server.budget = retry_budget; backoff_us = 1e4 }
      ~seed:(seed + 1) machines requests
  in
  { loss; rate; shed; report }

let print_cell c =
  let r = c.report in
  let h = r.Server.slo_high and l = r.Server.slo_low in
  Printf.printf
    "loss=%-4g rate=%-3g %-7s | %3d req %3d adm %3d shed %2d requeue | high att \
     %.3f del %.3f | low att %.3f del %.3f\n\
     %!"
    c.loss c.rate
    (if c.shed then "shed" else "no-shed")
    r.Server.requests r.Server.admitted r.Server.sheds r.Server.requeues
    (Server.deadline_attainment h)
    (Server.delivery_ratio h)
    (Server.deadline_attainment l)
    (Server.delivery_ratio l)

let json_of_cell c =
  let r = c.report in
  let slo name s =
    Printf.sprintf
      "\"%s\": {\"requests\": %d, \"admitted\": %d, \"shed\": %d, \"rejected\": %d, \
       \"requeues\": %d, \"delivery_ratio\": %.4f, \"deadline_attainment\": %.4f}"
      name s.Server.c_requests s.Server.c_admitted s.Server.c_shed s.Server.c_rejected
      s.Server.c_requeues (Server.delivery_ratio s) (Server.deadline_attainment s)
  in
  Printf.sprintf
    "  {\"loss\": %g, \"rate_req_s\": %g, \"shedding\": %b, \"requests\": %d, \
     \"admitted\": %d,\n\
    \   \"sheds\": %d, \"requeues\": %d, \"retry_lookups\": %d, \"deadline_misses\": %d,\n\
    \   %s,\n\
    \   %s,\n\
    \   \"delivered_ranks\": %d, \"horizon_us\": %.1f}"
    c.loss c.rate c.shed r.Server.requests r.Server.admitted r.Server.sheds
    r.Server.requeues r.Server.retry_lookups r.Server.deadline_misses
    (slo "slo_high" r.Server.slo_high) (slo "slo_low" r.Server.slo_low) r.Server.delivered
    r.Server.horizon_us

let () =
  let duration = ref 4e6 and assert_delivery = ref false in
  let o =
    Sweep.parse ~output:"BENCH_chaos.json"
      (Sweep.positive_float [ "--duration" ] "US simulated window per cell" duration
      @ [
          ( "--assert-delivery",
            Arg.Set assert_delivery,
            " exit 1 unless retries and shedding keep their delivery and deadline gates" );
        ])
  in
  (* One cell at a time; each cell's server fans planning out over --jobs. *)
  let cells =
    Sweep.run ~jobs:1 ~print:print_cell
      (bench_cell ~seed:o.seed ~duration:!duration ~jobs:o.jobs)
      (List.concat_map
         (fun loss ->
           List.concat_map
             (fun rate -> List.map (fun shed -> (loss, rate, shed)) [ false; true ])
             rates)
         losses)
  in
  (if !assert_delivery then begin
     let failed = ref false in
     (* Retries must keep high-priority delivery near-complete wherever
        shedding protects the class. *)
     List.iter
       (fun c ->
         if c.shed && c.loss > 0. then begin
           let del = Server.delivery_ratio c.report.Server.slo_high in
           if del < 0.95 then begin
             Printf.eprintf
               "DELIVERY MISS at loss=%g rate=%g shed: high-priority union delivery \
                %.3f < 0.95\n"
               c.loss c.rate del;
             failed := true
           end
         end)
       cells;
     (* Shedding must earn its keep: some faulty cell attains >= 0.9 for
        high-priority deadlines with shedding where no-shedding sits
        below 0.7. *)
     let contrast =
       List.exists
         (fun c ->
           c.shed && c.loss > 0.
           && Server.deadline_attainment c.report.Server.slo_high >= 0.9
           && List.exists
                (fun c' ->
                  (not c'.shed) && c'.loss = c.loss && c'.rate = c.rate
                  && Server.deadline_attainment c'.report.Server.slo_high < 0.7)
                cells)
         cells
     in
     if not contrast then begin
       prerr_endline
         "CONTRAST MISS: no faulty cell shows shed-on high attainment >= 0.9 with \
          shed-off < 0.7";
       failed := true
     end;
     if !failed then exit 1
   end);
  Sweep.write o ~benchmark:"chaos-hardened-broadcast-service" ~cell:json_of_cell
    ~header:
      [
        ("grid", {|"GRID5000 (Table 3)"|});
        ( "workload",
          Printf.sprintf
            {|"open-loop Poisson, %.0f us deadline, %g high-priority, %.0f us window"|}
            deadline_us high_frac !duration );
        ( "resilience",
          Printf.sprintf
            "{\"retry_budget\": %d, \"backoff_us\": 1e4, \"shed_watermark_us\": %g, \
             \"shed_max_open_frac\": %g}"
            retry_budget watermark_us max_open_frac );
        ("units", {|{"time": "us unless suffixed", "rates": "requests per second"}|});
      ]
    cells
