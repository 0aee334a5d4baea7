(* Serve-path benchmark: drive [Gridb_service.Server.run] on one named
   workload and print either the end-to-end service metrics (tracing off)
   or a per-layer ledger (traced pass), checking every run's output.

   Usage:
     serve_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     serve_bench.exe --workload NAME --counts [--seed N]

   NAME is serve-g5k, serve-wide or serve-chaos (README.md says why each
   exists).  The last line of standard output is one JSON object with the
   keys correct, attempted, failed and metrics.  [--counts] prints only
   the exact work counters (jobs 1), so two commits can be diffed line for
   line.

   Every host time comes from the monotonic clock of
   [bechamel.monotonic_clock], except the serve time behind req_per_s,
   which is the process's CPU time (see [end_to_end]).  Layer timings are
   taken around calls into each layer's public functions from this file;
   no library code is instrumented. *)

module Grid = Gridb_topology.Grid
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Machines = Gridb_topology.Machines
module Fingerprint = Gridb_topology.Fingerprint
module Instance = Gridb_sched.Instance
module Policy = Gridb_sched.Policy
module Heuristics = Gridb_sched.Heuristics
module Sched_engine = Gridb_sched.Engine
module Schedule = Gridb_sched.Schedule
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Des_engine = Gridb_des.Engine
module Wire = Gridb_des.Wire
module Faults = Gridb_des.Faults
module Adaptive = Gridb_des.Adaptive
module Workload = Gridb_service.Workload
module Plan_cache = Gridb_service.Plan_cache
module Admission = Gridb_service.Admission
module Server = Gridb_service.Server
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event
module Rng = Gridb_util.Rng
module Pool = Gridb_util.Pool
module Provenance = Gridb_util.Provenance

(* The seed used while the benchmark was written, and one kept aside so a
   later claim can be checked on inputs nobody tuned against. *)
let default_seed = 2006
let heldout_seed = 7919

(* --- clocks, allocation and small statistics --- *)

let now_ns = Monotonic_clock.now
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let seconds_since t0 = ns_between t0 (now_ns ()) *. 1e-9

(* Calls, host ns and minor words spent inside one layer's functions.
   [Gc.minor_words] is the calling domain's counter, so an [acc] is only
   ever charged from one domain. *)
type acc = { mutable calls : int; mutable ns : float; mutable words : float }

let acc () = { calls = 0; ns = 0.; words = 0. }

let timed a f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  a.calls <- a.calls + 1;
  a.ns <- a.ns +. ns_between t0 t1;
  a.words <- a.words +. (w1 -. w0);
  r

let per a x = if a = 0 then 0. else x /. float_of_int a

(* Nearest-rank percentile, the definition [Server.run] uses. *)
let percentile p xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let m = Array.length s in
  if m = 0 then 0.
  else s.(min (m - 1) (max 0 (int_of_float (ceil (p /. 100. *. float_of_int m)) - 1)))

let median xs = percentile 50. xs

let digest_of_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* --- workloads --- *)

type workload = {
  name : string;
  jobs : int;
  rate_per_s : float;  (** open-loop Poisson arrivals per simulated second *)
  window_s : float;  (** arrival window, simulated seconds *)
  topology : unit -> Grid.t;  (** fixed fixture: the seed varies traffic only *)
  mix : Machines.t -> Workload.mix;
  admission : unit -> Admission.t;
  serve :
    jobs:int -> obs:Sink.t -> seed:int -> Admission.t -> Machines.t ->
    Workload.request list -> Server.report;
  digests : (int * string) list;  (** pinned [smoke_lines] MD5 per seed *)
}

let plain_serve ~jobs ~obs ~seed admission machines requests =
  Server.run ~jobs ~obs ~seed ~admission machines requests

let chaos_serve ~jobs ~obs ~seed admission machines requests =
  Server.run ~jobs ~obs ~seed ~admission
    ~transport:(Session.Adaptive { config = Adaptive.default; reroute = true })
    ~faults:(Faults.v ~loss:0.15 ~crash_rate:2e-9 ())
    ~retry:(Server.retry ~budget:2 ~backoff_us:1e4 ())
    machines requests

(* Rates sit below saturation: near it, the mean makespan of one seed's
   stream drifts from another's by more than any bound worth setting. *)
let g5k = {
  name = "serve-g5k";
  jobs = 1;
  rate_per_s = 4.;
  window_s = 600.;
  topology = Grid5000.grid;
  mix = Workload.default_mix;
  admission = (fun () -> Admission.create ());
  serve = plain_serve;
  digests =
    [
      (default_seed, "20217594a6df60952b1983c07850cb71");
      (heldout_seed, "35bcf9dc98404d14a726c397ea70f4c6");
    ];
}

let wide = {
  name = "serve-wide";
  jobs = 2;
  rate_per_s = 5.;
  window_s = 100.;
  topology =
    (fun () ->
      Generators.uniform_random ~rng:(Rng.create 2006) ~n:128
        { Generators.default_random_spec with cluster_size = (1, 3) });
  mix =
    (fun machines ->
      {
        Workload.roots = Array.init (Grid.size (Machines.grid machines)) Fun.id;
        msgs = [| 4_096; 65_536; 1_048_576 |];
        policies = [| "FlatTree"; "FEF"; "ECEF"; "ECEF-LA"; "ECEF-LAT"; "BottomUp" |];
        deadlines = [| infinity |];
        high_frac = 0.;
      });
  (* Sessions here last tens of simulated seconds; the default cap of 8
     would reject a seed-dependent share of them.  Admitting everything
     keeps the work the same from seed to seed. *)
  admission = (fun () -> Admission.create ~max_concurrent:1_000_000 ());
  serve = plain_serve;
  digests =
    [
      (default_seed, "6a2f5148b53b3e482201c9848e086f07");
      (heldout_seed, "73f52c20999605c4042414d9f206a609");
    ];
}

let chaos = {
  name = "serve-chaos";
  jobs = 1;
  rate_per_s = 3.;
  window_s = 500.;
  topology = Grid5000.grid;
  mix =
    (fun machines ->
      { (Workload.default_mix machines) with deadlines = [| 4e6 |]; high_frac = 0.3 });
  admission =
    (fun () -> Admission.create ~shed:(Admission.shed ~watermark_us:5e5 ~max_open_frac:0.5 ()) ());
  serve = chaos_serve;
  digests =
    [
      (default_seed, "194bc169950495d8d1e097119fd80318");
      (heldout_seed, "069fafd707a98a5e8563a06349938840");
    ];
}

let workloads = [ g5k; wide; chaos ]

(* Zero-chaos workloads are re-driven layer by layer from this file;
   serve-chaos has retry waves only [Server.run] reaches. *)
let redrivable w = w.name <> chaos.name

(* Set-up: topology, machine view and request stream. *)
let setup w ~seed =
  let machines = Machines.expand (w.topology ()) in
  let requests =
    Workload.generate ~mix:(w.mix machines) ~seed ~rate:(w.rate_per_s /. 1e6)
      ~duration:(w.window_s *. 1e6) machines
  in
  (machines, requests)

(* Sessions draw their random streams from [seed + 1], as [gridsched
   serve] does. *)
let serve w ~jobs ?(obs = Sink.null) ~seed (machines, requests) =
  w.serve ~jobs ~obs ~seed:(seed + 1) (w.admission ()) machines requests

(* --- the per-layer ledger --- *)

type ledger = {
  fingerprint : acc;
  instance : acc;
  policy : acc;
  mutable pair_evaluations : int;
  mutable lookahead_terms : int;
  mutable rescored : int;
  mutable pool_wall_ns : float;
  mutable pool_cpu_ns : float;
  cache : acc;
  admission : acc;
  mutable rejects : int;
  mutable sheds : int;
  lower : acc;
  des : acc;  (** session launches plus [Des.Engine.run] *)
  mutable sessions : int;
  mutable events : int;
  mutable transmissions : int;
  mutable retransmissions : int;
  mutable acks : int;
}

let ledger () =
  {
    fingerprint = acc ();
    instance = acc ();
    policy = acc ();
    pair_evaluations = 0;
    lookahead_terms = 0;
    rescored = 0;
    pool_wall_ns = 0.;
    pool_cpu_ns = 0.;
    cache = acc ();
    admission = acc ();
    rejects = 0;
    sheds = 0;
    lower = acc ();
    des = acc ();
    sessions = 0;
    events = 0;
    transmissions = 0;
    retransmissions = 0;
    acks = 0;
  }

(* One planned key, measured on whichever domain the pool ran it. *)
type planned = {
  schedule : Schedule.t;
  predicted : float;
  instance_ns : float;
  instance_words : float;
  policy_ns : float;
  policy_words : float;
  stats : Sched_engine.stats;
  task_ns : float;
}

let plan_key grid (k : Plan_cache.key) =
  let policy = Option.get (Policy.by_name k.Plan_cache.policy) in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let inst = Instance.of_grid ~root:k.Plan_cache.root ~msg:k.Plan_cache.bucket grid in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let schedule, stats = Sched_engine.run_stats policy inst in
  let t2 = now_ns () in
  let w2 = Gc.minor_words () in
  let predicted = Schedule.makespan inst schedule in
  let t3 = now_ns () in
  {
    schedule;
    predicted;
    instance_ns = ns_between t0 t1;
    instance_words = w1 -. w0;
    policy_ns = ns_between t1 t2;
    policy_words = w2 -. w1;
    stats;
    task_ns = ns_between t0 t3;
  }

let key_of fingerprint (r : Workload.request) =
  Plan_cache.key ~fingerprint ~root:r.Workload.root ~msg:r.Workload.msg
    ~policy:r.Workload.policy

(* Distinct keys in first-appearance order, the batch [Server.run] plans. *)
let distinct_keys keys =
  let seen = Hashtbl.create 64 in
  Array.to_list keys
  |> List.filter (fun k ->
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)
  |> Array.of_list

(* Fingerprint plus batch planning over the pool, as [Server.run] does. *)
let plan_batch lg ~jobs machines requests =
  let grid = Machines.grid machines in
  let fingerprint = timed lg.fingerprint (fun () -> Fingerprint.of_machines machines) in
  let key = key_of fingerprint in
  let unique = distinct_keys (Array.map key requests) in
  let t0 = now_ns () in
  let planned = Pool.map ~jobs (plan_key grid) unique in
  lg.pool_wall_ns <- lg.pool_wall_ns +. ns_between t0 (now_ns ());
  let plans = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      Hashtbl.replace plans unique.(i) p;
      lg.instance.calls <- lg.instance.calls + 1;
      lg.instance.ns <- lg.instance.ns +. p.instance_ns;
      lg.instance.words <- lg.instance.words +. p.instance_words;
      lg.policy.calls <- lg.policy.calls + 1;
      lg.policy.ns <- lg.policy.ns +. p.policy_ns;
      lg.policy.words <- lg.policy.words +. p.policy_words;
      lg.pair_evaluations <- lg.pair_evaluations + p.stats.Sched_engine.pair_evaluations;
      lg.lookahead_terms <- lg.lookahead_terms + p.stats.Sched_engine.lookahead_terms;
      lg.rescored <- lg.rescored + p.stats.Sched_engine.rescored;
      lg.pool_cpu_ns <- lg.pool_cpu_ns +. p.task_ns)
    planned;
  (key, plans)

(* Wave 0 of the replay: cache lookup, admission, and (for admitted
   requests) lowering; [launch] seeds the session when the caller runs the
   DES itself. *)
let replay_wave0 lg ~key ~plans ~admission ~cache ~launch machines requests =
  Array.map
    (fun (r : Workload.request) ->
      let k = key r in
      let p = Hashtbl.find plans k in
      let _, kind =
        timed lg.cache (fun () -> Plan_cache.lookup cache k ~compute:(fun () -> p.schedule))
      in
      let decision =
        timed lg.admission (fun () ->
            Admission.decide ~priority:r.Workload.priority admission ~now:r.Workload.at
              ~predicted_makespan:p.predicted)
      in
      let session =
        match decision with
        | Admission.Reject reason ->
            if Admission.is_shed reason then lg.sheds <- lg.sheds + 1
            else lg.rejects <- lg.rejects + 1;
            None
        | Admission.Admit ->
            let plan = timed lg.lower (fun () -> Plan.of_cluster_schedule machines p.schedule) in
            launch r plan
      in
      (r, kind, p.predicted, decision, session))
    requests

let count_delivered arr lo hi =
  let c = ref 0 in
  for k = lo to hi - 1 do
    if not (Float.is_nan arr.(k)) then incr c
  done;
  !c

let no_slo =
  {
    Server.c_requests = 0;
    c_admitted = 0;
    c_shed = 0;
    c_rejected = 0;
    c_requeues = 0;
    c_delivered = 0;
    c_ranks = 0;
    c_deadlines = 0;
    c_deadline_met = 0;
  }

(* The zero-chaos pipeline of [Server.run], re-driven from public layer
   functions on one engine and one wire.  Returns a report whose
   [smoke_lines] must equal [Server.run]'s byte for byte. *)
let redrive lg ~jobs ~seed ~admission machines request_list =
  let requests = Array.of_list request_list in
  let key, plans = plan_batch lg ~jobs machines requests in
  let n = Machines.count machines in
  let wire = Wire.create ~n in
  let engine = Des_engine.create () in
  let base = Rng.create seed in
  let launch (r : Workload.request) plan =
    let config =
      Session.Config.v ~rng:(Rng.split base r.Workload.rid) ~start_delay:r.Workload.at
        ~msg:r.Workload.msg ()
    in
    lg.sessions <- lg.sessions + 1;
    Some
      (timed lg.des (fun () ->
           Session.launch_reliable ~sid:r.Workload.rid ~who:"Server.run" ~wire ~engine
             config machines plan))
  in
  let cache = Plan_cache.create () in
  let partial = replay_wave0 lg ~key ~plans ~admission ~cache ~launch machines requests in
  timed lg.des (fun () -> Des_engine.run engine);
  lg.events <- lg.events + Des_engine.processed engine;
  let admitted = ref 0 and delivered = ref 0 and mk_sum = ref 0. in
  let outcomes =
    Array.map
      (fun ((r : Workload.request), kind, predicted, decision, session) ->
        let result = Option.map Session.reliable_result session in
        let delivered_union, completion_us =
          match result with
          | None -> (0, nan)
          | Some res ->
              let arr = res.Session.r_arrival in
              let base = count_delivered arr 0 n in
              incr admitted;
              lg.transmissions <- lg.transmissions + res.Session.r_transmissions;
              lg.retransmissions <- lg.retransmissions + res.Session.retransmissions;
              lg.acks <- lg.acks + res.Session.acks;
              let union = base + count_delivered arr n (Array.length arr) in
              delivered := !delivered + union;
              mk_sum := !mk_sum +. (res.Session.r_makespan -. r.Workload.at);
              let completion =
                if base < n then nan
                else Array.fold_left Float.max neg_infinity (Array.sub arr 0 n)
              in
              (union, completion)
        in
        {
          Server.request = r;
          cache = (kind :> [ `Hit | `Miss | `Invalidated | `Unplanned ]);
          plan_us = 0.;
          predicted_us = predicted;
          decision;
          result;
          attempts = (if result = None then 0 else 1);
          delivered_union;
          completion_us;
          deadline_met = None;
        })
      partial
  in
  let stats = Plan_cache.stats cache in
  let lookups = stats.Plan_cache.hits + stats.Plan_cache.misses in
  let nreq = Array.length requests in
  {
    Server.outcomes;
    requests = nreq;
    admitted = !admitted;
    rejected = nreq - !admitted;
    invalid = 0;
    cache_stats = stats;
    hit_rate =
      (if lookups = 0 then 0. else float_of_int stats.Plan_cache.hits /. float_of_int lookups);
    plan_wall_s = 0.;
    plans_per_sec = 0.;
    plan_p50_us = 0.;
    plan_p99_us = 0.;
    horizon_us = Des_engine.now engine;
    delivered = !delivered;
    mean_makespan_us = (if !admitted = 0 then 0. else !mk_sum /. float_of_int !admitted);
    sheds = 0;
    requeues = 0;
    retry_lookups = 0;
    deadline_misses = 0;
    (* Per-class SLO lines are rendered only for chaotic reports. *)
    slo_high = no_slo;
    slo_low = no_slo;
    chaotic = false;
  }

(* DES-layer counts of a traced [Server.run], read off its memory sink:
   (published events, transmissions, retransmissions, acks). *)
let des_counts sink =
  let events = ref 0 and tx = ref 0 and rtx = ref 0 and acks = ref 0 in
  (match sink with
  | Sink.Memory l ->
      List.iter
        (fun e ->
          match Event.untag e with
          | Event.Send_start { try_no; _ } ->
              incr events;
              incr tx;
              if try_no > 0 then incr rtx
          | Event.Ack _ ->
              incr events;
              incr acks
          | Event.Send_end _ | Event.Arrival _ | Event.Retransmit _ | Event.Give_up _
          | Event.Circuit_open _ | Event.Circuit_close _ | Event.Reroute _
          | Event.Timer_set _ | Event.Timer_fire _ | Event.Timer_cancel _ ->
              incr events
          | _ -> ())
        !l
  | _ -> ());
  (!events, !tx, !rtx, !acks)

(* --- checks and the numbers read off a report --- *)

(* Requests the service turned away (rejected, shed) or left with an
   undelivered base rank.  On serve-chaos that is the workload's intended
   outcome, checked through the smoke digest and reported through
   admit_ratio and delivery_ratio; it is printed, not counted as failed. *)
let unserved_requests (report : Server.report) =
  Array.fold_left
    (fun c (o : Server.outcome) ->
      if o.Server.result = None || Float.is_nan o.Server.completion_us then c + 1 else c)
    0 report.Server.outcomes

let delivery_ratio (report : Server.report) =
  let h = report.Server.slo_high and l = report.Server.slo_low in
  let ranks = h.Server.c_ranks + l.Server.c_ranks in
  if ranks = 0 then 1.
  else float_of_int (h.Server.c_delivered + l.Server.c_delivered) /. float_of_int ranks

(* [ok] turns false at the first failed check; the run still finishes. *)
let fail ok fmt =
  Printf.ksprintf
    (fun s ->
      ok := false;
      prerr_endline ("CHECK FAILED: " ^ s))
    fmt

let check_report ok w ~seed (report : Server.report) =
  let r = report in
  if r.Server.admitted + r.Server.rejected <> r.Server.requests then
    fail ok "admitted %d + rejected %d <> requests %d" r.Server.admitted r.Server.rejected
      r.Server.requests;
  if r.Server.requests = 0 || r.Server.admitted = 0 then fail ok "empty run";
  if Float.is_nan r.Server.mean_makespan_us || r.Server.mean_makespan_us <= 0. then
    fail ok "mean makespan %g" r.Server.mean_makespan_us;
  let d = digest_of_lines (Server.smoke_lines report) in
  (match List.assoc_opt seed w.digests with
  | Some pinned when pinned <> d ->
      fail ok "%s seed %d: smoke digest %s, pinned %s" w.name seed d pinned
  | _ -> ());
  d

(* [Server.run]'s wave-0 decisions and cache kinds must equal the
   benchmark's own replay of the same calls. *)
let wave0_of (report : Server.report) =
  Array.map (fun o -> (o.Server.decision, o.Server.cache)) report.Server.outcomes

let check_wave0 ok wave0 partial =
  Array.iteri
    (fun i (_, kind, _, decision, _) ->
      if wave0.(i) <> (decision, (kind :> [ `Hit | `Miss | `Invalidated | `Unplanned ])) then
        fail ok "request %d: wave-0 replay disagrees with Server.run" i)
    partial

let replay_wave0_only lg (w : workload) ~jobs machines requests =
  let reqs = Array.of_list requests in
  let key, plans = plan_batch lg ~jobs machines reqs in
  replay_wave0 lg ~key ~plans ~admission:(w.admission ()) ~cache:(Plan_cache.create ())
    ~launch:(fun _ _ -> None) machines reqs

(* The benchmark's own drive of the same layers: the whole zero-chaos
   pipeline, or wave 0 of a chaotic one. *)
let independent_check ok (w : workload) ~jobs ~seed ~digest ~wave0 (machines, requests) =
  if redrivable w then begin
    let mine =
      redrive (ledger ()) ~jobs ~seed:(seed + 1) ~admission:(w.admission ()) machines requests
    in
    if digest_of_lines (Server.smoke_lines mine) <> digest then
      fail ok "re-driven pipeline's smoke output differs from Server.run"
  end
  else check_wave0 ok wave0 (replay_wave0_only (ledger ()) w ~jobs machines requests)

(* --- output --- *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* A request fails when its run's output fails a check; then every
   attempted request counts as failed. *)
let print_result ~ok ~attempted metrics =
  List.iter (fun x -> Printf.printf "%-30s %18.6f %s\n" x.m_name x.value x.unit_) metrics;
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.value)
          x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok
    attempted (if ok then 0 else attempted) (String.concat ", " body)

let stamp w ~seed ~jobs ~mode =
  Printf.printf
    "# workload=%s mode=%s seed=%d (default %d, held-out %d) jobs=%d cores=%d ocaml=%s \
     commit=%s\n\
     %!"
    w.name mode seed default_seed heldout_seed jobs (Provenance.cores ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (Provenance.git_commit ()))

(* --- end-to-end pass (tracing off) --- *)

(* A shared host can alternate between fast and slow periods of 10-20 s
   (on a 2-vCPU VM the same cold plan took 10 us in one and 15-19 us in
   the next), so a run spreads its measurements over its whole duration
   in rounds and keeps the fastest round: the best serve time and the
   lowest per-round plan-miss percentiles.  Set-up is timed a few times
   per round and reported as a median.

   The serve is timed in CPU seconds of the process ([Sys.time]: user
   plus system time of every domain, from getrusage).  At jobs 1 only one
   domain runs, so on an idle host this equals the wall time; unlike the
   wall time it leaves out the time a shared host gives other tenants
   (steal, when the guest kernel accounts for it) or other processes in
   the guest.  The wall-clock throughput is printed as a comment line. *)
let setups_per_round = 4

(* Host us to plan one cold key the way [Server.run]'s batch does:
   [Instance.of_grid], the policy, [Schedule.makespan].  A round times
   whole passes over the workload's distinct keys for [budget_s] (at
   least one pass) and keeps each key's median, which sheds the
   sub-millisecond bursts that would otherwise decide the tail; the
   percentiles are taken over keys.  Returns the medians and the number
   of timings. *)
let plan_miss_round grid keys ~budget_s =
  let per_key = Array.make (Array.length keys) [] in
  let t_start = now_ns () and passes = ref 0 in
  while !passes = 0 || seconds_since t_start < budget_s do
    incr passes;
    Array.iteri
      (fun i (k : Plan_cache.key) ->
        let h = Option.get (Heuristics.by_name k.Plan_cache.policy) in
        let t0 = now_ns () in
        let inst = Instance.of_grid ~root:k.Plan_cache.root ~msg:k.Plan_cache.bucket grid in
        let s = Heuristics.run h inst in
        ignore (Sys.opaque_identity (Schedule.makespan inst s));
        per_key.(i) <- (ns_between t0 (now_ns ()) *. 1e-3) :: per_key.(i))
      keys
  done;
  (Array.map (fun l -> median (Array.of_list l)) per_key, !passes * Array.length keys)

let end_to_end w ~seed ~seconds =
  let ok = ref true in
  let jobs = w.jobs in
  stamp w ~seed ~jobs ~mode:"end-to-end";
  let setup_times = ref [] in
  let timed_setup () =
    let t0 = now_ns () in
    let inputs = setup w ~seed in
    setup_times := seconds_since t0 :: !setup_times;
    inputs
  in
  let inputs = timed_setup () in
  let machines, requests = inputs in
  let grid = Machines.grid machines in
  let keys =
    distinct_keys (Array.map (key_of (Fingerprint.of_machines machines)) (Array.of_list requests))
  in
  (* Untimed warm-up: the first serve in a process runs 20-35% slower.
     It is also the process's first serve, so the heap peak read right
     after it is one run's.  Only numbers are kept from it. *)
  let warm = serve w ~jobs ~seed inputs in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let digest = check_report ok w ~seed warm in
  let wave0 = wave0_of warm in
  let nreq = float_of_int warm.Server.requests in
  let outcome_metrics =
    [
      m "admit_ratio" "ratio" (float_of_int warm.Server.admitted /. nreq);
      m "delivery_ratio" "ratio" (delivery_ratio warm);
      m "deadline_attainment_high" "ratio" (Server.deadline_attainment warm.Server.slo_high);
      m "mean_makespan_us" "us" warm.Server.mean_makespan_us;
    ]
  in
  let walls = ref [] and cpus = ref [] and p50s = ref [] and p90s = ref [] and samples = ref 0 in
  let attempted = ref 0 in
  let t_start = now_ns () in
  while List.length !walls < 3 || seconds_since t_start < seconds do
    for _ = 1 to setups_per_round do
      ignore (Sys.opaque_identity (timed_setup ()))
    done;
    Gc.compact ();
    let c0 = Sys.time () in
    let t0 = now_ns () in
    let report = serve w ~jobs ~seed inputs in
    let wall = seconds_since t0 in
    cpus := (Sys.time () -. c0) :: !cpus;
    walls := wall :: !walls;
    attempted := !attempted + report.Server.requests;
    let d = digest_of_lines (Server.smoke_lines report) in
    if d <> digest then fail ok "timed run digest %s differs from warm-up %s" d digest;
    (* Cold plans on a compacted heap, for a quarter of the serve's wall. *)
    Gc.compact ();
    let medians, n = plan_miss_round grid keys ~budget_s:(wall /. 4.) in
    samples := !samples + n;
    p50s := percentile 50. medians :: !p50s;
    p90s := percentile 90. medians :: !p90s
  done;
  independent_check ok w ~jobs ~seed ~digest ~wave0 inputs;
  let fastest xs = List.fold_left Float.min infinity xs in
  Printf.printf "# requests=%.0f unserved=%d rounds=%d digest=%s plan_miss_samples=%d (keys %d)\n"
    nreq (unserved_requests warm) (List.length !walls) digest !samples (Array.length keys);
  Printf.printf "# wall-clock req/s: fastest round %.1f, median round %.1f\n"
    (nreq /. fastest !walls) (nreq /. median (Array.of_list !walls));
  let metrics =
    [
      m "setup_s" "s" (median (Array.of_list !setup_times));
      m "req_per_s" "1/s" (nreq /. fastest !cpus);
      m "plan_miss_p50_us" "us" (fastest !p50s);
      m "plan_miss_p90_us" "us" (fastest !p90s);
    ]
    @ outcome_metrics
    @ [ m "peak_heap_mb" "MB" peak_heap_mb ]
  in
  print_result ~ok:!ok ~attempted:!attempted metrics

(* --- traced pass: the per-layer ledger --- *)

(* One untraced [Server.run] plus one traced pass over the same inputs;
   returns the ledger's metrics and the untraced report. *)
let traced_pass ok (w : workload) ~jobs ~seed inputs =
  let machines, requests = inputs in
  Gc.compact ();
  let q0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let report = serve w ~jobs ~seed inputs in
  let server_s = seconds_since t0 in
  let q1 = Gc.quick_stat () in
  let digest = check_report ok w ~seed report in
  Gc.compact ();
  let lg = ledger () in
  let t1 = now_ns () in
  let traced_s =
    if redrivable w then begin
      let mine =
        redrive lg ~jobs ~seed:(seed + 1) ~admission:(w.admission ()) machines requests
      in
      let traced_s = seconds_since t1 in
      if digest_of_lines (Server.smoke_lines mine) <> digest then
        fail ok "re-driven pipeline's smoke output differs from Server.run";
      traced_s
    end
    else begin
      (* Planning and wave 0 from this file; retry waves and the DES only
         inside [Server.run], counted through its sink. *)
      check_wave0 ok (wave0_of report) (replay_wave0_only lg w ~jobs machines requests);
      let sink = Sink.memory () in
      let t2 = now_ns () in
      let traced = serve w ~jobs ~obs:sink ~seed inputs in
      let traced_s = seconds_since t2 in
      if digest_of_lines (Server.smoke_lines traced) <> digest then
        fail ok "traced Server.run differs from the untraced run";
      let events, tx, rtx, acks = des_counts sink in
      lg.events <- events;
      lg.transmissions <- tx;
      lg.retransmissions <- rtx;
      lg.acks <- acks;
      lg.sessions <-
        Array.fold_left (fun c o -> c + o.Server.attempts) 0 report.Server.outcomes;
      traced_s
    end
  in
  let layer_s =
    (lg.fingerprint.ns +. lg.pool_wall_ns +. lg.cache.ns +. lg.admission.ns +. lg.lower.ns
   +. lg.des.ns)
    *. 1e-9
  in
  (* Self time: the re-driven pipeline's wall outside every layer call.
     On serve-chaos it is the part of Server.run's wall this file cannot
     reach — the DES and the retry waves — so the DES is charged with it. *)
  let self_s = (if redrivable w then traced_s else server_s) -. layer_s in
  let nreq = float_of_int report.Server.requests in
  let stats = report.Server.cache_stats in
  let lookups = stats.Plan_cache.hits + stats.Plan_cache.misses in
  let server_words = q1.Gc.minor_words -. q0.Gc.minor_words in
  let des_ns, des_words =
    if redrivable w then (lg.des.ns, lg.des.words)
    else
      ( self_s *. 1e9,
        server_words -. lg.fingerprint.words -. lg.instance.words -. lg.policy.words
        -. lg.cache.words -. lg.admission.words -. lg.lower.words )
  in
  let metrics =
    [
      m "instance.calls" "count" (float_of_int lg.instance.calls);
      m "instance.us_per_call" "us" (per lg.instance.calls lg.instance.ns *. 1e-3);
      m "instance.minor_words_per_call" "words" (per lg.instance.calls lg.instance.words);
      m "policy.calls" "count" (float_of_int lg.policy.calls);
      m "policy.us_per_call" "us" (per lg.policy.calls lg.policy.ns *. 1e-3);
      m "policy.pair_evaluations" "count" (float_of_int lg.pair_evaluations);
      m "policy.lookahead_terms" "count" (float_of_int lg.lookahead_terms);
      m "policy.rescored" "count" (float_of_int lg.rescored);
      m "policy.ns_per_eval" "ns" (per lg.pair_evaluations lg.policy.ns);
      m "policy.minor_words_per_eval" "words" (per lg.pair_evaluations lg.policy.words);
      m "pool.plan_batch_wall_s" "s" (lg.pool_wall_ns *. 1e-9);
      m "pool.plan_cpu_s" "s" (lg.pool_cpu_ns *. 1e-9);
      m "pool.efficiency" "ratio"
        (if lg.pool_wall_ns > 0. then lg.pool_cpu_ns /. (lg.pool_wall_ns *. float_of_int jobs)
         else 0.);
      m "fingerprint.ms" "ms" (lg.fingerprint.ns *. 1e-6);
      m "cache.lookups" "count" (float_of_int lookups);
      m "cache.hits" "count" (float_of_int stats.Plan_cache.hits);
      m "cache.misses" "count" (float_of_int stats.Plan_cache.misses);
      m "cache.invalidations" "count" (float_of_int stats.Plan_cache.invalidations);
      m "cache.hit_rate" "ratio" report.Server.hit_rate;
      m "cache.lookup_ns" "ns" (per lg.cache.calls lg.cache.ns);
      m "lower.calls" "count" (float_of_int lg.lower.calls);
      m "lower.us_per_call" "us" (per lg.lower.calls lg.lower.ns *. 1e-3);
      m "lower.minor_words_per_call" "words" (per lg.lower.calls lg.lower.words);
      m "des.sessions" "count" (float_of_int lg.sessions);
      m "des.events" "count" (float_of_int lg.events);
      m "des.ns_per_event" "ns" (per lg.events des_ns);
      m "des.minor_words_per_event" "words" (per lg.events des_words);
      m "des.transmissions" "count" (float_of_int lg.transmissions);
      m "des.retransmissions" "count" (float_of_int lg.retransmissions);
      m "des.acks" "count" (float_of_int lg.acks);
      m "des.useful_ratio" "ratio"
        (per lg.transmissions (float_of_int (lg.transmissions - lg.retransmissions)));
      m "admission.decisions" "count" (float_of_int lg.admission.calls);
      m "admission.rejects" "count" (float_of_int lg.rejects);
      m "admission.sheds" "count" (float_of_int lg.sheds);
      m "admission.ns_per_decision" "ns" (per lg.admission.calls lg.admission.ns);
      m "server.wall_s" "s" server_s;
      m "server.self_s" "s" self_s;
      m "server.minor_words_per_req" "words" (server_words /. nreq);
      m "server.major_collections" "count"
        (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
      m "server.requeues" "count" (float_of_int report.Server.requeues);
      m "server.retry_lookups" "count" (float_of_int report.Server.retry_lookups);
      m "trace.overhead_ratio" "ratio" (traced_s /. server_s);
    ]
  in
  (metrics, report)

let per_layer w ~seed ~seconds =
  let ok = ref true in
  let jobs = w.jobs in
  stamp w ~seed ~jobs ~mode:"per-layer";
  let inputs = setup w ~seed in
  ignore (serve w ~jobs ~seed inputs);
  let passes = ref [] and attempted = ref 0 in
  let t_start = now_ns () in
  while !passes = [] || seconds_since t_start < seconds do
    let metrics, report = traced_pass ok w ~jobs ~seed inputs in
    passes := metrics :: !passes;
    attempted := !attempted + report.Server.requests
  done;
  (* Counts repeat exactly across passes; times are reported as medians. *)
  let metrics =
    List.map
      (fun x ->
        let vs =
          List.map (fun ms -> (List.find (fun y -> y.m_name = x.m_name) ms).value) !passes
        in
        { x with value = median (Array.of_list vs) })
      (List.hd !passes)
  in
  Printf.printf "# traced passes=%d\n" (List.length !passes);
  print_result ~ok:!ok ~attempted:!attempted metrics

(* --- deterministic counts (jobs 1) --- *)

let exact_counts =
  [ "instance.calls"; "instance.minor_words_per_call"; "policy.calls";
    "policy.pair_evaluations"; "policy.lookahead_terms"; "policy.rescored";
    "policy.minor_words_per_eval"; "cache.lookups"; "cache.hits"; "cache.misses";
    "cache.invalidations"; "lower.calls"; "lower.minor_words_per_call"; "des.sessions";
    "des.events"; "des.minor_words_per_event"; "des.transmissions"; "des.retransmissions";
    "des.acks"; "admission.decisions"; "admission.rejects"; "admission.sheds";
    "server.minor_words_per_req"; "server.requeues"; "server.retry_lookups" ]

let counts w ~seed =
  let ok = ref true in
  let inputs = setup w ~seed in
  let metrics, report = traced_pass ok w ~jobs:1 ~seed inputs in
  Printf.printf "workload %s seed %d requests %d\n" w.name seed report.Server.requests;
  List.iter
    (fun x -> if List.mem x.m_name exact_counts then Printf.printf "%s %.17g\n" x.m_name x.value)
    metrics;
  Printf.printf "smoke_md5 %s\n" (digest_of_lines (Server.smoke_lines report));
  if not !ok then exit 1

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: serve_bench.exe --workload serve-g5k|serve-wide|serve-chaos [--seed N] \
     [--seconds S] [--trace 0|1] [--counts]";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10. in
  let trace = ref false and counts_mode = ref false in
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := num int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := num float_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := num int_of_string_opt v <> 0;
        parse rest
    | "--counts" :: rest ->
        counts_mode := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w ->
      if !seconds < 0. then usage ();
      if !counts_mode then counts w ~seed:!seed
      else if !trace then per_layer w ~seed:!seed ~seconds:!seconds
      else end_to_end w ~seed:!seed ~seconds:!seconds
