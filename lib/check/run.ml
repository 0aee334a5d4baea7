open Gridb_sched
module Session = Gridb_des.Session
module Faults = Gridb_des.Faults
module Dynamics = Gridb_des.Dynamics
module Plan = Gridb_des.Plan
module Machines = Gridb_topology.Machines
module Rng = Gridb_util.Rng
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

let ( let* ) = Result.bind

let fail invariant fmt =
  Format.kasprintf (fun detail -> Error { Invariant.invariant; detail }) fmt

let resolve f sc =
  match f sc with
  | Ok v -> Ok v
  | Error detail -> Error { Invariant.invariant = "scenario"; detail }

(* The incremental engine against the naive oracle: identical schedules,
   event for event, tie-breaking included — the contract {!Engine}
   documents as bitwise. *)
let engine_differential policy inst =
  let s_inc = Engine.run ~mode:`Incremental policy inst in
  let s_naive = Engine.run ~mode:`Naive policy inst in
  if s_inc = s_naive then Ok s_inc
  else
    fail "engine-differential"
      "incremental and naive schedules differ for policy %s on n = %d"
      (Policy.name policy) inst.Instance.n

(* Arrival vector, [delivered] counter and [Arrival] events must agree. *)
let arrival_accounting (r : Session.reliable) events =
  let n = Array.length r.Session.r_arrival in
  let seen = Array.make n nan in
  let arrivals = ref 0 in
  List.iter
    (function
      | Event.Arrival { dst; time; _ } ->
          incr arrivals;
          if Float.is_nan seen.(dst) then seen.(dst) <- time
      | _ -> ())
    events;
  let rec ranks k =
    if k >= n then Ok ()
    else
      let recorded = r.Session.r_arrival.(k) in
      if Float.is_nan recorded && Float.is_nan seen.(k) then ranks (k + 1)
      else if recorded = seen.(k) then ranks (k + 1)
      else
        fail "arrival-accounting"
          "rank %d: executor records arrival %.17g but the event stream says \
           %.17g"
          k recorded seen.(k)
  in
  let* () = ranks 0 in
  let delivered_vec =
    Array.fold_left
      (fun acc a -> if Float.is_nan a then acc else acc + 1)
      0 r.Session.r_arrival
  in
  if delivered_vec <> r.Session.delivered then
    fail "delivered-accounting"
      "arrival vector has %d delivered ranks but the executor counted %d"
      delivered_vec r.Session.delivered
  else if !arrivals <> r.Session.delivered then
    fail "delivered-accounting"
      "event stream has %d arrivals but the executor delivered %d" !arrivals
      r.Session.delivered
  else
    let max_arrival =
      Array.fold_left
        (fun acc a -> if Float.is_nan a then acc else Float.max acc a)
        neg_infinity r.Session.r_arrival
    in
    if max_arrival = r.Session.r_makespan then Ok ()
    else
      fail "delivered-accounting"
        "max delivered arrival %.17g but recorded makespan %.17g" max_arrival
        r.Session.r_makespan

(* Delivery accounting under churn: the executor's [left] / [joined]
   reports and its arrival vector must agree with the dynamics model it
   ran under — departures are exactly the ranks whose pre-drawn leave time
   fell inside the horizon, nothing is delivered to a rank after it left,
   and joins outside the horizon never receive (or appear) at all. *)
let churn_accounting (d : Dynamics.t) (r : Session.reliable) =
  let name = "churn-accounting" in
  let n = Dynamics.size d in
  let ntot = Dynamics.total d in
  let horizon = r.Session.horizon in
  if Array.length r.Session.r_arrival <> ntot then
    fail name "arrival vector spans %d ranks, model population is %d"
      (Array.length r.Session.r_arrival) ntot
  else begin
    let expected_left = ref [] in
    for k = n - 1 downto 0 do
      if Dynamics.leave_time d k <= horizon then expected_left := k :: !expected_left
    done;
    if List.sort compare r.Session.left <> !expected_left then
      fail name "executor reports departures {%s}, model says {%s} by %.17g"
        (String.concat "," (List.map string_of_int r.Session.left))
        (String.concat "," (List.map string_of_int !expected_left))
        horizon
    else begin
      let expected_joined =
        Array.to_list (Dynamics.joins d)
        |> List.filter_map (fun (j : Dynamics.join) ->
               if j.at <= horizon then Some j.rank else None)
      in
      if List.sort compare r.Session.joined <> expected_joined then
        fail name "executor reports joins {%s}, model says {%s} by %.17g"
          (String.concat "," (List.map string_of_int r.Session.joined))
          (String.concat "," (List.map string_of_int expected_joined))
          horizon
      else begin
        let bad = ref None in
        for k = 0 to ntot - 1 do
          let a = r.Session.r_arrival.(k) in
          if !bad = None && not (Float.is_nan a) then
            if a >= Dynamics.leave_time d k then
              bad :=
                Some
                  (Printf.sprintf
                     "rank %d delivered at %.17g, at or after its departure at %.17g" k a
                     (Dynamics.leave_time d k))
        done;
        Array.iter
          (fun (j : Dynamics.join) ->
            let a = r.Session.r_arrival.(j.rank) in
            if !bad = None && not (Float.is_nan a) then
              if j.at > horizon then
                bad :=
                  Some
                    (Printf.sprintf
                       "join rank %d arrives at %.17g, beyond the horizon %.17g, yet \
                        was delivered"
                       j.rank j.at horizon)
              else if a < j.at then
                bad :=
                  Some
                    (Printf.sprintf
                       "join rank %d delivered at %.17g before it even joined at %.17g"
                       j.rank a j.at))
          (Dynamics.joins d);
        match !bad with None -> Ok () | Some detail -> fail name "%s" detail
      end
    end
  end

let check (sc : Scenario.t) =
  let* policy = resolve Scenario.policy sc in
  let* transport = resolve Scenario.transport sc in
  let* spec = resolve Scenario.faults_spec sc in
  let* dspec = resolve Scenario.dynamics_spec sc in
  let grid = Scenario.grid sc in
  let inst = Instance.of_grid ~root:sc.root ~msg:sc.msg grid in
  (* Schedule-level checks. *)
  let* s = engine_differential policy inst in
  let* () = Invariant.check_schedule inst s in
  (* Metamorphic laws. *)
  let* () = Metamorphic.scaling policy inst in
  let perm = Rng.permutation (Rng.create (Scenario.perm_seed sc)) sc.n in
  let* () = Metamorphic.relabeling ~perm policy inst in
  let small_msg = max 1 (sc.msg / 4) in
  let small = Instance.of_grid ~root:sc.root ~msg:small_msg grid in
  let* () = Metamorphic.replay_size_monotonicity policy ~small ~large:inst in
  (* DES execution, fault-free: stream invariants + model cross-check. *)
  let machines = Machines.expand grid in
  let n_ranks = Machines.count machines in
  let plan = Plan.of_cluster_schedule machines s in
  let sink = Sink.memory () in
  let res = Session.run (Session.Config.v ~msg:sc.msg ~obs:sink ()) machines plan in
  let events = Sink.events sink in
  let* () = Invariant.check_stream ~n:n_ranks ~root:plan.Plan.root events in
  let* () = Invariant.stream_gap_conformance ~machines ~msg:sc.msg events in
  let* () =
    Invariant.cross_check ~invariant:"makespan-cross-check"
      ~expected:(Schedule.makespan inst s) ~got:res.Session.makespan
  in
  let* () = Metamorphic.transport_equivalence ~msg:sc.msg ~seed:sc.seed machines plan in
  (* Zero-dynamics identity, in the scenario's own fault/transport cell:
     attaching an inert dynamics model may change nothing. *)
  let* () =
    Metamorphic.dynamics_identity ~msg:sc.msg ~seed:sc.seed
      ~fault_seed:(Scenario.fault_seed sc) ~transport ~spec machines plan
  in
  (* Faulty branch: reliable execution under the scenario's fault spec. *)
  let* () =
    if Faults.is_none spec then Ok ()
    else begin
      let faults =
        Faults.create ~seed:(Scenario.fault_seed sc) ~n:n_ranks spec
      in
      let sink = Sink.memory () in
      let r =
        Session.run_reliable
          (Session.Config.v ~msg:sc.msg ~obs:sink ~faults ~transport ())
          machines plan
      in
      let events = Sink.events sink in
      let* () =
        Invariant.check_stream ~faulty:true ~n:n_ranks ~root:plan.Plan.root
          events
      in
      arrival_accounting r events
    end
  in
  (* Dynamic branch: the same reliable execution with the scenario's
     dynamics model attached (faults included when the scenario has both),
     checked against the stream invariants over the churned population and
     against the model's own books. *)
  if Dynamics.is_none dspec then Ok ()
  else begin
    let faults = Faults.create ~seed:(Scenario.fault_seed sc) ~n:n_ranks spec in
    let d = Dynamics.create ~seed:(Scenario.dyn_seed sc) ~n:n_ranks ~clusters:sc.n dspec in
    let sink = Sink.memory () in
    let r =
      Session.run_reliable
        (Session.Config.v ~msg:sc.msg ~obs:sink ~faults ~dynamics:d ~transport
           ~tick_every:dspec.Dynamics.recluster_every ())
        machines plan
    in
    let events = Sink.events sink in
    let* () =
      Invariant.check_stream ~faulty:true ~n:(Dynamics.total d)
        ~root:plan.Plan.root events
    in
    let* () = churn_accounting d r in
    arrival_accounting r events
  end

let run_invariant_names =
  [
    "scenario";
    "engine-differential";
    "makespan-cross-check";
    "arrival-accounting";
    "delivered-accounting";
    "churn-accounting";
  ]

(* --- service family ----------------------------------------------------- *)

module Workload = Gridb_service.Workload
module Server = Gridb_service.Server
module Plan_cache = Gridb_service.Plan_cache

(* A session's root is the one rank whose arrival the session injects
   itself (src = dst). *)
let session_root evs =
  let rec go = function
    | [] -> None
    | Event.Arrival { src; dst; _ } :: _ when src = dst -> Some dst
    | _ :: rest -> go rest
  in
  go evs

let event_time = function
  | Event.Send_start { time; _ }
  | Event.Send_end { time; _ }
  | Event.Arrival { time; _ }
  | Event.Ack { time; _ }
  | Event.Retransmit { time; _ }
  | Event.Give_up { time; _ }
  | Event.Circuit_open { time; _ }
  | Event.Circuit_close { time; _ }
  | Event.Reroute { time; _ } -> Some time
  | _ -> None

let in_session sid = function
  | Ok () -> Ok ()
  | Error v ->
      Error
        {
          v with
          Invariant.detail = Printf.sprintf "session %d: %s" sid v.Invariant.detail;
        }

let check_service (sc : Scenario.t) =
  let* transport = resolve Scenario.transport sc in
  let grid = Scenario.grid sc in
  let machines = Machines.expand grid in
  let n_ranks = Machines.count machines in
  (* A modest open-loop stream over the scenario's own grid: ~40 requests
     in a 1e6-us window, default mix — enough concurrency to exercise the
     shared wire and the admission queue while staying cheap per
     scenario. *)
  let requests =
    Workload.generate ~seed:(Scenario.service_seed sc) ~rate:4e-5 ~duration:1e6
      machines
  in
  let sink = Sink.memory () in
  let report =
    Server.run ~transport ~obs:sink ~seed:sc.Scenario.seed machines requests
  in
  let events = Sink.events sink in
  (* Books: every request is admitted or rejected, and charges the cache
     exactly one lookup. *)
  let* () =
    if report.Server.admitted + report.Server.rejected = report.Server.requests
    then Ok ()
    else
      fail "service-accounting" "admitted %d + rejected %d <> %d requests"
        report.Server.admitted report.Server.rejected report.Server.requests
  in
  let stats = report.Server.cache_stats in
  let* () =
    if stats.Plan_cache.hits + stats.Plan_cache.misses = report.Server.requests
    then Ok ()
    else
      fail "service-accounting" "%d cache lookups for %d requests"
        (stats.Plan_cache.hits + stats.Plan_cache.misses)
        report.Server.requests
  in
  let sessions = Invariant.split_sessions events in
  let by_sid = Hashtbl.create 16 in
  List.iter (fun (sid, evs) -> Hashtbl.replace by_sid sid evs) sessions;
  (* Attribution: the tagged sids of the stream are exactly the admitted
     request ids (rids are dense from 0, so sid indexes [outcomes]). *)
  let* () =
    let rec outcomes i =
      if i >= Array.length report.Server.outcomes then Ok ()
      else
        let o = report.Server.outcomes.(i) in
        let rid = o.Server.request.Workload.rid in
        match (o.Server.result, Hashtbl.mem by_sid rid) with
        | Some _, true | None, false -> outcomes (i + 1)
        | Some _, false ->
            fail "session-attribution" "admitted request %d produced no tagged events"
              rid
        | None, true ->
            fail "session-attribution" "rejected request %d produced tagged events" rid
    in
    let* () = outcomes 0 in
    let rec extras = function
      | [] -> Ok ()
      | (sid, _) :: rest ->
          if sid >= 0 && sid < Array.length report.Server.outcomes then extras rest
          else fail "session-attribution" "stream carries unknown session id %d" sid
    in
    extras sessions
  in
  (* Per-session single-broadcast invariants over each session's own
     (untagged) slice: at-most-once delivery (contention can time sends
     out), causality, per-session NIC discipline, gap conformance, and the
     executor-vs-stream arrival books.  Nothing in a session may precede
     its request's arrival time. *)
  let rec per_session = function
    | [] -> Ok ()
    | (sid, evs) :: rest ->
        let o = report.Server.outcomes.(sid) in
        let r =
          match o.Server.result with Some r -> r | None -> assert false
        in
        let* root =
          match session_root evs with
          | Some root -> Ok root
          | None ->
              fail "session-attribution" "session %d has no root self-arrival" sid
        in
        let* () =
          in_session sid (Invariant.check_stream ~faulty:true ~n:n_ranks ~root evs)
        in
        let* () =
          in_session sid
            (Invariant.stream_gap_conformance ~machines
               ~msg:o.Server.request.Workload.msg evs)
        in
        let at = o.Server.request.Workload.at in
        let* () =
          let rec times = function
            | [] -> Ok ()
            | e :: tl -> (
                match event_time e with
                | Some t when t < at ->
                    fail "session-clock"
                      "session %d event at %g precedes its arrival at %g" sid t at
                | _ -> times tl)
          in
          times evs
        in
        let* () = in_session sid (arrival_accounting r evs) in
        per_session rest
  in
  let* () = per_session sessions in
  (* Every session is scheduled before the engine runs, so each start
     fires before the other handlers due at its time. *)
  let* () = Invariant.sessions_start_order events in
  (* The property only multi-session runs have: one-port serialization of
     the shared wire across concurrent sessions. *)
  Invariant.sessions_nic_serialization ~n:n_ranks events

let service_invariant_names =
  [ "service-accounting"; "session-attribution"; "session-clock"; "start-order" ]

(* --- chaos family ------------------------------------------------------- *)

module Admission = Gridb_service.Admission

let chaos_budget = 2

(* Finite deadlines and a half-high-priority split: every resilience code
   path (deadline bookkeeping, priority-aware shedding, retry waves) is
   live whatever the scenario's fault/dynamics cell says. *)
let chaos_mix machines =
  {
    (Workload.default_mix machines) with
    Workload.deadlines = [| 2e5; 1e6; infinity |];
    high_frac = 0.5;
  }

let check_chaos (sc : Scenario.t) =
  let* transport = resolve Scenario.transport sc in
  let* fspec = resolve Scenario.faults_spec sc in
  let* dspec = resolve Scenario.dynamics_spec sc in
  let grid = Scenario.grid sc in
  let machines = Machines.expand grid in
  let n_ranks = Machines.count machines in
  let requests =
    Workload.generate ~mix:(chaos_mix machines) ~seed:(Scenario.chaos_seed sc)
      ~rate:4e-5 ~duration:1e6 machines
  in
  let nreq = List.length requests in
  let sink = Sink.memory () in
  let admission =
    Admission.create
      ~shed:(Admission.shed ~watermark_us:2e6 ~max_open_frac:0.5 ())
      ()
  in
  let report =
    Server.run ~transport ~admission ~obs:sink ~seed:sc.Scenario.seed
      ?faults:(if Faults.is_none fspec then None else Some fspec)
      ?dynamics:(if Dynamics.is_none dspec then None else Some dspec)
      ~retry:{ Server.budget = chaos_budget; backoff_us = 1e4 }
      machines requests
  in
  let events = Sink.events sink in
  (* Books under chaos: every request lands somewhere, cache lookups cover
     exactly the planned requests plus retry replans, and the per-class
     SLO tables partition the global counters. *)
  let* () =
    if report.Server.admitted + report.Server.rejected = report.Server.requests
    then Ok ()
    else
      fail "chaos-accounting" "admitted %d + rejected %d <> %d requests"
        report.Server.admitted report.Server.rejected report.Server.requests
  in
  let* () =
    let stats = report.Server.cache_stats in
    let lookups = stats.Plan_cache.hits + stats.Plan_cache.misses in
    let expected =
      report.Server.requests - report.Server.invalid + report.Server.retry_lookups
    in
    if lookups = expected then Ok ()
    else
      fail "chaos-accounting"
        "%d cache lookups, expected %d (%d requests - %d invalid + %d retry)"
        lookups expected report.Server.requests report.Server.invalid
        report.Server.retry_lookups
  in
  let* () =
    let h = report.Server.slo_high and l = report.Server.slo_low in
    if
      h.Server.c_requests + l.Server.c_requests = report.Server.requests
      && h.Server.c_admitted + l.Server.c_admitted = report.Server.admitted
      && h.Server.c_shed + l.Server.c_shed = report.Server.sheds
      && h.Server.c_requeues + l.Server.c_requeues = report.Server.requeues
      && h.Server.c_delivered + l.Server.c_delivered = report.Server.delivered
    then Ok ()
    else fail "chaos-accounting" "per-class SLO tables do not partition the report"
  in
  (* Retry delivery-monotonicity: the union over attempts can only add
     ranks to the final attempt's tally, never exceed the population, and
     the attempt count respects the budget. *)
  let* () =
    let rec go i =
      if i >= Array.length report.Server.outcomes then Ok ()
      else
        let o = report.Server.outcomes.(i) in
        match o.Server.result with
        | None ->
            if o.Server.attempts = 0 then go (i + 1)
            else
              fail "retry-monotonicity" "rejected request %d records %d attempts" i
                o.Server.attempts
        | Some r ->
            let population = Array.length r.Session.r_arrival in
            if o.Server.attempts < 1 || o.Server.attempts > chaos_budget + 1 then
              fail "retry-monotonicity" "request %d ran %d attempts (budget %d)" i
                o.Server.attempts chaos_budget
            else if o.Server.delivered_union < r.Session.delivered then
              fail "retry-monotonicity"
                "request %d: union %d below the final attempt's %d" i
                o.Server.delivered_union r.Session.delivered
            else if o.Server.delivered_union > population then
              fail "retry-monotonicity" "request %d: union %d exceeds population %d"
                i o.Server.delivered_union population
            else go (i + 1)
    in
    go 0
  in
  (* Shed ordering: only low-priority requests may ever be shed, and the
     stream's shed events agree with the report's counter.  Retry events
     must stay within the budget and match the requeue counter. *)
  let* () =
    let rec sheds count = function
      | [] ->
          if count = report.Server.sheds then Ok ()
          else
            fail "shed-ordering" "stream carries %d shed events, report counted %d"
              count report.Server.sheds
      | Event.Shed { rid; priority; _ } :: rest ->
          if priority <> "low" then
            fail "shed-ordering"
              "request %d shed with priority %s (high traffic must never be shed)"
              rid priority
          else sheds (count + 1) rest
      | _ :: rest -> sheds count rest
    in
    sheds 0 events
  in
  let* () =
    let rec retries count = function
      | [] ->
          if count = report.Server.requeues then Ok ()
          else
            fail "chaos-accounting"
              "stream carries %d retry events, report counted %d requeues" count
              report.Server.requeues
      | Event.Retry { rid; attempt; _ } :: rest ->
          if attempt < 1 || attempt > chaos_budget then
            fail "retry-monotonicity" "request %d retry attempt %d outside [1, %d]"
              rid attempt chaos_budget
          else retries (count + 1) rest
      | _ :: rest -> retries count rest
    in
    retries 0 events
  in
  (* Attribution across attempts: the tagged sids are exactly
     [attempt * requests + rid] for every launched attempt. *)
  let sessions = Invariant.split_sessions events in
  let* () =
    let expected = Hashtbl.create 64 in
    Array.iter
      (fun o ->
        for k = 0 to o.Server.attempts - 1 do
          Hashtbl.replace expected ((k * nreq) + o.Server.request.Workload.rid) ()
        done)
      report.Server.outcomes;
    let rec go = function
      | [] -> Ok ()
      | (sid, _) :: rest ->
          if Hashtbl.mem expected sid then begin
            Hashtbl.remove expected sid;
            go rest
          end
          else fail "session-attribution" "stream carries unexpected session id %d" sid
    in
    let* () = go sessions in
    if Hashtbl.length expected = 0 then Ok ()
    else
      fail "session-attribution" "%d launched attempts produced no tagged events"
        (Hashtbl.length expected)
  in
  (* Deadline bookkeeping vs session clocks: recompute each request's union
     completion from the tagged arrival events of every attempt and demand
     the report's verdicts (and miss counter) match exactly. *)
  let by_sid = Hashtbl.create 64 in
  List.iter (fun (sid, evs) -> Hashtbl.replace by_sid sid evs) sessions;
  let misses = ref 0 in
  let rec deadlines i =
    if i >= Array.length report.Server.outcomes then Ok ()
    else
      let o = report.Server.outcomes.(i) in
      let rid = o.Server.request.Workload.rid in
      match o.Server.result with
      | None ->
          if o.Server.deadline_met = None then deadlines (i + 1)
          else
            fail "deadline-bookkeeping" "rejected request %d carries a deadline verdict"
              rid
      | Some _ ->
          let u = Array.make n_ranks nan in
          for k = 0 to o.Server.attempts - 1 do
            match Hashtbl.find_opt by_sid ((k * nreq) + rid) with
            | None -> ()
            | Some evs ->
                List.iter
                  (function
                    | Event.Arrival { dst; time; _ } when dst < n_ranks ->
                        if Float.is_nan u.(dst) || time < u.(dst) then u.(dst) <- time
                    | _ -> ())
                  evs
          done;
          let complete = Array.for_all (fun a -> not (Float.is_nan a)) u in
          let completion =
            if complete then Array.fold_left Float.max neg_infinity u else nan
          in
          let agree =
            if Float.is_nan completion then Float.is_nan o.Server.completion_us
            else completion = o.Server.completion_us
          in
          if not agree then
            fail "deadline-bookkeeping"
              "request %d: stream says completion %.17g, report says %.17g" rid
              completion o.Server.completion_us
          else
            let d = o.Server.request.Workload.deadline in
            let expected =
              if d = infinity then None
              else
                Some
                  ((not (Float.is_nan completion))
                  && completion -. o.Server.request.Workload.at <= d)
            in
            if expected <> o.Server.deadline_met then
              fail "deadline-bookkeeping"
                "request %d: deadline verdict disagrees with session clocks" rid
            else begin
              if o.Server.deadline_met = Some false then incr misses;
              deadlines (i + 1)
            end
  in
  let* () = deadlines 0 in
  if !misses = report.Server.deadline_misses then Ok ()
  else
    fail "deadline-bookkeeping" "%d deadline misses recomputed, report counted %d"
      !misses report.Server.deadline_misses

let chaos_invariant_names =
  [ "chaos-accounting"; "retry-monotonicity"; "shed-ordering"; "deadline-bookkeeping" ]

(* --- opt family --------------------------------------------------------- *)

module Exact = Gridb_opt.Exact
module Traff = Gridb_opt.Traff

let in_context ctx = function
  | Ok () -> Ok ()
  | Error v ->
      Error { v with Invariant.detail = Printf.sprintf "%s: %s" ctx v.Invariant.detail }

(* No valid schedule may beat a certified optimum; a violation in either
   direction is fatal — a heuristic below the "optimum" means the solver
   pruned the true best (or scored a leaf wrong), a bound above it means
   the analytic bound is not a bound. *)
let optimum_sandwich ~ctx inst (cert : Exact.certificate) extra_policies =
  let opt = cert.Exact.makespan in
  let rec heuristics = function
    | [] -> Ok ()
    | p :: rest ->
        let m = Schedule.makespan inst (Engine.run p inst) in
        if m >= opt || Invariant.feq m opt then heuristics rest
        else
          fail "opt-lower-bound"
            "%s: %s makespan %.17g beats the certified optimum %.17g on n = %d" ctx
            (Policy.name p) m opt inst.Instance.n
  in
  let* () = heuristics (Policy.all @ extra_policies) in
  let lb = Bounds.combined inst in
  if lb <= opt || Invariant.feq lb opt then Ok ()
  else
    fail "opt-lower-bound"
      "%s: analytic bound %.17g exceeds the certified optimum %.17g" ctx lb opt

let check_opt (sc : Scenario.t) =
  let* policy = resolve Scenario.policy sc in
  let grid = Scenario.grid sc in
  let inst = Instance.of_grid ~root:sc.root ~msg:sc.msg grid in
  (* The certified schedule is a schedule like any other: every invariant
     of the catalogue must hold before its makespan is trusted. *)
  let cert = Exact.solve inst in
  let* () =
    in_context "certified schedule" (Invariant.check_schedule inst cert.Exact.schedule)
  in
  let* () = optimum_sandwich ~ctx:"scenario grid" inst cert [ policy ] in
  (* The certificate is not just a number: its schedule must execute on
     the DES, fault-free, to exactly the certified makespan. *)
  let machines = Machines.expand grid in
  let plan = Plan.of_cluster_schedule machines cert.Exact.schedule in
  let res = Session.run (Session.Config.v ~msg:sc.msg ()) machines plan in
  let* () =
    Invariant.cross_check ~invariant:"opt-des-replay" ~expected:cert.Exact.makespan
      ~got:res.Session.makespan
  in
  (* Homogeneous leg: an independent uniform instance drawn from the opt
     stream, where Träff's log-time construction is provably optimal — the
     B&B search and the closed-form schedule must agree, and the analytic
     [t* + T] must agree with both. *)
  let rng = Rng.create (Scenario.opt_seed sc) in
  let r = Instance.table2_ranges in
  let draw (lo, hi) = Rng.float_in rng lo hi in
  let params =
    {
      Traff.n = sc.n;
      root = sc.root;
      latency = draw r.Instance.latency_us;
      gap = draw r.Instance.gap_us;
      intra = draw r.Instance.intra_us;
    }
  in
  let hinst = Traff.instance params in
  let hcert = Exact.solve hinst in
  let ts = Traff.schedule hinst in
  let* () = in_context "Traff schedule" (Invariant.check_schedule hinst ts) in
  let* () =
    Invariant.cross_check ~invariant:"opt-homogeneous"
      ~expected:(Traff.makespan params) ~got:(Schedule.makespan hinst ts)
  in
  let* () =
    Invariant.cross_check ~invariant:"opt-homogeneous" ~expected:(Traff.makespan params)
      ~got:hcert.Exact.makespan
  in
  optimum_sandwich ~ctx:"homogeneous instance" hinst hcert []

let opt_invariant_names = [ "opt-lower-bound"; "opt-des-replay"; "opt-homogeneous" ]
