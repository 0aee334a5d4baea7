module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Fingerprint = Gridb_topology.Fingerprint
module Heuristics = Gridb_sched.Heuristics
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Session = Gridb_des.Session
module Wire = Gridb_des.Wire
module Engine = Gridb_des.Engine
module Plan = Gridb_des.Plan
module Faults = Gridb_des.Faults
module Dynamics = Gridb_des.Dynamics
module Adaptive = Gridb_des.Adaptive
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event
module Rng = Gridb_util.Rng
module Pool = Gridb_util.Pool

type retry = { budget : int; backoff_us : float }

let no_retry = { budget = 0; backoff_us = 0. }

let retry ?(budget = 2) ?(backoff_us = 1e4) () =
  if budget < 0 then invalid_arg "Server.retry: budget < 0";
  if Float.is_nan backoff_us || backoff_us < 0. then
    invalid_arg "Server.retry: backoff_us < 0";
  { budget; backoff_us }

type outcome = {
  request : Workload.request;
  cache : [ `Hit | `Miss | `Invalidated | `Unplanned ];
  plan_us : float;
  predicted_us : float;
  decision : Admission.decision;
  result : Session.reliable option;
  attempts : int;
  delivered_union : int;
  completion_us : float;
  deadline_met : bool option;
}

type class_slo = {
  c_requests : int;
  c_admitted : int;
  c_shed : int;
  c_rejected : int;
  c_requeues : int;
  c_delivered : int;
  c_ranks : int;
  c_deadlines : int;
  c_deadline_met : int;
}

let empty_slo =
  {
    c_requests = 0;
    c_admitted = 0;
    c_shed = 0;
    c_rejected = 0;
    c_requeues = 0;
    c_delivered = 0;
    c_ranks = 0;
    c_deadlines = 0;
    c_deadline_met = 0;
  }

let delivery_ratio s =
  if s.c_ranks = 0 then 1. else float_of_int s.c_delivered /. float_of_int s.c_ranks

let deadline_attainment s =
  if s.c_deadlines = 0 then 1.
  else float_of_int s.c_deadline_met /. float_of_int s.c_deadlines

type report = {
  outcomes : outcome array;
  requests : int;
  admitted : int;
  rejected : int;
  invalid : int;
  cache_stats : Plan_cache.stats;
  hit_rate : float;
  plan_wall_s : float;
  plans_per_sec : float;
  plan_p50_us : float;
  plan_p99_us : float;
  horizon_us : float;
  delivered : int;
  mean_makespan_us : float;
  sheds : int;
  requeues : int;
  retry_lookups : int;
  deadline_misses : int;
  slo_high : class_slo;
  slo_low : class_slo;
  chaotic : bool;
}

let percentile sorted p =
  let m = Array.length sorted in
  if m = 0 then 0.
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int m)) - 1 in
    sorted.(min (m - 1) (max 0 idx))

let heuristic_of policy =
  match Heuristics.by_name policy with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Server.run: unknown policy %S" policy)

(* Cluster-level live view for retry replanning: the retry's estimator
   rescales the nominal inter-cluster latency/gap matrices by the measured
   per-link quality on coordinator-to-coordinator links — the same lift
   {!Gridb_experiments.Robustness} uses for post-crash replans. *)
let estimated_instance est machines (inst : Instance.t) =
  let nc = inst.Instance.n in
  let q c d =
    if c = d then 1.
    else
      Adaptive.quality est
        ~src:(Machines.coordinator machines c)
        ~dst:(Machines.coordinator machines d)
  in
  let scale m = Array.init nc (fun i -> Array.init nc (fun j -> m.(i).(j) *. q i j)) in
  Instance.v ~root:inst.Instance.root ~latency:(scale inst.Instance.latency)
    ~gap:(scale inst.Instance.gap) ~intra:inst.Instance.intra

let count_delivered arr lo hi =
  let c = ref 0 in
  for k = lo to hi - 1 do
    if not (Float.is_nan arr.(k)) then incr c
  done;
  !c

let run ?(jobs = 1) ?transport ?admission ?cache ?(obs = Sink.null) ?(seed = 0)
    ?faults ?dynamics ?(retry = no_retry) machines requests =
  let admission = match admission with Some a -> a | None -> Admission.create () in
  let cache = match cache with Some c -> c | None -> Plan_cache.create ~obs () in
  let requests = Array.of_list requests in
  let nreq = Array.length requests in
  let grid = Machines.grid machines in
  let clusters = Grid.size grid in
  let fingerprint = Fingerprint.of_machines machines in
  let key_of (r : Workload.request) =
    Plan_cache.key ~fingerprint ~root:r.Workload.root ~msg:r.Workload.msg
      ~policy:r.Workload.policy
  in
  (* Arrival order must be non-decreasing: the admission controller and the
     sequential cache replay both assume it. *)
  Array.iteri
    (fun i r ->
      if i > 0 && r.Workload.at < requests.(i - 1).Workload.at then
        invalid_arg "Server.run: requests not in arrival order")
    requests;
  let known (r : Workload.request) = Heuristics.by_name r.Workload.policy <> None in
  let chaotic =
    faults <> None || dynamics <> None || retry.budget > 0
    || Admission.shedding admission
    || Array.exists
         (fun (r : Workload.request) ->
           r.Workload.priority = Workload.High || r.Workload.deadline < infinity)
         requests
  in
  let t0 = Unix.gettimeofday () in
  (* Batch planning: the distinct cache keys of the whole request batch,
     first-appearance order, each planned once — in parallel over the pool
     (planning is pure; results land by index, so any --jobs gives the
     same plans).  The sequential replay below then charges hits and
     misses exactly as an online server would have.  Requests naming an
     unknown policy never reach planning: they become [Bad_policy] rejects
     during replay instead of killing the batch. *)
  let seen = Hashtbl.create 64 in
  let unique = ref [] in
  Array.iter
    (fun r ->
      if known r then begin
        let k = key_of r in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          unique := k :: !unique
        end
      end)
    requests;
  let unique = Array.of_list (List.rev !unique) in
  let planned =
    Pool.mapi ~jobs
      (fun _ (k : Plan_cache.key) ->
        let t0 = Unix.gettimeofday () in
        let h = heuristic_of k.Plan_cache.policy in
        let inst = Instance.of_grid ~root:k.Plan_cache.root ~msg:k.Plan_cache.bucket grid in
        let s = Heuristics.run h inst in
        let predicted = Schedule.makespan inst s in
        (s, predicted, (Unix.gettimeofday () -. t0) *. 1e6))
      unique
  in
  let plan_tbl = Hashtbl.create 64 in
  Array.iteri (fun i k -> Hashtbl.replace plan_tbl k planned.(i)) unique;
  (* Sequential replay in arrival order: cache accounting, admission, and
     session launch onto ONE engine and ONE wire — admitted broadcasts
     contend for the same NICs.  The wire is sized for the worst-case
     session population (machines plus any dynamics joins). *)
  let n = Machines.count machines in
  let wire_ranks =
    n
    +
    match dynamics with
    | Some (spec : Dynamics.spec) when spec.Dynamics.join_rate > 0. ->
        spec.Dynamics.join_max
    | _ -> 0
  in
  let wire = Wire.create ~n:wire_ranks in
  let engine = Engine.create ~obs () in
  let base = Rng.create seed in
  (* Chaotic sessions draw their fault/dynamics models and (for retries)
     their noise streams from dedicated tagged bases, split per (rid,
     attempt) — pure stream derivation, so chaotic replays are bit-stable
     however planning was parallelised and whatever order results land. *)
  let fault_base = Rng.create (seed lxor 0x666c7473) (* "flts" *) in
  let dyn_base = Rng.create (seed lxor 0x64796e73) (* "dyns" *) in
  let retry_base = Rng.create (seed lxor 0x72747279) (* "rtry" *) in
  let derive b rid attempt = Rng.int (Rng.split (Rng.split b rid) attempt) 0x3FFFFFFF in
  let session_config (r : Workload.request) ~attempt ~start_delay =
    let rng =
      if attempt = 0 then Rng.split base r.Workload.rid
      else Rng.split (Rng.split retry_base r.Workload.rid) attempt
    in
    (* Models are anchored at the session's own start ([t0]): a request
       served (or retried) late in the simulation faces faults and churn
       unfolding from its start, exactly like a request served at the
       epoch — not a world that pre-decayed while it sat in the queue. *)
    let fmodel =
      Option.map
        (fun spec ->
          Faults.create
            ~seed:(derive fault_base r.Workload.rid attempt)
            ~t0:start_delay ~n spec)
        faults
    in
    let dmodel =
      Option.map
        (fun spec ->
          Dynamics.create
            ~seed:(derive dyn_base r.Workload.rid attempt)
            ~t0:start_delay ~n ~clusters spec)
        dynamics
    in
    Session.Config.v ~rng ~start_delay ~msg:r.Workload.msg ~obs ?faults:fmodel
      ?dynamics:dmodel ?transport ()
  in
  (* One lowering per distinct schedule: sessions share the lowered plan,
     which nothing mutates.  A key is lowered again only when the cache
     hands back another schedule for it (a retry replan after an
     invalidation). *)
  let lowered = Hashtbl.create 64 in
  let lower k schedule =
    match Hashtbl.find_opt lowered k with
    | Some (s, plan) when s == schedule -> plan
    | _ ->
        let plan = Plan.of_cluster_schedule machines schedule in
        Hashtbl.replace lowered k (schedule, plan);
        plan
  in
  let launch (r : Workload.request) k schedule ~attempt ~start_delay =
    let config = session_config r ~attempt ~start_delay in
    Session.launch_reliable
      ~sid:((attempt * nreq) + r.Workload.rid)
      ~who:"Server.run" ~wire ~engine config machines (lower k schedule)
  in
  let sheds = ref 0 in
  let shed_by = Array.make nreq 0 in
  let emit ev = if Sink.enabled obs then Sink.emit obs ev in
  let partial =
    Array.map
      (fun (r : Workload.request) ->
        if not (known r) then
          (r, `Unplanned, 0., 0., Admission.Reject (Admission.Bad_policy r.Workload.policy), None)
        else begin
          let k = key_of r in
          let schedule, predicted, compute_us = Hashtbl.find plan_tbl k in
          let l0 = Unix.gettimeofday () in
          let _, kind = Plan_cache.lookup cache k ~compute:(fun () -> schedule) in
          let lookup_us = (Unix.gettimeofday () -. l0) *. 1e6 in
          let plan_us = match kind with `Hit -> lookup_us | _ -> compute_us +. lookup_us in
          (* Wave-0 decisions carry no circuit-health signal: nothing has
             executed yet.  The open-circuit fraction gates requeues. *)
          let decision =
            Admission.decide ~priority:r.Workload.priority admission ~now:r.Workload.at
              ~predicted_makespan:predicted
          in
          let session =
            match decision with
            | Admission.Reject reason ->
                if Admission.is_shed reason then begin
                  incr sheds;
                  shed_by.(r.Workload.rid) <- 1;
                  emit
                    (Event.Shed
                       {
                         rid = r.Workload.rid;
                         priority = Workload.priority_to_string r.Workload.priority;
                         reason = Admission.reason_string reason;
                         time = r.Workload.at;
                       })
                end;
                None
            | Admission.Admit ->
                Some (launch r k schedule ~attempt:0 ~start_delay:r.Workload.at)
          in
          ((r, (kind :> [ `Hit | `Miss | `Invalidated | `Unplanned ]), plan_us, predicted,
            decision, session)
            : Workload.request
              * [ `Hit | `Miss | `Invalidated | `Unplanned ]
              * float
              * float
              * Admission.decision
              * Session.reliable_t option)
        end)
      requests
  in
  let plan_wall_s = Unix.gettimeofday () -. t0 in
  Engine.run engine;
  (* Retry/requeue loop.  A request whose delivered-rank {e union} (over
     every attempt so far, never double-counted) still misses base ranks
     is re-enqueued with exponential backoff, re-admitted against the live
     open-circuit fraction, re-planned on the live estimated latency
     matrix when quality drifted past the cache threshold, and relaunched
     as a fresh session ([sid = attempt * nreq + rid]).  Waves run to
     engine quiescence, so a requeue always starts at or after the
     previous wave's horizon. *)
  let attempts = Array.make nreq 0 in
  let final_result : Session.reliable option array = Array.make nreq None in
  let union : float array array = Array.make nreq [||] in
  let requeues = ref 0 and retry_lookups = ref 0 in
  let sessions_finished = ref 0 and sessions_opened = ref 0 in
  let absorb rid (res : Session.reliable) =
    attempts.(rid) <- attempts.(rid) + 1;
    final_result.(rid) <- Some res;
    incr sessions_finished;
    if res.Session.circuit_opens > 0 then incr sessions_opened;
    if Array.length union.(rid) = 0 then union.(rid) <- Array.make n nan;
    let u = union.(rid) in
    for k = 0 to n - 1 do
      let a = res.Session.r_arrival.(k) in
      if not (Float.is_nan a) && (Float.is_nan u.(k) || a < u.(k)) then u.(k) <- a
    done
  in
  let needs_retry rid =
    Array.length union.(rid) > 0 && count_delivered union.(rid) 0 n < n
  in
  Array.iter
    (fun (r, _, _, _, _, session) ->
      match session with
      | Some s -> absorb r.Workload.rid (Session.reliable_result s)
      | None -> ())
    partial;
  let queue =
    ref
      (if retry.budget = 0 then []
       else
         Array.to_list requests
         |> List.filter (fun (r : Workload.request) -> needs_retry r.Workload.rid))
  in
  while !queue <> [] do
    let wave = !queue in
    queue := [];
    let open_frac =
      if !sessions_finished = 0 then 0.
      else float_of_int !sessions_opened /. float_of_int !sessions_finished
    in
    let launched =
      List.filter_map
        (fun (r : Workload.request) ->
          let rid = r.Workload.rid in
          let attempt = attempts.(rid) in
          if attempt > retry.budget then None
          else begin
            let prev = Option.get final_result.(rid) in
            let backoff = retry.backoff_us *. Float.pow 2. (float_of_int (attempt - 1)) in
            let retry_at =
              Float.max (Engine.now engine) (prev.Session.r_makespan +. backoff)
            in
            let k = key_of r in
            let _, predicted, _ = Hashtbl.find plan_tbl k in
            match
              Admission.decide ~priority:r.Workload.priority ~open_frac admission
                ~now:retry_at ~predicted_makespan:predicted
            with
            | Admission.Reject reason ->
                if Admission.is_shed reason then begin
                  incr sheds;
                  shed_by.(rid) <- shed_by.(rid) + 1;
                  emit
                    (Event.Shed
                       {
                         rid;
                         priority = Workload.priority_to_string r.Workload.priority;
                         reason = Admission.reason_string reason;
                         time = retry_at;
                       })
                end;
                None
            | Admission.Admit ->
                let estimator = prev.Session.estimator in
                let compute () =
                  let h = heuristic_of r.Workload.policy in
                  let inst =
                    Instance.of_grid ~root:r.Workload.root ~msg:k.Plan_cache.bucket grid
                  in
                  let inst =
                    match estimator with
                    | Some est -> estimated_instance est machines inst
                    | None -> inst
                  in
                  Heuristics.run h inst
                in
                let schedule, _ = Plan_cache.lookup cache ?estimator k ~compute in
                incr retry_lookups;
                incr requeues;
                emit (Event.Retry { rid; attempt; time = retry_at });
                Some (r, launch r k schedule ~attempt ~start_delay:retry_at)
          end)
        wave
    in
    Engine.run engine;
    List.iter
      (fun ((r : Workload.request), s) ->
        absorb r.Workload.rid (Session.reliable_result s);
        if needs_retry r.Workload.rid && attempts.(r.Workload.rid) <= retry.budget then
          queue := r :: !queue)
      launched;
    queue := List.rev !queue
  done;
  (* Fold per-request outcomes: the recorded result is the final attempt's,
     delivery is the union (base ranks across attempts, joins from the
     final attempt), deadlines are judged on the time the union covered
     every base rank. *)
  let deadline_misses = ref 0 in
  let outcomes =
    Array.map
      (fun ((request : Workload.request), cache, plan_us, predicted_us, decision, _) ->
        let rid = request.Workload.rid in
        let result = final_result.(rid) in
        let delivered_union, completion_us =
          match result with
          | None -> (0, nan)
          | Some res ->
              let u = union.(rid) in
              let base = count_delivered u 0 n in
              let join_delivered =
                count_delivered res.Session.r_arrival n
                  (Array.length res.Session.r_arrival)
              in
              let completion =
                if base < n then nan
                else Array.fold_left (fun acc a -> Float.max acc a) neg_infinity u
              in
              (base + join_delivered, completion)
        in
        let deadline_met =
          match result with
          | None -> None
          | Some _ ->
              if request.Workload.deadline = infinity then None
              else
                Some
                  ((not (Float.is_nan completion_us))
                  && completion_us -. request.Workload.at <= request.Workload.deadline)
        in
        (match deadline_met with
        | Some false ->
            incr deadline_misses;
            emit
              (Event.Deadline_miss
                 { rid; deadline = request.Workload.deadline; finish = completion_us })
        | _ -> ());
        {
          request;
          cache;
          plan_us;
          predicted_us;
          decision;
          result;
          attempts = attempts.(rid);
          delivered_union;
          completion_us;
          deadline_met;
        })
      partial
  in
  let admitted = ref 0 and invalid = ref 0 and delivered = ref 0 and mk_sum = ref 0. in
  let slo = Array.make 2 empty_slo in
  let class_of (r : Workload.request) =
    match r.Workload.priority with Workload.High -> 0 | Workload.Low -> 1
  in
  Array.iter
    (fun o ->
      let c = class_of o.request in
      let s = slo.(c) in
      let s = { s with c_requests = s.c_requests + 1 } in
      let s =
        match o.result with
        | Some r ->
            incr admitted;
            delivered := !delivered + o.delivered_union;
            mk_sum := !mk_sum +. (r.Session.r_makespan -. o.request.Workload.at);
            let population = Array.length r.Session.r_arrival in
            let met = if o.deadline_met = Some true then 1 else 0 in
            let has_deadline = if o.deadline_met = None then 0 else 1 in
            {
              s with
              c_admitted = s.c_admitted + 1;
              c_requeues = s.c_requeues + (o.attempts - 1);
              c_shed = s.c_shed + shed_by.(o.request.Workload.rid);
              c_delivered = s.c_delivered + o.delivered_union;
              c_ranks = s.c_ranks + population;
              c_deadlines = s.c_deadlines + has_deadline;
              c_deadline_met = s.c_deadline_met + met;
            }
        | None ->
            (match o.decision with
            | Admission.Reject (Admission.Bad_policy _) -> incr invalid
            | _ -> ());
            let was_shed = shed_by.(o.request.Workload.rid) > 0 in
            {
              s with
              c_shed = s.c_shed + shed_by.(o.request.Workload.rid);
              c_rejected = (s.c_rejected + if was_shed then 0 else 1);
            }
      in
      slo.(c) <- s)
    outcomes;
  (* Plan latencies are wall-clock readings, so how many comparisons a
     sort makes varies run to run.  Sorting the float array itself boxes
     an element per comparison (and heapsort raises a data-dependent
     number of exceptions); a merge sort of indices into it allocates the
     same words on every run, keeping minor-word counts reproducible. *)
  let latencies =
    let raw = Array.map (fun o -> o.plan_us) outcomes in
    let order = Array.init (Array.length raw) Fun.id in
    Array.stable_sort (fun i j -> Float.compare raw.(i) raw.(j)) order;
    Array.map (fun i -> raw.(i)) order
  in
  let stats = Plan_cache.stats cache in
  let lookups = stats.Plan_cache.hits + stats.Plan_cache.misses in
  {
    outcomes;
    requests = nreq;
    admitted = !admitted;
    rejected = nreq - !admitted;
    invalid = !invalid;
    cache_stats = stats;
    hit_rate =
      (if lookups = 0 then 0.
       else float_of_int stats.Plan_cache.hits /. float_of_int lookups);
    plan_wall_s;
    plans_per_sec =
      (if plan_wall_s > 0. then float_of_int nreq /. plan_wall_s else 0.);
    plan_p50_us = percentile latencies 50.;
    plan_p99_us = percentile latencies 99.;
    horizon_us = Engine.now engine;
    delivered = !delivered;
    mean_makespan_us = (if !admitted = 0 then 0. else !mk_sum /. float_of_int !admitted);
    sheds = !sheds;
    requeues = !requeues;
    retry_lookups = !retry_lookups;
    deadline_misses = !deadline_misses;
    slo_high = slo.(0);
    slo_low = slo.(1);
    chaotic;
  }

let smoke_lines report =
  let lines = ref [] in
  let addf fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  Array.iter
    (fun o ->
      let r = o.request in
      let chaos_suffix =
        if not report.chaotic then ""
        else begin
          let b = Buffer.create 32 in
          if r.Workload.priority = Workload.High then Buffer.add_string b " prio=high";
          if r.Workload.deadline < infinity then
            Printf.bprintf b " deadline=%.0f" r.Workload.deadline;
          if o.attempts > 1 then
            Printf.bprintf b " attempts=%d union=%d" o.attempts o.delivered_union;
          (match o.deadline_met with
          | Some true -> Buffer.add_string b " sla=met"
          | Some false -> Buffer.add_string b " sla=miss"
          | None -> ());
          Buffer.contents b
        end
      in
      addf "req %-3d at=%.1f root=%d msg=%d policy=%s cache=%s %s%s%s" r.Workload.rid
        r.Workload.at r.Workload.root r.Workload.msg r.Workload.policy
        (match o.cache with
        | `Hit -> "hit"
        | `Miss -> "miss"
        | `Invalidated -> "invalidated"
        | `Unplanned -> "-")
        (match o.decision with
        | Admission.Admit -> "admitted"
        | Admission.Reject reason ->
            "rejected (" ^ Admission.reason_string reason ^ ")")
        (match o.result with
        | None -> ""
        | Some res ->
            Printf.sprintf " delivered=%d/%d makespan=%.1f" res.Session.delivered
              (Array.length res.Session.r_arrival)
              (res.Session.r_makespan -. r.Workload.at))
        chaos_suffix)
    report.outcomes;
  addf "requests %d admitted %d rejected %d" report.requests report.admitted
    report.rejected;
  addf "cache hits %d misses %d invalidations %d entries %d (hit rate %.3f)"
    report.cache_stats.Plan_cache.hits report.cache_stats.Plan_cache.misses
    report.cache_stats.Plan_cache.invalidations report.cache_stats.Plan_cache.entries
    report.hit_rate;
  addf "delivered ranks %d, mean session makespan %.1f us, horizon %.1f us"
    report.delivered report.mean_makespan_us report.horizon_us;
  if report.chaotic then begin
    let slo_line label s =
      addf
        "slo %s: requests %d admitted %d shed %d rejected %d requeues %d delivery \
         %.3f deadline %.3f"
        label s.c_requests s.c_admitted s.c_shed s.c_rejected s.c_requeues
        (delivery_ratio s) (deadline_attainment s)
    in
    slo_line "high" report.slo_high;
    slo_line "low" report.slo_low;
    addf "chaos: sheds %d requeues %d retry lookups %d deadline misses %d invalid %d"
      report.sheds report.requeues report.retry_lookups report.deadline_misses
      report.invalid
  end;
  List.rev !lines
