module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Fingerprint = Gridb_topology.Fingerprint
module Policy = Gridb_sched.Policy
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
  if backoff_us = infinity then invalid_arg "Server.retry: backoff_us must be finite";
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

let count_delivered arr lo hi =
  let c = ref 0 in
  for k = lo to hi - 1 do
    if not (Float.is_nan arr.(k)) then incr c
  done;
  !c

(* One per plan key: the batch plan, its predicted makespan and compute
   time, and the latest schedule lowered for the key with its plan.
   Sessions share a lowered plan, which nothing mutates; a key is lowered
   again only when the cache hands back another schedule for it (a retry
   replan after an invalidation). *)
type entry = {
  key : Plan_cache.key;
  policy : Policy.t;
  schedule : Schedule.t;
  predicted : float;
  compute_us : float;
  mutable lowered : (Schedule.t * Plan.t) option;
}

(* The schedule of a request that never launches: its policy is unknown. *)
let unplanned = { Schedule.root = 0; n = 0; events = []; ready = [||]; busy_until = [||] }

(* One per request, filled in wave by wave.  [entry] is [None] for an
   unknown policy; [decision] is the wave-0 one.  Each attempt is settled
   when its session completes: [base] counts the base ranks delivered by
   some attempt so far, [completion] is when the last of them first landed
   ([nan] while one is missing), and [joined] counts the latest attempt's
   delivered join ranks.  [union], the earliest arrival per base rank over
   every attempt, exists only once an attempt leaves the request short
   with retries to spare.  The latest admitted attempt starts at [start]
   with [schedule], at the engine seq it reserved when it was decided, and
   is [session] from its launch until the wave ends. *)
type job = {
  request : Workload.request;
  entry : entry option;
  predicted : float;
  mutable cache : [ `Hit | `Miss | `Invalidated | `Unplanned ];
  mutable plan_us : float;
  mutable decision : Admission.decision;
  mutable attempts : int;
  mutable result : Session.reliable option;
  mutable union : float array;
  mutable base : int;
  mutable joined : int;
  mutable completion : float;
  mutable sheds : int;
  mutable start : float;
  mutable seq : int;
  mutable schedule : Schedule.t;
  mutable session : Session.reliable_t option;
}

let run ?(jobs = 1) ?transport ?admission ?cache ?(obs = Sink.null) ?(seed = 0)
    ?faults ?dynamics ?(retry = no_retry) machines requests =
  let admission = match admission with Some a -> a | None -> Admission.create () in
  let cache = match cache with Some c -> c | None -> Plan_cache.create ~obs () in
  let requests = Array.of_list requests in
  let nreq = Array.length requests in
  let grid = Machines.grid machines in
  let clusters = Grid.size grid in
  let fingerprint = Fingerprint.of_machines machines in
  (* Arrival order must be non-decreasing: the admission controller and the
     sequential cache replay both assume it. *)
  Array.iteri
    (fun i r ->
      if i > 0 && r.Workload.at < requests.(i - 1).Workload.at then
        invalid_arg "Server.run: requests not in arrival order")
    requests;
  let chaotic =
    faults <> None || dynamics <> None || retry.budget > 0
    || Admission.shedding admission
    || Array.exists
         (fun (r : Workload.request) ->
           r.Workload.priority = Workload.High || r.Workload.deadline < infinity)
         requests
  in
  let t0 = Unix.gettimeofday () in
  (* Each request's policy and plan key, resolved once: [slot] is the
     key's index among the batch's distinct keys in first-appearance
     order, or -1 for an unknown policy.  Such a request never reaches
     planning: it becomes a [Bad_policy] reject in wave 0 instead of
     killing the batch.  Every size a session would replay at is checked
     against the grid first, since the DES cannot run a negative gap. *)
  let slots = Hashtbl.create 64 and fresh = ref [] and sizes = Hashtbl.create 8 in
  let slot =
    Array.map
      (fun (r : Workload.request) ->
        match Policy.by_name r.Workload.policy with
        | None -> -1
        | Some policy -> (
            let msg = r.Workload.msg in
            if not (Hashtbl.mem sizes msg) then begin
              Hashtbl.add sizes msg ();
              match Instance.check_grid ~msg grid with
              | Ok () -> ()
              | Error line -> invalid_arg ("Server.run: " ^ line)
            end;
            let key =
              Plan_cache.key ~fingerprint ~root:r.Workload.root ~msg ~policy:r.Workload.policy
            in
            match Hashtbl.find_opt slots key with
            | Some i -> i
            | None ->
                let i = Hashtbl.length slots in
                Hashtbl.add slots key i;
                fresh := (key, policy) :: !fresh;
                i))
      requests
  in
  (* Batch planning: each distinct key planned once, in parallel over the
     pool (planning is pure; results land by index, so any --jobs gives
     the same plans).  The sequential replay below then charges hits and
     misses exactly as an online server would have. *)
  let entries =
    Pool.mapi ~jobs
      (fun _ (key, policy) ->
        let t0 = Unix.gettimeofday () in
        let inst = Instance.of_grid ~root:key.Plan_cache.root ~msg:key.Plan_cache.bucket grid in
        let schedule = Gridb_sched.Engine.run policy inst in
        let predicted = Schedule.makespan inst schedule in
        let compute_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        { key; policy; schedule; predicted; compute_us; lowered = None })
      (Array.of_list (List.rev !fresh))
  in
  (* Sequential replay in arrival order: cache accounting and admission;
     admitted sessions then run on ONE engine and ONE wire — admitted
     broadcasts contend for the same NICs.  The wire is sized for the worst-case
     session population (machines plus any dynamics joins). *)
  let n = Machines.count machines in
  let joins =
    match dynamics with
    | Some { Dynamics.join_rate; join_max; _ } when join_rate > 0. -> join_max
    | _ -> 0
  in
  let wire = Wire.create ~n:(n + joins) in
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
    let rid = r.Workload.rid in
    let rng =
      if attempt = 0 then Rng.split base rid else Rng.split (Rng.split retry_base rid) attempt
    in
    (* Models are anchored at the session's own start ([t0]): a request
       served (or retried) late in the simulation faces faults and churn
       unfolding from its start, exactly like a request served at the
       epoch — not a world that pre-decayed while it sat in the queue. *)
    let fmodel =
      Option.map
        (fun spec -> Faults.create ~seed:(derive fault_base rid attempt) ~t0:start_delay ~n spec)
        faults
    in
    let dmodel =
      Option.map
        (fun spec ->
          Dynamics.create ~seed:(derive dyn_base rid attempt) ~t0:start_delay ~n ~clusters spec)
        dynamics
    in
    Session.Config.v ~rng ~start_delay ~msg:r.Workload.msg ~obs ?faults:fmodel
      ?dynamics:dmodel ?transport ()
  in
  (* Whether a request's attempts so far leave it short with retries to
     spare. *)
  let retryable j = j.base < n && j.attempts <= retry.budget in
  (* An attempt's books, kept as its session completes, while its arrivals
     are still in cache: merged into the union if one exists, then folded
     in one pass into the request's base count and completion time.  Only
     a retry's replanning reads the estimator, so a request that cannot be
     retried drops it here, while it is likely still young. *)
  let settle j s =
    let arr = Session.arrivals s and u = j.union in
    j.attempts <- j.attempts + 1;
    let merged = Array.length u > 0 in
    if merged then
      for k = 0 to n - 1 do
        let a = arr.(k) in
        if not (Float.is_nan a) && (Float.is_nan u.(k) || a < u.(k)) then u.(k) <- a
      done;
    let src = if merged then u else arr in
    let base = ref 0 and last = ref neg_infinity in
    for k = 0 to n - 1 do
      let a = src.(k) in
      if not (Float.is_nan a) then begin
        incr base;
        if a > !last then last := a
      end
    done;
    j.base <- !base;
    j.joined <- count_delivered arr n (Array.length arr);
    j.completion <- (if !base < n then nan else !last);
    if not (retryable j) then Session.drop_estimator s
    else if not merged then j.union <- Array.sub arr 0 n
  in
  let launch j =
    let e = Option.get j.entry and schedule = j.schedule and attempt = j.attempts in
    let config = session_config j.request ~attempt ~start_delay:j.start in
    let plan =
      match e.lowered with
      | Some (s, plan) when s == schedule -> plan
      | _ ->
          let plan = Plan.of_cluster_schedule machines schedule in
          e.lowered <- Some (schedule, plan);
          plan
    in
    let sid = (attempt * nreq) + j.request.Workload.rid in
    let s =
      Session.launch_reliable ~sid ~seq:j.seq ~who:"Server.run" ~wire ~engine config machines
        plan
    in
    Session.on_complete s (settle j);
    j.session <- Some s
  in
  let emit ev = if Sink.enabled obs then Sink.emit obs ev in
  (* Every admission, wave 0 or retry: a shed is counted on the request
     and published at the decision time. *)
  let admit ?open_frac j ~now =
    let r = j.request in
    let decision =
      Admission.decide ~priority:r.Workload.priority ?open_frac admission ~now
        ~predicted_makespan:j.predicted
    in
    (match decision with
    | Admission.Reject reason when Admission.is_shed reason ->
        j.sheds <- j.sheds + 1;
        emit
          (Event.Shed
             {
               rid = r.Workload.rid;
               priority = Workload.priority_to_string r.Workload.priority;
               reason = Admission.reason_string reason;
               time = now;
             })
    | _ -> ());
    decision
  in
  (* Wave 0, decided up front in arrival order.  Its decisions carry no
     circuit-health signal: nothing has executed yet.  The open-circuit
     fraction gates requeues. *)
  let jobs =
    Array.mapi
      (fun i (r : Workload.request) ->
        let entry = if slot.(i) < 0 then None else Some entries.(slot.(i)) in
        let j =
          {
            request = r;
            entry;
            predicted = (match entry with Some e -> e.predicted | None -> 0.);
            cache = `Unplanned;
            plan_us = 0.;
            decision = Admission.Admit;
            attempts = 0;
            result = None;
            union = [||];
            base = 0;
            joined = 0;
            completion = nan;
            sheds = 0;
            start = r.Workload.at;
            seq = 0;
            schedule = (match entry with Some e -> e.schedule | None -> unplanned);
            session = None;
          }
        in
        (match entry with
        | None -> j.decision <- Admission.Reject (Admission.Bad_policy r.Workload.policy)
        | Some e -> (
            let l0 = Unix.gettimeofday () in
            let _, kind = Plan_cache.lookup cache e.key ~compute:(fun () -> e.schedule) in
            let lookup_us = (Unix.gettimeofday () -. l0) *. 1e6 in
            j.cache <- (kind :> [ `Hit | `Miss | `Invalidated | `Unplanned ]);
            j.plan_us <- (match kind with `Hit -> lookup_us | _ -> e.compute_us +. lookup_us);
            j.decision <- admit j ~now:r.Workload.at;
            if j.decision = Admission.Admit then j.seq <- Engine.reserve engine));
        j)
      requests
  in
  let plan_wall_s = Unix.gettimeofday () -. t0 in
  (* Retry waves.  A request whose delivered-rank {e union} (over every
     attempt so far, never double-counted) still misses base ranks is
     re-enqueued with exponential backoff, re-admitted against the live
     open-circuit fraction, re-planned on the live estimated latency
     matrix when quality drifted past the cache threshold, and relaunched
     as a fresh session ([sid = attempt * nreq + rid]).  Waves run to
     engine quiescence, so a requeue always starts at or after the
     previous wave's horizon.  A wave is decided in the previous wave's
     order, and its sessions launch in start order. *)
  let sessions_finished = ref 0 and sessions_opened = ref 0 in
  (* At the wave's quiescence, where the result's horizon is read. *)
  let absorb j =
    let res = Session.reliable_result (Option.get j.session) in
    j.session <- None;
    j.result <- Some res;
    incr sessions_finished;
    if res.Session.circuit_opens > 0 then incr sessions_opened
  in
  let requeue open_frac j =
    let r = j.request and e = Option.get j.entry and prev = Option.get j.result in
    let attempt = j.attempts in
    let backoff = retry.backoff_us *. Float.pow 2. (float_of_int (attempt - 1)) in
    let retry_at = Float.max (Engine.now engine) (prev.Session.r_makespan +. backoff) in
    match admit ~open_frac j ~now:retry_at with
    | Admission.Reject _ ->
        j.result <- Some { prev with Session.estimator = None };
        false
    | Admission.Admit ->
        let estimator = prev.Session.estimator in
        let compute () =
          let inst = Instance.of_grid ~root:r.Workload.root ~msg:e.key.Plan_cache.bucket grid in
          (* Retries replan on the live view: the estimator's measured
             quality on the coordinator links. *)
          let inst =
            match estimator with
            | Some est -> Instance.rescale machines (Adaptive.quality est) inst
            | None -> inst
          in
          Gridb_sched.Engine.run e.policy inst
        in
        let schedule, _ = Plan_cache.lookup cache ?estimator e.key ~compute in
        emit (Event.Retry { rid = r.Workload.rid; attempt; time = retry_at });
        j.start <- retry_at;
        j.seq <- Engine.reserve engine;
        j.schedule <- schedule;
        true
  in
  (* Launch each session as the engine reaches its start, at the seq
     reserved at its decision: it pops where a start queued then would
     have, ties included, and the heap holds only the work in flight.
     [run_until], unlike [run], never adopts a settled event's watermark,
     which may lie past the next start.  [starts] is [wave] in start
     order; the heap orders equal starts by seq. *)
  let rec drain wave starts =
    List.iter
      (fun j ->
        Engine.run_until engine (Float.pred j.start);
        launch j)
      starts;
    Engine.run engine;
    List.iter absorb wave;
    match List.filter retryable wave with
    | [] -> ()
    | queue ->
        let open_frac = float_of_int !sessions_opened /. float_of_int !sessions_finished in
        let wave = List.filter (requeue open_frac) queue in
        drain wave (List.sort (fun a b -> Float.compare a.start b.start) wave)
  in
  (* Wave 0 is in start order already: arrivals are sorted. *)
  let wave =
    Array.fold_right (fun j wave -> if j.decision = Admission.Admit then j :: wave else wave) jobs []
  in
  drain wave wave;
  (* Fold per-request outcomes: the recorded result is the final attempt's,
     delivery is the union (base ranks across attempts, joins from the
     final attempt), deadlines are judged on the time the union covered
     every base rank.  The report's totals are sums of the two classes. *)
  let mk_sum = ref 0. in
  let slo = Array.make 2 empty_slo in
  let outcomes =
    Array.map
      (fun j ->
        let request = j.request in
        let delivered_union = j.base + j.joined and completion_us = j.completion in
        (* A NaN completion (some base rank never delivered) misses. *)
        let deadline_met =
          match j.result with
          | Some _ when request.Workload.deadline <> infinity ->
              Some (completion_us -. request.Workload.at <= request.Workload.deadline)
          | _ -> None
        in
        (match deadline_met with
        | Some false ->
            let rid = request.Workload.rid and deadline = request.Workload.deadline in
            emit (Event.Deadline_miss { rid; deadline; finish = completion_us })
        | _ -> ());
        let c = match request.Workload.priority with Workload.High -> 0 | Workload.Low -> 1 in
        let s = slo.(c) in
        slo.(c) <-
          (match j.result with
          | Some res ->
              mk_sum := !mk_sum +. (res.Session.r_makespan -. request.Workload.at);
              {
                s with
                c_requests = s.c_requests + 1;
                c_admitted = s.c_admitted + 1;
                c_requeues = s.c_requeues + (j.attempts - 1);
                c_shed = s.c_shed + j.sheds;
                c_delivered = s.c_delivered + delivered_union;
                c_ranks = s.c_ranks + Array.length res.Session.r_arrival;
                c_deadlines = (s.c_deadlines + if deadline_met = None then 0 else 1);
                c_deadline_met = (s.c_deadline_met + if deadline_met = Some true then 1 else 0);
              }
          | None ->
              {
                s with
                c_requests = s.c_requests + 1;
                c_shed = s.c_shed + j.sheds;
                c_rejected = (s.c_rejected + if j.sheds > 0 then 0 else 1);
              });
        {
          request;
          cache = j.cache;
          plan_us = j.plan_us;
          predicted_us = j.predicted;
          decision = j.decision;
          result = j.result;
          attempts = j.attempts;
          delivered_union;
          completion_us;
          deadline_met;
        })
      jobs
  in
  (* Plan latencies are wall-clock readings, so how many comparisons a
     sort makes varies run to run.  Sorting the float array itself boxes
     an element per comparison (and heapsort raises a data-dependent
     number of exceptions); a merge sort of indices into it allocates the
     same words on every run, keeping minor-word counts reproducible. *)
  let latencies =
    let raw = Array.map (fun j -> j.plan_us) jobs in
    let order = Array.init (Array.length raw) Fun.id in
    Array.stable_sort (fun i j -> Float.compare raw.(i) raw.(j)) order;
    Array.map (fun i -> raw.(i)) order
  in
  let high = slo.(0) and low = slo.(1) in
  let admitted = high.c_admitted + low.c_admitted in
  let requeues = high.c_requeues + low.c_requeues in
  let stats = Plan_cache.stats cache in
  let lookups = stats.Plan_cache.hits + stats.Plan_cache.misses in
  {
    outcomes;
    requests = nreq;
    admitted;
    rejected = nreq - admitted;
    invalid = Array.fold_left (fun c i -> if i < 0 then c + 1 else c) 0 slot;
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
    delivered = high.c_delivered + low.c_delivered;
    mean_makespan_us = (if admitted = 0 then 0. else !mk_sum /. float_of_int admitted);
    sheds = high.c_shed + low.c_shed;
    requeues;
    retry_lookups = requeues;
    deadline_misses =
      high.c_deadlines - high.c_deadline_met + low.c_deadlines - low.c_deadline_met;
    slo_high = high;
    slo_low = low;
    chaotic;
  }

let smoke_lines report =
  let lines = ref [] in
  let addf fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  Array.iter
    (fun (o : outcome) ->
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
