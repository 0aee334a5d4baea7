module Machines = Gridb_topology.Machines
module Params = Gridb_plogp.Params
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type transport = Fixed | Adaptive of { config : Adaptive.config; reroute : bool }

type result = {
  arrival : float array;
  makespan : float;
  transmissions : int;
  trace : Trace.transmission list;
}

type reliable = {
  r_arrival : float array;
  r_makespan : float;
  r_transmissions : int;
  retransmissions : int;
  acks : int;
  delivered : int;
  gave_up : (int * int) list;
  crashed : int list;
  left : int list;
  joined : int list;
  horizon : float;
  reroutes : (int * int * int) list;
  circuit_opens : int;
  estimator : Adaptive.t option;
  r_trace : Trace.transmission list;
}

module Config = struct
  type t = {
    noise : Noise.t;
    rng : Gridb_util.Rng.t option;
    start_delay : float;
    msg : int;
    record_trace : bool;
    obs : Sink.t;
    faults : Faults.t option;
    dynamics : Dynamics.t option;
    on_tick : now:float -> Adaptive.t option -> unit;
    tick_every : float;
    retries : int;
    rto_mult : float;
    rto_min : float;
    rto_max : float;
    transport : transport;
  }

  let default =
    {
      noise = Noise.Exact;
      rng = None;
      start_delay = 0.;
      msg = 1_000_000;
      record_trace = false;
      obs = Sink.null;
      faults = None;
      dynamics = None;
      on_tick = (fun ~now:_ _ -> ());
      tick_every = 0.;
      retries = 5;
      rto_mult = 2.;
      rto_min = 1.;
      rto_max = 1e9;
      transport = Fixed;
    }

  let v ?(noise = Noise.Exact) ?rng ?(start_delay = 0.) ?(msg = 1_000_000)
      ?(record_trace = false) ?(obs = Sink.null) ?faults ?dynamics
      ?(on_tick = fun ~now:_ _ -> ()) ?(tick_every = 0.) ?(retries = 5)
      ?(rto_mult = 2.) ?(rto_min = 1.) ?(rto_max = 1e9) ?(transport = Fixed) () =
    {
      noise;
      rng;
      start_delay;
      msg;
      record_trace;
      obs;
      faults;
      dynamics;
      on_tick;
      tick_every;
      retries;
      rto_mult;
      rto_min;
      rto_max;
      transport;
    }

  let validate ~who (c : t) machines plan =
    let n = Machines.count machines in
    if Plan.size plan <> n then invalid_arg (who ^ ": plan size mismatch");
    if c.retries < 0 then invalid_arg (who ^ ": negative retries");
    if c.rto_mult < 1. then invalid_arg (who ^ ": rto_mult < 1");
    if c.rto_min <= 0. then invalid_arg (who ^ ": rto_min must be positive");
    if c.rto_max < c.rto_min then invalid_arg (who ^ ": rto_max < rto_min");
    if c.tick_every < 0. then invalid_arg (who ^ ": negative tick_every");
    (match c.faults with
    | Some f when Faults.size f <> n ->
        invalid_arg (who ^ ": fault model size mismatch")
    | _ -> ());
    match c.dynamics with
    | Some d when Dynamics.size d <> n ->
        invalid_arg (who ^ ": dynamics model size mismatch")
    | _ -> ()
end

(* The legacy [record_trace] path is a Memory-sink view over the same event
   stream: the session emits [Send_start]/[Send_end] pairs to an internal
   Memory sink and the [trace] field is rebuilt from it.  Reversing the
   chronological stream before the (stable) arrival sort reproduces the
   historical reverse-prepend order bit for bit, equal arrivals included. *)
let trace_of_mem mem =
  Trace.of_events (Sink.events mem)
  |> List.rev
  |> List.sort (fun (a : Trace.transmission) b -> Float.compare a.arrival b.arrival)

module Edges = Hashtbl.Make (Int)

let intra machines src dst =
  (Machines.machine machines src).Machines.cluster
  = (Machines.machine machines dst).Machines.cluster

(* One session's emissions, optionally wrapped in [Event.Tagged] so
   multi-session streams can be attributed per request.  The Memory sink
   backing the legacy [record_trace] path receives the same (tagged)
   stream; {!Trace.of_events} untags. *)
let emitter ~sid ~mem ~obs =
  let wrap =
    match sid with None -> Fun.id | Some s -> fun e -> Event.tag ~sid:s e
  in
  let tracing = Sink.enabled mem || Sink.enabled obs in
  let emit e =
    let e = wrap e in
    if Sink.enabled mem then Sink.emit mem e;
    if Sink.enabled obs then Sink.emit obs e
  in
  (tracing, emit)

type t = {
  s_arrival : float array;
  s_transmissions : int ref;
  s_record_trace : bool;
  s_mem : Sink.t;
  s_engine : Engine.t;
}

let launch ?sid ?(who = "Session.launch") ~wire ~engine (config : Config.t)
    machines plan =
  let n = Machines.count machines in
  if Plan.size plan <> n then invalid_arg (who ^ ": plan size mismatch");
  if Wire.size wire < n then invalid_arg (who ^ ": wire smaller than machine view");
  let { Config.noise; rng; start_delay; msg; record_trace; obs; _ } = config in
  let rng = match rng with Some r -> r | None -> Gridb_util.Rng.create 0 in
  let arrival = Array.make n nan in
  let transmissions = ref 0 in
  let mem = if record_trace then Sink.memory () else Sink.null in
  let tracing, emit = emitter ~sid ~mem ~obs in
  (* On delivery, a rank enqueues its forwarding list: each send seizes the
     NIC for one (noisy) gap; the child receives a (noisy) latency after the
     send starts injecting. *)
  let rec deliver ~src rank engine =
    let time = Engine.now engine in
    arrival.(rank) <- time;
    Wire.touch wire rank ~now:time;
    if tracing then emit (Event.Arrival { src; dst = rank; time });
    List.iter
      (fun child ->
        let p = Machines.link_params machines rank child in
        let g = Noise.apply noise rng (Params.gap p msg) in
        let l = Noise.apply noise rng (Params.latency p) in
        let start = Wire.seize wire rank ~gap:g in
        incr transmissions;
        if tracing then begin
          emit
            (Event.Send_start
               {
                 src = rank;
                 dst = child;
                 time = start;
                 msg;
                 intra = intra machines rank child;
                 try_no = 0;
               });
          emit
            (Event.Send_end
               { src = rank; dst = child; time = start +. g; arrival = start +. g +. l })
        end;
        Engine.schedule engine ~time:(start +. g +. l) (deliver ~src:rank child))
      plan.Plan.children.(rank)
  in
  Engine.schedule engine ~time:start_delay (deliver ~src:plan.Plan.root plan.Plan.root);
  {
    s_arrival = arrival;
    s_transmissions = transmissions;
    s_record_trace = record_trace;
    s_mem = mem;
    s_engine = engine;
  }

let result (s : t) =
  let makespan = Array.fold_left Float.max 0. s.s_arrival in
  let trace = if s.s_record_trace then trace_of_mem s.s_mem else [] in
  {
    arrival = s.s_arrival;
    makespan;
    transmissions = !(s.s_transmissions);
    trace;
  }

type reliable_t = {
  r_n : int;
  r_arr : float array;
  r_has_msg : bool array;
  r_tx : int ref;
  r_rtx : int ref;
  r_acks : int ref;
  r_gave_up : (int * int) list ref;
  r_reroute_log : (int * int * int) list ref;
  r_circuit_opens : int ref;
  r_est : Adaptive.t option;
  r_faults : Faults.t option;
  r_dynamics : Dynamics.t option;
  r_joins : Dynamics.join array;
  r_record_trace : bool;
  r_mem : Sink.t;
  r_engine : Engine.t;
}

(* ACK/timeout/exponential-backoff reliable broadcast along a plan.

   Data transmissions follow exactly the pLogP semantics of [launch] (same
   arithmetic, same rng draw order), so with an empty fault spec the two
   session kinds are bit-identical.  On top of that, every plan edge runs a
   stop-and-wait reliability protocol: the receiver returns an ACK on the
   control plane (latency only, no NIC seizure), the sender arms a
   cancellable retransmission timer at [rto] past the end of its injection,
   and every timeout doubles [rto] (capped at [rto_max]) and retransmits
   until [retries] is exhausted.

   [Fixed] transport then abandons the edge (and the subtree hanging off
   it) — graceful degradation to partial delivery.  [Adaptive] transport
   additionally feeds every clean round trip and every timeout into an
   {!Adaptive.t} estimator: the RTO comes from SRTT/RTTVAR instead of the
   static model, and per-link circuit breakers publish
   [Circuit_open]/[Circuit_close].  With [reroute] on, an edge whose
   breaker opens or whose retry budget dies re-parents the orphaned child
   onto an already-delivered alive rank — picked by the ECEF arrival score
   over live-estimated link parameters — so delivery is total unless the
   destination is crashed or physically partitioned.

   The estimator is pure float bookkeeping on times the session already
   has: it draws no randomness and never touches the data-path arithmetic,
   and with no faults every retransmission timer is cancelled by its ACK
   before firing — which is why the zero-fault adaptive run stays
   bit-identical to [launch] too. *)
let launch_reliable ?sid ?(who = "Session.launch_reliable") ~wire ~engine
    (config : Config.t) machines plan =
  Config.validate ~who config machines plan;
  let {
    Config.noise;
    rng;
    start_delay;
    msg;
    record_trace;
    obs;
    faults;
    dynamics;
    on_tick;
    tick_every;
    retries;
    rto_mult;
    rto_min;
    rto_max;
    transport;
  } =
    config
  in
  let n = Machines.count machines in
  (* Joins extend the rank space above the planning-time population: every
     per-rank array is sized [ntot], and ranks >= n exist from time 0 as
     far as the arrays are concerned but only become reachable once their
     join event fires (the adoption below). *)
  let joins = match dynamics with Some d -> Dynamics.joins d | None -> [||] in
  let ntot = n + Array.length joins in
  if Wire.size wire < ntot then
    invalid_arg (who ^ ": wire smaller than machine view (joins included)");
  let grid = Machines.grid machines in
  let cluster_of r =
    if r < n then (Machines.machine machines r).Machines.cluster
    else joins.(r - n).Dynamics.cluster
  in
  (* Link parameters generalised to join ranks: a joining machine gets
     fresh links with its cluster's nominal intra parameters, and the
     nominal inter-cluster parameters towards everyone else. *)
  let params_for src dst =
    if src < n && dst < n then Machines.link_params machines src dst
    else
      let cs = cluster_of src and cd = cluster_of dst in
      if cs = cd then (Gridb_topology.Grid.cluster grid cs).Gridb_topology.Cluster.intra
      else Gridb_topology.Grid.link grid cs cd
  in
  (* A rank halts at its fault-model crash or its dynamics departure,
     whichever comes first; join ranks never halt. *)
  let halt r =
    let crash =
      match faults with Some f when r < n -> Faults.crash_time f r | _ -> infinity
    in
    match dynamics with
    | None -> crash
    | Some d -> Float.min crash (Dynamics.leave_time d r)
  in
  (* Fault processes are drawn over the planning-time population only; a
     join's fresh links are loss-free, cut-free and undegraded (and
     {!Dynamics.factor} is exactly 1. on them too). *)
  let fresh_link src dst = src >= n || dst >= n in
  let lose_on src dst =
    match faults with
    | Some f when not (fresh_link src dst) -> Faults.lose f ~src ~dst
    | _ -> false
  in
  let link_up src dst ~at =
    match faults with
    | Some f when not (fresh_link src dst) -> Faults.link_up f ~src ~dst ~at
    | _ -> true
  in
  let slowdown src dst ~at =
    let f =
      match faults with
      | Some f when not (fresh_link src dst) -> Faults.slowdown f ~src ~dst ~at
      | _ -> 1.
    in
    match dynamics with None -> f | Some d -> f *. Dynamics.factor d ~src ~dst ~at
  in
  let rng = match rng with Some r -> r | None -> Gridb_util.Rng.create 0 in
  let arrival = Array.make ntot nan in
  let has_msg = Array.make ntot false in
  let transmissions = ref 0 in
  let retransmissions = ref 0 in
  let acks = ref 0 in
  let gave_up = ref [] in
  let mem = if record_trace then Sink.memory () else Sink.null in
  let tracing, emit = emitter ~sid ~mem ~obs in
  let est, reroute =
    match transport with
    | Fixed -> (None, false)
    | Adaptive { config; reroute } -> (Some (Adaptive.create ~config ~n:ntot ()), reroute)
  in
  let max_reroutes =
    match est with
    | None -> 0
    | Some est ->
        let m = (Adaptive.config est).Adaptive.max_reroutes in
        if m = 0 then 2 * ntot else m
  in
  (* Per-edge protocol state, indexed by the child (each non-root rank has a
     unique parent in the plan; under reroute the parent can change, but a
     child still has at most one live edge at a time). *)
  let acked = Array.make ntot false in
  let timers = Array.make ntot None in
  let cur_parent = Array.make ntot (-1) in
  let cur_try = Array.make ntot 0 in
  let last_start = Array.make ntot nan in
  let reroutes_used = Array.make ntot 0 in
  (* Reroute edges that already failed an orphan, keyed dst * ntot +
     parent: only orphans touch it, so a session that never reroutes never
     builds it. *)
  let failed = lazy (Edges.create 16) in
  (* Orphans with no delivered alive candidate yet, retried on the next
     delivery: (dst, parent that last failed it). *)
  let pending = ref [] in
  let reroute_log = ref [] in
  let circuit_opens = ref 0 in
  (* Noiseless round trip: data gap + data latency + ACK latency.  The RTO
     inflates it by rto_mult and floors it at rto_min; the estimator's
     nominal (the quality denominator SRTT converges to) must stay raw. *)
  let model_round_trip src dst =
    let p = params_for src dst in
    let pb = params_for dst src in
    Params.gap p msg +. Params.latency p +. Params.latency pb
  in
  let model_rto src dst = Float.max rto_min (rto_mult *. model_round_trip src dst) in
  let initial_rto src dst =
    let fallback = model_rto src dst in
    match est with
    | None -> fallback
    | Some est ->
        Adaptive.rto est ~src ~dst ~nominal:(model_round_trip src dst) ~fallback
  in
  let backoff rto = Float.min rto_max (2. *. rto) in
  (* Best already-delivered alive parent for an orphan, by the ECEF arrival
     score over live-estimated link quality; candidates whose circuit to
     [dst] is open (or that already failed this orphan) only as a last
     resort. *)
  let pick_parent ~dst ~now =
    match est with
    | None -> None
    | Some est ->
        let failed = Lazy.force failed in
        let best = ref None in
        for p = 0 to ntot - 1 do
          (* Liveness must be judged at the moment the parent could actually
             start sending — max(now, nic_free) — not at [now]: a backlogged
             parent that crashes before its NIC frees would fail the attempt
             at start, re-orphan the child synchronously, and the cycle
             would churn the whole reroute budget in one instant.  Judged at
             the send horizon, doomed parents are no candidates at all and
             the orphan parks until a later delivery provides a live one. *)
          if p <> dst && has_msg.(p) && halt p > Float.max now (Wire.free_at wire p)
          then begin
            (* Pure breaker read: scoring must not half-open circuits of
               candidates no probe will cross; the winner's transition is
               applied in [try_reroute]. *)
            let tier =
              if Edges.mem failed ((dst * ntot) + p) then 2
              else if Adaptive.usable_now est ~src:p ~dst ~now then 0
              else 1
            in
            let ep = Adaptive.estimated_params est ~src:p ~dst (params_for p dst) in
            let score =
              Gridb_sched.Policy.arrival_score
                ~avail:(Float.max now (Wire.free_at wire p))
                ~gap:(Params.gap ep msg) ~latency:(Params.latency ep)
            in
            match !best with
            | Some (bt, bs, _) when bt < tier || (bt = tier && bs <= score) -> ()
            | _ -> best := Some (tier, score, p)
          end
        done;
        Option.map (fun ((_ : int), (_ : float), p) -> p) !best
  in
  (* Join arrivals and estimator-snapshot ticks are processed
     opportunistically from the protocol handlers instead of being
     scheduled as engine events: the estimator's state only changes at
     those handlers anyway, and pre-scheduled ticks would keep the engine
     alive long past quiescence.  A join (or tick) later than the last
     protocol event is outside the simulated horizon and never happened. *)
  let next_join = ref 0 in
  let next_tick = ref (if tick_every > 0. then start_delay +. tick_every else infinity) in
  let dyn_on = Array.length joins > 0 || tick_every > 0. in
  let rec dyn_tick engine =
    let now = Engine.now engine in
    (if reroute then
       while !next_join < Array.length joins && joins.(!next_join).Dynamics.at <= now do
         let j = joins.(!next_join) in
         incr next_join;
         (* The new rank announces itself to its cluster's coordinator and
            is adopted through the ordinary reroute machinery — parked
            until a delivered alive parent exists. *)
         if not has_msg.(j.Dynamics.rank) then
           try_reroute
             ~old_parent:(Machines.coordinator machines j.Dynamics.cluster)
             ~dst:j.Dynamics.rank engine
       done);
    if now >= !next_tick then begin
      while !next_tick <= now do
        next_tick := !next_tick +. tick_every
      done;
      on_tick ~now est
    end
  and attempt ~src ~dst ~try_no ~rto engine =
    let now = Engine.now engine in
    let start = Float.max now (Wire.free_at wire src) in
    (* A halted sender transmits nothing more; its pending edges die here
       (under reroute the child becomes an orphan instead). *)
    if halt src > start then begin
      cur_parent.(dst) <- src;
      cur_try.(dst) <- try_no;
      last_start.(dst) <- start;
      let p = params_for src dst in
      let d = slowdown src dst ~at:start in
      let g = Noise.apply noise rng (Params.gap p msg) *. d in
      let l = Noise.apply noise rng (Params.latency p) *. d in
      Wire.occupy wire src ~start ~gap:g;
      incr transmissions;
      if try_no > 0 then incr retransmissions;
      let arr = start +. g +. l in
      if tracing then begin
        emit
          (Event.Send_start
             {
               src;
               dst;
               time = start;
               msg;
               intra = cluster_of src = cluster_of dst;
               try_no;
             });
        emit (Event.Send_end { src; dst; time = start +. g; arrival = arr })
      end;
      let lost =
        lose_on src dst || (not (link_up src dst ~at:start)) || halt dst <= arr
      in
      if not lost then Engine.schedule engine ~time:arr (data_arrives ~src ~dst);
      let tm =
        Engine.schedule_timer engine ~time:(start +. g +. rto)
          (timeout ~src ~dst ~try_no ~rto)
      in
      timers.(dst) <- Some tm
    end
    else if reroute then orphaned ~old_parent:src ~dst engine
  and data_arrives ~src ~dst engine =
    if dyn_on then dyn_tick engine;
    let now = Engine.now engine in
    if not has_msg.(dst) then begin
      has_msg.(dst) <- true;
      arrival.(dst) <- now;
      Wire.touch wire dst ~now;
      if tracing then emit (Event.Arrival { src; dst; time = now });
      forward dst engine;
      if reroute then drain_pending engine
    end;
    (* ACK on the control plane: pays the reverse latency (degraded if the
       reverse link is) but does not seize the receiver's NIC, so the ACK
       never perturbs data timing.  Duplicated deliveries are re-ACKed so a
       sender that lost an ACK eventually stops retransmitting. *)
    let pb = params_for dst src in
    let l_back = Noise.apply noise rng (Params.latency pb) *. slowdown dst src ~at:now in
    let ack_at = now +. l_back in
    let ack_lost =
      lose_on dst src || (not (link_up dst src ~at:now)) || halt src <= ack_at
    in
    if not ack_lost then
      Engine.schedule engine ~time:ack_at (ack_arrives ~parent:src ~child:dst)
  and ack_arrives ~parent ~child engine =
    if dyn_on then dyn_tick engine;
    incr acks;
    let now = Engine.now engine in
    if tracing then emit (Event.Ack { src = child; dst = parent; time = now });
    (* RTT sample for the estimator — only for the edge currently armed
       (a stale ACK from a pre-reroute parent must not be attributed to the
       new link), and per Karn's rule flagged ambiguous when the edge has
       retransmitted. *)
    (match est with
    | Some est
      when parent = cur_parent.(child)
           && (not acked.(child))
           (* Under contention a retransmission can be armed for a queued
              future NIC slot; an ACK of an earlier try then lands before
              [last_start] — ambiguous per Karn, so no sample. *)
           && now >= last_start.(child) ->
        let rtt = now -. last_start.(child) in
        (match
           Adaptive.on_sample est ~src:parent ~dst:child ~rtt
             ~retransmitted:(cur_try.(child) > 0) ~now
         with
        | `No_change -> ()
        | `Opened ->
            incr circuit_opens;
            if tracing then emit (Event.Circuit_open { src = parent; dst = child; time = now })
        | `Closed ->
            if tracing then emit (Event.Circuit_close { src = parent; dst = child; time = now }))
    | _ -> ());
    if not acked.(child) then begin
      acked.(child) <- true;
      match timers.(child) with
      | Some tm ->
          Engine.cancel engine tm;
          timers.(child) <- None
      | None -> ()
    end
  and timeout ~src ~dst ~try_no ~rto engine =
    if dyn_on then dyn_tick engine;
    timers.(dst) <- None;
    if not acked.(dst) then begin
      let now = Engine.now engine in
      if halt src <= now then begin
        if reroute then orphaned ~old_parent:src ~dst engine
      end
      else begin
        let opened =
          match est with
          | None -> false
          | Some est ->
              let o = Adaptive.on_timeout est ~src ~dst ~now in
              if o then begin
                incr circuit_opens;
                if tracing then emit (Event.Circuit_open { src; dst; time = now })
              end;
              o
        in
        if reroute && (opened || try_no >= retries) then
          orphaned ~old_parent:src ~dst engine
        else if try_no >= retries then begin
          gave_up := (src, dst) :: !gave_up;
          if tracing then emit (Event.Give_up { src; dst; time = now })
        end
        else begin
          let rto' = backoff rto in
          if tracing then
            emit
              (Event.Retransmit { src; dst; time = now; try_no = try_no + 1; rto = rto' });
          attempt ~src ~dst ~try_no:(try_no + 1) ~rto:rto' engine
        end
      end
    end
  and orphaned ~old_parent ~dst engine =
    (* A duplicate delivery may already have landed; then there is nothing
       to reroute (the timer is gone either way). *)
    if not has_msg.(dst) then begin
      Edges.replace (Lazy.force failed) ((dst * ntot) + old_parent) ();
      try_reroute ~old_parent ~dst engine
    end
  and try_reroute ~old_parent ~dst engine =
    let now = Engine.now engine in
    let lost =
      (* A halted destination can never deliver (burning the reroute budget
         on it would only inflate the sweep); past the budget the orphan is
         abandoned for good. *)
      halt dst <= now || reroutes_used.(dst) >= max_reroutes
    in
    if lost then begin
      gave_up := (old_parent, dst) :: !gave_up;
      if tracing then emit (Event.Give_up { src = old_parent; dst; time = now });
      (* The subtree planned under a permanently lost child is stranded
         with it — its members never saw an attempt, so re-parent each of
         them onto the delivered set too.  (Join ranks have no planned
         subtree: the plan predates them.) *)
      if dst < n then
        List.iter
          (fun gc -> orphaned ~old_parent:dst ~dst:gc engine)
          plan.Plan.children.(dst)
    end
    else
      match pick_parent ~dst ~now with
      | Some p ->
          (* Only the chosen parent is actually probed, so only its breaker
             takes the cooldown-expiry transition (Open -> Half_open). *)
          (match est with
          | Some est -> ignore (Adaptive.usable est ~src:p ~dst ~now : bool)
          | None -> ());
          reroutes_used.(dst) <- reroutes_used.(dst) + 1;
          reroute_log := (dst, old_parent, p) :: !reroute_log;
          if tracing then
            emit (Event.Reroute { dst; old_parent; new_parent = p; time = now });
          attempt ~src:p ~dst ~try_no:0 ~rto:(initial_rto p dst) engine
      | None ->
          if not (List.exists (fun (d, _) -> d = dst) !pending) then
            pending := (dst, old_parent) :: !pending
  and drain_pending engine =
    match !pending with
    | [] -> ()
    | parked ->
        pending := [];
        List.iter
          (fun (dst, old_parent) ->
            if not has_msg.(dst) then try_reroute ~old_parent ~dst engine)
          (List.rev parked)
  and forward rank engine =
    (* A delivered join rank forwards nothing: the plan predates it. *)
    if rank < n then
      List.iter
        (fun child ->
          attempt ~src:rank ~dst:child ~try_no:0 ~rto:(initial_rto rank child) engine)
        plan.Plan.children.(rank)
  in
  Engine.schedule engine ~time:start_delay (fun engine ->
      let now = Engine.now engine in
      if halt plan.Plan.root > now then begin
        has_msg.(plan.Plan.root) <- true;
        arrival.(plan.Plan.root) <- now;
        Wire.touch wire plan.Plan.root ~now;
        if tracing then
          emit (Event.Arrival { src = plan.Plan.root; dst = plan.Plan.root; time = now });
        forward plan.Plan.root engine
      end);
  {
    r_n = n;
    r_arr = arrival;
    r_has_msg = has_msg;
    r_tx = transmissions;
    r_rtx = retransmissions;
    r_acks = acks;
    r_gave_up = gave_up;
    r_reroute_log = reroute_log;
    r_circuit_opens = circuit_opens;
    r_est = est;
    r_faults = faults;
    r_dynamics = dynamics;
    r_joins = joins;
    r_record_trace = record_trace;
    r_mem = mem;
    r_engine = engine;
  }

let reliable_result (s : reliable_t) =
  let makespan =
    Array.fold_left
      (fun acc t -> if Float.is_nan t then acc else Float.max acc t)
      0. s.r_arr
  in
  let horizon = Engine.now s.r_engine in
  let n = s.r_n in
  let crashed =
    match s.r_faults with
    | None -> []
    | Some f -> List.filter (fun r -> Faults.crash_time f r <= horizon) (List.init n Fun.id)
  in
  let left =
    match s.r_dynamics with
    | None -> []
    | Some d ->
        List.filter (fun r -> Dynamics.leave_time d r <= horizon) (List.init n Fun.id)
  in
  let joined =
    Array.to_list s.r_joins
    |> List.filter_map (fun j ->
           if j.Dynamics.at <= horizon then Some j.Dynamics.rank else None)
  in
  let delivered =
    Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 s.r_has_msg
  in
  let trace = if s.r_record_trace then trace_of_mem s.r_mem else [] in
  {
    r_arrival = s.r_arr;
    r_makespan = makespan;
    r_transmissions = !(s.r_tx);
    retransmissions = !(s.r_rtx);
    acks = !(s.r_acks);
    delivered;
    gave_up = List.rev !(s.r_gave_up);
    crashed;
    left;
    joined;
    horizon;
    reroutes = List.rev !(s.r_reroute_log);
    circuit_opens = !(s.r_circuit_opens);
    estimator = s.r_est;
    r_trace = trace;
  }

let population (config : Config.t) machines =
  let n = Machines.count machines in
  match config.Config.dynamics with
  | None -> n
  | Some d -> n + Array.length (Dynamics.joins d)
