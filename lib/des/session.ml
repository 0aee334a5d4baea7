module Machines = Gridb_topology.Machines
module Params = Gridb_plogp.Params
module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type transport = Fixed | Adaptive of { config : Adaptive.config; reroute : bool }

let adaptive ?(config = Adaptive.default) ?(reroute = false) () =
  Adaptive { config; reroute }

let transport_of_string str =
  match String.lowercase_ascii (String.trim str) with
  | "fixed" -> Ok Fixed
  | "adaptive" -> Ok (adaptive ())
  | "adaptive,reroute" | "adaptive+reroute" -> Ok (adaptive ~reroute:true ())
  | other ->
      Error
        (Printf.sprintf "unknown transport %S (known: fixed, adaptive, adaptive,reroute)"
           other)

let transport_to_string = function
  | Fixed -> "fixed"
  | Adaptive { reroute = false; _ } -> "adaptive"
  | Adaptive { reroute = true; _ } -> "adaptive,reroute"

type result = { arrival : float array; makespan : float; transmissions : int }

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
}

module Config = struct
  type t = {
    noise : Noise.t;
    rng : Gridb_util.Rng.t option;
    start_delay : float;
    msg : int;
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
      ?(obs = Sink.null) ?faults ?dynamics
      ?(on_tick = fun ~now:_ _ -> ()) ?(tick_every = 0.) ?(retries = 5)
      ?(rto_mult = 2.) ?(rto_min = 1.) ?(rto_max = 1e9) ?(transport = Fixed) () =
    {
      noise;
      rng;
      start_delay;
      msg;
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

  let reject_nan ~who name x =
    if Float.is_nan x then invalid_arg (who ^ ": " ^ name ^ " is NaN")

  let validate ~who (c : t) machines plan =
    let n = Machines.count machines in
    if Plan.size plan <> n then invalid_arg (who ^ ": plan size mismatch");
    if c.retries < 0 then invalid_arg (who ^ ": negative retries");
    (* NaN fails every ordered comparison below, so it is rejected first. *)
    reject_nan ~who "rto_mult" c.rto_mult;
    reject_nan ~who "rto_min" c.rto_min;
    reject_nan ~who "rto_max" c.rto_max;
    reject_nan ~who "tick_every" c.tick_every;
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

module Edges = Hashtbl.Make (Int)

(* [Noise.apply] without the draw-free multiply by 1. of [Exact]. *)
let[@inline] noisy noise rng x =
  match noise with Noise.Exact -> x | _ -> Noise.apply noise rng x

(* One session's emissions, optionally wrapped in [Event.Tagged] so
   multi-session streams can be attributed per request. *)
let emitter ~sid ~obs =
  let wrap =
    match sid with None -> Fun.id | Some s -> fun e -> Event.tag ~sid:s e
  in
  (Sink.enabled obs, fun e -> Sink.emit obs (wrap e))

type t = { s_arrival : float array; s_transmissions : int ref }

(* A gap the DES cannot replay; callers test [gap >= 0. && gap < infinity]
   themselves, so only this path boxes it. *)
let[@inline never] bad_gap ~who ~src ~dst ~msg gap =
  invalid_arg
    (Printf.sprintf "%s: link %d -> %d: gap at message size %d bytes is %g us, not finite and >= 0"
       who src dst msg gap)

let launch ?sid ?(who = "Session.launch") ?(segments = 1) ~wire ~engine
    (config : Config.t) machines plan =
  let n = Machines.count machines in
  if Plan.size plan <> n then invalid_arg (who ^ ": plan size mismatch");
  if Wire.size wire < n then invalid_arg (who ^ ": wire smaller than machine view");
  if segments < 1 then invalid_arg (who ^ ": segments < 1");
  let { Config.noise; rng; start_delay; msg; obs; _ } = config in
  let rng = match rng with Some r -> r | None -> Gridb_util.Rng.create 0 in
  let seg = Gridb_collectives.Pipeline.segment_size ~msg ~segments in
  let segments = Gridb_collectives.Pipeline.segment_count ~msg ~segments in
  let arrival = Array.make n nan in
  let transmissions = ref 0 in
  let tracing, emit = emitter ~sid ~obs in
  let cluster = Machines.clusters machines in
  let root = plan.Plan.root in
  (* [next.(r)] is the next segment rank [r] forwards, and [held] marks the
     segments that landed ahead of it (noise can reorder two segments on
     one link). *)
  let next = Array.make n 0 and held = Bytes.make (n * segments) '\000' in
  (* On delivery of segment [k], a rank enqueues its forwarding list for
     [k]: each send seizes the NIC for one (noisy) gap; the child receives a
     (noisy) latency after the send starts injecting.  A delivery's payload
     is [(k * n + src) * n + rank]; the root holds every segment at once. *)
  let rec deliver engine payload =
    let rank = payload mod n and sk = payload / n in
    let src = sk mod n and k = sk / n in
    let time = Engine.now engine in
    arrival.(rank) <- time;
    if tracing then emit (Event.Arrival { src; dst = rank; time });
    if rank = root then
      for k = 0 to segments - 1 do
        send rank k plan.Plan.children.(rank) engine
      done
    else if k = next.(rank) then forward rank k engine
    else Bytes.set held ((rank * segments) + k) '\001'
  and forward rank k engine =
    send rank k plan.Plan.children.(rank) engine;
    let k = k + 1 in
    next.(rank) <- k;
    if k < segments && Bytes.get held ((rank * segments) + k) = '\001' then
      forward rank k engine
  and send rank k children engine =
    match children with
    | [] -> ()
    | child :: rest ->
        let p = Machines.link_params machines rank child in
        let gap = Params.gap p seg in
        if not (gap >= 0. && gap < infinity) then
          bad_gap ~who ~src:rank ~dst:child ~msg:seg gap;
        let g = noisy noise rng gap in
        let l = noisy noise rng (Params.latency p) in
        let now = Engine.now engine and free = Wire.free_at wire rank in
        let start = if free > now then free else now in
        Wire.occupy wire rank ~start ~gap:g;
        incr transmissions;
        if tracing then begin
          emit
            (Event.Send_start
               {
                 src = rank;
                 dst = child;
                 time = start;
                 msg = seg;
                 intra = cluster.(rank) = cluster.(child);
                 try_no = 0;
               });
          emit
            (Event.Send_end
               { src = rank; dst = child; time = start +. g; arrival = start +. g +. l })
        end;
        Engine.schedule_with engine ~time:(start +. g +. l) deliver
          ((((k * n) + rank) * n) + child);
        send rank k rest engine
  in
  Engine.schedule_with engine ~time:start_delay deliver ((root * n) + root);
  { s_arrival = arrival; s_transmissions = transmissions }

let result (s : t) =
  let makespan = Array.fold_left Float.max 0. s.s_arrival in
  { arrival = s.s_arrival; makespan; transmissions = !(s.s_transmissions) }

type reliable_t = {
  r_n : int;
  r_arr : float array;
  r_tx : int ref;
  r_rtx : int ref;
  r_acks : int ref;
  r_gave_up : (int * int) list ref;
  r_reroute_log : (int * int * int) list ref;
  r_circuit_opens : int ref;
  r_est : Adaptive.t option;
  (* Crash and departure time per planned rank, empty without a fault or
     dynamics model: the models' per-link streams need not outlive the run. *)
  r_crash : float array;
  r_leave : float array;
  r_joins : Dynamics.join array;
  r_engine : Engine.t;
}

(* The fault-free ACK of the edge into [dst], landing at [cell.(0)]:
   counted, and the edge acknowledged with no timer, without an engine
   event.  Top-level, so a session allocates no closure for it. *)
let settle_ack ~acks ~acked ~seqs engine cell dst =
  incr acks;
  acked.(dst) <- true;
  seqs.(dst) <- -1;
  Engine.unqueued_event engine cell

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
   bit-identical to [launch] too.

   [start] is the session's start event: it builds the per-rank protocol
   arrays and the handlers, then lets the root forward.  [launch_reliable]
   allocates only the result state, so a session queued behind a long
   backlog of others holds no protocol state until it starts. *)
let start ~sid ~who ~wire (s : reliable_t) (config : Config.t) machines plan engine =
  let {
    Config.noise;
    rng;
    start_delay;
    msg;
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
  let n = s.r_n and joins = s.r_joins in
  let ntot = n + Array.length joins in
  let grid = Machines.grid machines in
  let cluster =
    if ntot = n then Machines.clusters machines
    else Array.append (Machines.clusters machines) (Array.map (fun j -> j.Dynamics.cluster) joins)
  in
  (* Link parameters generalised to join ranks: a joining machine gets
     fresh links with its cluster's nominal intra parameters, and the
     nominal inter-cluster parameters towards everyone else. *)
  let params_for src dst =
    if src < n && dst < n then Machines.link_params machines src dst
    else
      let cs = cluster.(src) and cd = cluster.(dst) in
      if cs = cd then (Gridb_topology.Grid.cluster grid cs).Gridb_topology.Cluster.intra
      else Gridb_topology.Grid.link grid cs cd
  in
  (* Gap and latency by cluster pair, [links.(k)] and [links.(k + 1)] for
     [k = link src dst], filled on first use: a send reads unboxed floats
     instead of interpolating the gap table and boxing the result.  The
     table is direct-mapped on [cs * nc + cd] with at most [ntot] entries,
     so it holds every pair, with no [mod], when there are few clusters and
     stays linear in ranks, not quadratic in clusters, when there are
     many.  A read must come before the next [link] call, which may evict
     its entry. *)
  let nc = Gridb_topology.Grid.size grid in
  let direct = nc * nc <= ntot in
  let entries = if direct then nc * nc else ntot in
  let pairs = Array.make entries (-1) and links = Array.make (2 * entries) nan in
  let link src dst =
    let pair = (cluster.(src) * nc) + cluster.(dst) in
    let e = if direct then pair else pair mod entries in
    if pairs.(e) <> pair then begin
      let p = params_for src dst in
      let gap = Params.gap p msg in
      if not (gap >= 0. && gap < infinity) then bad_gap ~who ~src ~dst ~msg gap;
      links.(2 * e) <- gap;
      links.((2 * e) + 1) <- Params.latency p;
      pairs.(e) <- pair
    end;
    2 * e
  in
  (* A rank halts at its fault-model crash or its dynamics departure,
     whichever comes first; join ranks never crash. *)
  let halt_at = Array.make ntot infinity in
  Array.blit s.r_crash 0 halt_at 0 (Array.length s.r_crash);
  for r = 0 to Array.length s.r_leave - 1 do
    let leave = s.r_leave.(r) in
    if leave < halt_at.(r) then halt_at.(r) <- leave
  done;
  (* Fault processes are drawn over the planning-time population only; a
     join's fresh links are loss-free, cut-free and undegraded (and
     {!Dynamics.factor} is exactly 1. on them too). *)
  let fresh_link src dst = src >= n || dst >= n in
  (* Whether a message on [src -> dst] injected at [at] is lost to the
     fault model: a loss draw, then a cut.  Called only under a fault
     model, so a fault-free send boxes no [at]. *)
  let lossy = faults <> None in
  let faulty src dst ~at =
    match faults with
    | Some f when not (fresh_link src dst) ->
        Faults.lose f ~src ~dst || not (Faults.link_up f ~src ~dst ~at)
    | _ -> false
  in
  let slows = faults <> None || dynamics <> None in
  let slowdown src dst ~at =
    let f =
      match faults with
      | Some f when not (fresh_link src dst) -> Faults.slowdown f ~src ~dst ~at
      | _ -> 1.
    in
    match dynamics with None -> f | Some d -> f *. Dynamics.factor d ~src ~dst ~at
  in
  let rng = match rng with Some r -> r | None -> Gridb_util.Rng.create 0 in
  let arrival = s.r_arr in
  (* Arrival times are never NaN, so a rank holds the message iff its
     arrival is stamped. *)
  let has_msg r = not (Float.is_nan arrival.(r)) in
  let transmissions = s.r_tx and retransmissions = s.r_rtx and acks = s.r_acks in
  let gave_up = s.r_gave_up in
  let tracing, emit = emitter ~sid ~obs in
  let est = s.r_est in
  let reroute = match transport with Fixed -> false | Adaptive a -> a.reroute in
  let max_reroutes =
    match est with
    | None -> 0
    | Some est ->
        let m = (Adaptive.config est).Adaptive.max_reroutes in
        if m = 0 then 2 * ntot else m
  in
  (* Per-edge protocol state, indexed by the child (each non-root rank has a
     unique parent in the plan; under reroute the parent can change, but a
     child still has at most one live edge, and so one live timer, at a
     time: [timeout] checks it). *)
  let acked = Array.make ntot false in
  (* A try's timer starts unqueued at [deadlines.(dst)], holding the
     insertion seq [seqs.(dst)] ([-1] once queued, cancelled or fired), and
     is queued at that (deadline, seq) once an ACK cannot cancel it first
     ([arm]): so it pops where a timer queued at the send would, and one
     its ACK cancels first is never queued. *)
  let timers = Array.make ntot Engine.no_timer in
  let deadlines = Array.make ntot nan and seqs = Array.make ntot (-1) in
  let cur_parent = Array.make ntot (-1) in
  let cur_try = Array.make ntot 0 in
  let cur_rto = Array.make ntot nan in
  (* Read only by the estimator and by reroutes: empty without them. *)
  let sampled = est <> None in
  let last_start = Array.make (if sampled then ntot else 0) nan in
  let reroutes_used = Array.make (if reroute then ntot else 0) 0 in
  (* The RTO an attempt arms, computed before the sender's halt check as
     the estimator's reads must be; one cell, so it is never boxed. *)
  let next_rto = [| nan |] in
  (* Reroute edges that already failed an orphan, keyed dst * ntot +
     parent: only orphans touch it, so a session that never reroutes never
     builds it. *)
  let failed = lazy (Edges.create 16) in
  (* Orphans with no delivered alive candidate yet, retried on the next
     delivery: (dst, parent that last failed it). *)
  let pending = ref [] in
  let reroute_log = s.r_reroute_log in
  let circuit_opens = s.r_circuit_opens in
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
          if p <> dst && has_msg p && halt_at.(p) > Float.max now (Wire.free_at wire p)
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
  (* In a fault-free exact session, only the horizon and [acks] see an ACK
     that no sink, estimator, tick, join or queued timer sees:
     [data_arrives] settles it at once, and [attempt] a leaf's with its
     delivery. *)
  let observed = Engine.observed engine in
  let settle_acks =
    (not slows)
    && (match noise with Noise.Exact -> true | _ -> false)
    && transport = Fixed && (not tracing) && (not observed) && not dyn_on
  in
  let ack_time = [| nan |] in
  (* The three protocol events are engine payload events on handlers of
     this set: [data_arrives] and [ack_arrives] carry the edge as
     [src * ntot + dst], [timeout] carries [(try_no * ntot + src) * ntot +
     dst] and reads its RTO from [cur_rto].  No send allocates a closure. *)
  let rec dyn_tick engine =
    let now = Engine.now engine in
    (if reroute then
       while !next_join < Array.length joins && joins.(!next_join).Dynamics.at <= now do
         let j = joins.(!next_join) in
         incr next_join;
         (* The new rank announces itself to its cluster's coordinator and
            is adopted through the ordinary reroute machinery — parked
            until a delivered alive parent exists. *)
         if not (has_msg j.Dynamics.rank) then
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
  (* Try 0's RTO: the noiseless round trip (data gap + data latency + ACK
     latency) inflated by rto_mult and floored at rto_min, or the
     estimator's, which keeps the raw round trip as its nominal. *)
  and initial_rto src dst =
    let k = link src dst in
    let there = links.(k) +. links.(k + 1) in
    let kb = link dst src in
    let round_trip = there +. links.(kb + 1) in
    let inflated = rto_mult *. round_trip in
    (* [Float.max rto_min inflated], NaN included, without boxing. *)
    let fallback =
      if inflated > rto_min || Float.is_nan inflated then inflated else rto_min
    in
    match est with
    | None -> next_rto.(0) <- fallback
    | Some est ->
        next_rto.(0) <- Adaptive.rto est ~src ~dst ~nominal:round_trip ~fallback
  (* Every timeout doubles the RTO, capped at rto_max ([Float.min rto_max],
     NaN included). *)
  and backoff dst =
    let doubled = 2. *. cur_rto.(dst) in
    next_rto.(0) <- (if doubled < rto_max || Float.is_nan doubled then doubled else rto_max)
  and attempt src dst try_no engine =
    if try_no = 0 then initial_rto src dst else backoff dst;
    let now = Engine.now engine in
    let free = Wire.free_at wire src in
    let start = if free > now then free else now in
    (* A halted sender transmits nothing more; its pending edges die here
       (under reroute the child becomes an orphan instead). *)
    if halt_at.(src) > start then begin
      cur_parent.(dst) <- src;
      cur_try.(dst) <- try_no;
      cur_rto.(dst) <- next_rto.(0);
      if sampled then last_start.(dst) <- start;
      let k = link src dst in
      let d = if slows then slowdown src dst ~at:start else 1. in
      let g = noisy noise rng links.(k) *. d in
      let l = noisy noise rng links.(k + 1) *. d in
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
               intra = cluster.(src) = cluster.(dst);
               try_no;
             });
        emit (Event.Send_end { src; dst; time = start +. g; arrival = arr })
      end;
      let lost = (lossy && faulty src dst ~at:start) || halt_at.(dst) <= arr in
      let deadline = start +. g +. cur_rto.(dst) in
      (* A planned leaf's first delivery forwards nothing, so where its ACK
         lands before the deadline [data_arrives] would only stamp [arr]
         and settle the ACK: both happen here, and neither is queued. *)
      let leaf =
        settle_acks && try_no = 0 && dst < n
        && match plan.Plan.children.(dst) with [] -> true | _ :: _ -> false
      in
      if leaf then ack_time.(0) <- arr +. links.(link dst src + 1);
      if leaf && ack_time.(0) < deadline then begin
        arrival.(dst) <- arr;
        settle_ack ~acks ~acked ~seqs engine ack_time dst
      end
      else begin
        if not lost then Engine.schedule_with engine ~time:arr data_arrives ((src * ntot) + dst);
        deadlines.(dst) <- deadline;
        timers.(dst) <-
          (if observed then Engine.unqueued_timer engine ~time:deadline else Engine.no_timer);
        seqs.(dst) <- Engine.reserve engine;
        if lost || arr >= deadline then arm dst engine
      end
    end
    else if reroute then orphaned ~old_parent:src ~dst engine
  and arm dst engine =
    timers.(dst) <-
      Engine.arm engine timers.(dst) ~seq:seqs.(dst) ~time:deadlines.(dst) timeout
        ((((cur_try.(dst) * ntot) + cur_parent.(dst)) * ntot) + dst);
    seqs.(dst) <- -1
  and data_arrives engine edge =
    let src = edge / ntot and dst = edge mod ntot in
    if dyn_on then dyn_tick engine;
    let now = Engine.now engine in
    if not (has_msg dst) then begin
      arrival.(dst) <- now;
      if tracing then emit (Event.Arrival { src; dst; time = now });
      forward dst engine;
      if reroute then drain_pending engine
    end;
    (* ACK on the control plane: pays the reverse latency (degraded if the
       reverse link is) but does not seize the receiver's NIC, so the ACK
       never perturbs data timing.  Duplicated deliveries are re-ACKed so a
       sender that lost an ACK eventually stops retransmitting. *)
    let kb = link dst src in
    let d = if slows then slowdown dst src ~at:now else 1. in
    let ack_at = now +. (noisy noise rng links.(kb + 1) *. d) in
    let ack_lost = (lossy && faulty dst src ~at:now) || halt_at.(src) <= ack_at in
    (* [dst]'s live timer stays so until it fires or an ACK lands, so this
       ACK cancels it first iff it lands before the deadline. *)
    if seqs.(dst) >= 0 && (ack_lost || ack_at >= deadlines.(dst)) then arm dst engine;
    if ack_lost then ()
    (* A queued timer (one this ACK cannot cancel first) must find the ACK
       queued. *)
    else if settle_acks && timers.(dst) == Engine.no_timer then begin
      ack_time.(0) <- ack_at;
      settle_ack ~acks ~acked ~seqs engine ack_time dst
    end
    else Engine.schedule_with engine ~time:ack_at ack_arrives edge
  and ack_arrives engine edge =
    let parent = edge / ntot and child = edge mod ntot in
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
      Engine.cancel engine timers.(child);
      timers.(child) <- Engine.no_timer;
      seqs.(child) <- -1
    end
  and timeout engine payload =
    let dst = payload mod ntot and src = payload / ntot mod ntot in
    let try_no = payload / (ntot * ntot) in
    (* One live timer per destination: the edge that armed this one is
       still the destination's current edge, so [cur_rto] is its RTO. *)
    if src <> cur_parent.(dst) || try_no <> cur_try.(dst) then
      failwith
        (Printf.sprintf
           "Session: timeout of edge %d->%d try %d, but the live edge is %d->%d try %d"
           src dst try_no cur_parent.(dst) dst cur_try.(dst));
    if dyn_on then dyn_tick engine;
    timers.(dst) <- Engine.no_timer;
    if not acked.(dst) then begin
      let now = Engine.now engine in
      if halt_at.(src) <= now then begin
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
          if tracing then begin
            backoff dst;
            emit
              (Event.Retransmit
                 { src; dst; time = now; try_no = try_no + 1; rto = next_rto.(0) })
          end;
          attempt src dst (try_no + 1) engine
        end
      end
    end
  and orphaned ~old_parent ~dst engine =
    (* A duplicate delivery may already have landed; then there is nothing
       to reroute (the timer is gone either way). *)
    if not (has_msg dst) then begin
      Edges.replace (Lazy.force failed) ((dst * ntot) + old_parent) ();
      try_reroute ~old_parent ~dst engine
    end
  and try_reroute ~old_parent ~dst engine =
    let now = Engine.now engine in
    let lost =
      (* A halted destination can never deliver (burning the reroute budget
         on it would only inflate the sweep); past the budget the orphan is
         abandoned for good. *)
      halt_at.(dst) <= now || reroutes_used.(dst) >= max_reroutes
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
          attempt p dst 0 engine
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
            if not (has_msg dst) then try_reroute ~old_parent ~dst engine)
          (List.rev parked)
  and forward rank engine =
    (* A delivered join rank forwards nothing: the plan predates it. *)
    if rank < n then forward_to rank plan.Plan.children.(rank) engine
  and forward_to rank children engine =
    match children with
    | [] -> ()
    | child :: rest ->
        attempt rank child 0 engine;
        forward_to rank rest engine
  in
  let now = Engine.now engine in
  if halt_at.(plan.Plan.root) > now then begin
    arrival.(plan.Plan.root) <- now;
    if tracing then
      emit (Event.Arrival { src = plan.Plan.root; dst = plan.Plan.root; time = now });
    forward plan.Plan.root engine
  end

let launch_reliable ?sid ?(who = "Session.launch_reliable") ~wire ~engine
    (config : Config.t) machines plan =
  Config.validate ~who config machines plan;
  let n = Machines.count machines in
  (* Joins extend the rank space above the planning-time population: every
     per-rank array is sized [ntot], and ranks >= n exist from time 0 as
     far as the arrays are concerned but only become reachable once their
     join event fires (the adoption in [start]). *)
  let joins =
    match config.Config.dynamics with Some d -> Dynamics.joins d | None -> [||]
  in
  let ntot = n + Array.length joins in
  if Wire.size wire < ntot then
    invalid_arg (who ^ ": wire smaller than machine view (joins included)");
  let est =
    match config.Config.transport with
    | Fixed -> None
    | Adaptive { config; _ } -> Some (Adaptive.create ~config ~n:ntot ())
  in
  let s =
    {
      r_n = n;
      r_arr = Array.make ntot nan;
      r_tx = ref 0;
      r_rtx = ref 0;
      r_acks = ref 0;
      r_gave_up = ref [];
      r_reroute_log = ref [];
      r_circuit_opens = ref 0;
      r_est = est;
      r_crash =
        (match config.Config.faults with
        | Some f -> Array.init n (Faults.crash_time f)
        | None -> [||]);
      r_leave =
        (match config.Config.dynamics with
        | Some d -> Array.init n (Dynamics.leave_time d)
        | None -> [||]);
      r_joins = joins;
      r_engine = engine;
    }
  in
  Engine.schedule_with engine ~time:config.Config.start_delay
    (fun engine _ -> start ~sid ~who ~wire s config machines plan engine)
    0;
  s

let reliable_result (s : reliable_t) =
  (* A loop, not a fold: folding a float array boxes every element. *)
  let makespan = ref 0. and delivered = ref 0 in
  for k = 0 to Array.length s.r_arr - 1 do
    let t = s.r_arr.(k) in
    if not (Float.is_nan t) then begin
      if t > !makespan then makespan := t;
      incr delivered
    end
  done;
  let horizon = Engine.now s.r_engine in
  let halted times =
    let l = ref [] in
    for r = Array.length times - 1 downto 0 do
      if times.(r) <= horizon then l := r :: !l
    done;
    !l
  in
  let crashed = halted s.r_crash and left = halted s.r_leave in
  let joined =
    Array.to_list s.r_joins
    |> List.filter_map (fun j ->
           if j.Dynamics.at <= horizon then Some j.Dynamics.rank else None)
  in
  {
    r_arrival = s.r_arr;
    r_makespan = !makespan;
    r_transmissions = !(s.r_tx);
    retransmissions = !(s.r_rtx);
    acks = !(s.r_acks);
    delivered = !delivered;
    gave_up = List.rev !(s.r_gave_up);
    crashed;
    left;
    joined;
    horizon;
    reroutes = List.rev !(s.r_reroute_log);
    circuit_opens = !(s.r_circuit_opens);
    estimator = s.r_est;
  }

let population (config : Config.t) machines =
  let n = Machines.count machines in
  match config.Config.dynamics with
  | None -> n
  | Some d -> n + Array.length (Dynamics.joins d)

(* Single-session replays: a private wire sized to the session's rank
   population, a private engine, one launch, run to quiescence. *)
let run ?segments (config : Config.t) machines plan =
  let wire = Wire.create ~n:(Machines.count machines) in
  let engine = Engine.create ~obs:config.Config.obs () in
  let s = launch ~who:"Session.run" ?segments ~wire ~engine config machines plan in
  Engine.run engine;
  result s

let run_reliable (config : Config.t) machines plan =
  let wire = Wire.create ~n:(population config machines) in
  let engine = Engine.create ~obs:config.Config.obs () in
  let s = launch_reliable ~who:"Session.run_reliable" ~wire ~engine config machines plan in
  Engine.run engine;
  reliable_result s

let mean_makespan ?(noise = Noise.default_measured) ?(msg = 1_000_000)
    ?(repetitions = 10) ?(jobs = 1) ~seed machines plan =
  if repetitions < 1 then invalid_arg "Session.mean_makespan: repetitions < 1";
  (* One indexed stream per repetition ([Rng.split] is pure in the base
     state and the index): equal seeds give equal means, no repetition's
     draw count can bleed into another's stream, and every repetition is a
     self-contained task the pool may run on any worker in any order. *)
  let base = Gridb_util.Rng.create seed in
  let makespans =
    Gridb_util.Pool.mapi ~jobs
      (fun rep () ->
        let config = Config.v ~noise ~rng:(Gridb_util.Rng.split base rep) ~msg () in
        (run config machines plan).makespan)
      (Array.make repetitions ())
  in
  Array.fold_left ( +. ) 0. makespans /. float_of_int repetitions

type reliable_summary = {
  reps : int;
  delivered_fraction : float;
  mean_retransmissions : float;
  mean_reroutes : float;
  mean_makespan : float;
  stddev_makespan : float;
  total_gave_up : int;
  all_delivered : bool;
}

let mean_reliable ?(noise = Noise.default_measured) ?(msg = 1_000_000)
    ?(repetitions = 10) ?(retries = 5) ?(rto_mult = 2.) ?(rto_min = 1.)
    ?(rto_max = 1e9) ?(transport = Fixed) ?(jobs = 1) ~seed ~spec machines plan =
  if repetitions < 1 then invalid_arg "Session.mean_reliable: repetitions < 1";
  let n = Machines.count machines in
  (* Same indexed-stream discipline as [mean_makespan]: repetition [rep]
     runs entirely on [Rng.split base rep], burning the stream's first raw
     draw for its fault seed.  Equal seeds give equal summaries, no
     repetition's draw count bleeds into another's stream, and the pool may
     execute repetitions on any worker in any order. *)
  let base = Gridb_util.Rng.create seed in
  let results =
    Gridb_util.Pool.mapi ~jobs
      (fun rep () ->
        let stream = Gridb_util.Rng.split base rep in
        let fseed = Int64.to_int (Gridb_util.Rng.bits64 stream) land max_int in
        let faults = Faults.create ~seed:fseed ~n spec in
        run_reliable
          (Config.v ~noise ~rng:stream ~msg ~faults ~retries ~rto_mult ~rto_min ~rto_max
             ~transport ())
          machines plan)
      (Array.make repetitions ())
  in
  let makespans = Array.map (fun r -> r.r_makespan) results in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let reps = float_of_int repetitions in
  let mean = Array.fold_left ( +. ) 0. makespans /. reps in
  let var =
    Array.fold_left (fun acc m -> acc +. ((m -. mean) *. (m -. mean))) 0. makespans /. reps
  in
  {
    reps = repetitions;
    delivered_fraction = float_of_int (sum (fun r -> r.delivered)) /. (reps *. float_of_int n);
    mean_retransmissions = float_of_int (sum (fun r -> r.retransmissions)) /. reps;
    mean_reroutes = float_of_int (sum (fun r -> List.length r.reroutes)) /. reps;
    mean_makespan = mean;
    stddev_makespan = sqrt var;
    total_gave_up = sum (fun r -> List.length r.gave_up);
    all_delivered = Array.for_all (fun r -> r.delivered = n) results;
  }
