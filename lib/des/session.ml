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
  mutable r_tx : int;
  mutable r_rtx : int;
  mutable r_acks : int;
  mutable r_gave_up : (int * int) list;
  mutable r_reroute_log : (int * int * int) list;
  mutable r_circuit_opens : int;
  mutable r_est : Adaptive.t option;
  (* Crash and departure time per planned rank, empty without a fault or
     dynamics model: the models' per-link streams need not outlive the run. *)
  r_crash : float array;
  r_leave : float array;
  r_joins : Dynamics.join array;
  r_engine : Engine.t;
  (* -1 until the session completes; then its delivered rank count, with
     its makespan in [r_mk.(0)]. *)
  mutable r_delivered : int;
  r_mk : float array;
  mutable r_on_complete : reliable_t -> unit;
}

(* A reliable session's protocol state, kept on a free list on its wire
   once the session completes and taken by the next session that starts
   there.  The per-rank arrays are sized to the session's own [ntot];
   those read before they are written start each session reset: [acked]
   by an epoch stamp, [halt_at] only after a session that halted ranks,
   [reroutes_used] through the reroute log, and the link table only when
   the grid or message size changes.  The three engine handlers close over
   the record, so a session allocates none. *)
type proto = {
  wire : Wire.t;
  mutable ntot : int;
  mutable n : int;
  (* Per-edge protocol state, indexed by the child (each non-root rank has
     a unique parent in the plan; under reroute the parent can change, but
     a child still has at most one live edge, and so one live timer, at a
     time: [timeout] checks it).  [acked.(d) = epoch] once the edge into
     [d] is acknowledged in this session; no session's epoch is [-1]. *)
  mutable epoch : int;
  mutable acked : int array;
  (* A try's timer starts unqueued at [deadlines.(dst)], holding the
     insertion seq [seqs.(dst)] ([-1] once queued, cancelled or fired), and
     is queued at that (deadline, seq) once an ACK cannot cancel it first
     ([arm]): so it pops where a timer queued at the send would, and one
     its ACK cancels first is never queued. *)
  mutable timers : Engine.timer array;
  mutable deadlines : float array;
  mutable seqs : int array;
  mutable cur_parent : int array;
  mutable cur_try : int array;
  mutable cur_rto : float array;
  (* A rank halts at its fault-model crash or its dynamics departure,
     whichever comes first; join ranks never crash.  [halts] once a
     session wrote its crash or departure times, [false] while every entry
     is [infinity]. *)
  mutable halt_at : float array;
  mutable halts : bool;
  (* Read only by the estimator and by reroutes: empty until a session
     with them takes the state.  [reroutes_used] is all zeros between
     sessions. *)
  mutable last_start : float array;
  mutable reroutes_used : int array;
  (* Gap and latency by cluster pair, [links.(k)] and [links.(k + 1)] for
     [k = link st src dst], filled on first use: a send reads unboxed
     floats instead of interpolating the gap table and boxing the result.
     The table is direct-mapped on [cs * nc + cd] with at most [ntot]
     entries, so it holds every pair, with no [mod], when there are few
     clusters and stays linear in ranks, not quadratic in clusters, when
     there are many.  A read must come before the next [link] call, which
     may evict its entry.  Its entries hold for [tbl_grid] at [tbl_msg]
     bytes ([-1]: none), so a session on the same grid and size keeps
     them. *)
  mutable pairs : int array;
  mutable links : float array;
  mutable nc : int;
  mutable direct : bool;
  mutable tbl_grid : Gridb_topology.Grid.t;
  mutable tbl_msg : int;
  (* The session holding the state, and what it runs.  [live] counts the
     session's events that are queued, neither popped nor cancelled: it
     completes when this falls to 0. *)
  mutable s : reliable_t;
  mutable live : int;
  mutable cfg : Config.t;
  mutable machines : Machines.t;
  mutable plan : Plan.t;
  mutable cluster : int array;
  mutable rng : Gridb_util.Rng.t;
  mutable est : Adaptive.t option;
  mutable sid : int option;
  mutable who : string;
  mutable tracing : bool;
  mutable observed : bool;
  mutable lossy : bool;
  mutable cuts : bool;
  mutable slows : bool;
  mutable sampled : bool;
  mutable reroute : bool;
  mutable quiet : bool;
  mutable settle_leaves : bool;
  mutable dyn_on : bool;
  mutable max_reroutes : int;
  mutable next_join : int;
  (* Orphans with no delivered alive candidate yet, retried on the next
     delivery: (dst, parent that last failed it). *)
  mutable pending : (int * int) list;
  (* Reroute edges that already failed an orphan, keyed dst * ntot +
     parent; emptied when a session that rerouted ends. *)
  failed : unit Edges.t;
  (* The landing time of an ACK settled unqueued ([Engine.unqueued_event]
     reads cell 0), the RTO an attempt arms, computed before the sender's
     halt check as the estimator's reads must be, and the next tick: cells,
     so no float is boxed. *)
  cells : float array;
  mutable on_data : Engine.t -> int -> unit;
  mutable on_ack : Engine.t -> int -> unit;
  mutable on_timeout : Engine.t -> int -> unit;
}

let ack_time = 0
let next_rto = 1
let next_tick = 2

(* A wire's free protocol states, [free.(0 .. count - 1)]. *)
type pool = { mutable free : proto array; mutable count : int }

type Wire.spare += Pool of pool

let pool_of wire =
  match Wire.spare wire with
  | Pool p -> p
  | _ ->
      let p = { free = [||]; count = 0 } in
      Wire.keep wire (Pool p);
      p

let no_hook (_ : reliable_t) = ()
let no_handler (_ : Engine.t) (_ : int) = ()
let idle_rng = Gridb_util.Rng.create 0

(* What a free state points at instead of its last session, so the pool
   keeps no result, estimator or fault model alive. *)
let idle =
  {
    r_n = 0;
    r_arr = [||];
    r_tx = 0;
    r_rtx = 0;
    r_acks = 0;
    r_gave_up = [];
    r_reroute_log = [];
    r_circuit_opens = 0;
    r_est = None;
    r_crash = [||];
    r_leave = [||];
    r_joins = [||];
    r_engine = Engine.create ();
    r_delivered = 0;
    r_mk = [| 0. |];
    r_on_complete = no_hook;
  }

(* One of the session's queued events has popped. *)
let[@inline] popped st = st.live <- st.live - 1

let[@inline] has_msg st r = not (Float.is_nan st.s.r_arr.(r))

let emit st e =
  Sink.emit st.cfg.Config.obs (match st.sid with None -> e | Some sid -> Event.tag ~sid e)

(* The ACK of [parent -> child] landing at [now]: counted, its round trip
   sampled by the estimator, and the edge acknowledged, its timer
   cancelled.  Inlined, so a caller's [now] is boxed only for the
   estimator. *)
let[@inline] acknowledge st engine ~now parent child =
  let s = st.s in
  s.r_acks <- s.r_acks + 1;
  (* RTT sample for the estimator — only for the edge currently armed (a
     stale ACK from a pre-reroute parent must not be attributed to the new
     link), and per Karn's rule flagged ambiguous when the edge has
     retransmitted. *)
  (match st.est with
  | Some est
    when parent = st.cur_parent.(child)
         && st.acked.(child) <> st.epoch
         (* Under contention a retransmission can be armed for a queued
            future NIC slot; an ACK of an earlier try then lands before
            [last_start] — ambiguous per Karn, so no sample. *)
         && now >= st.last_start.(child) ->
      let rtt = now -. st.last_start.(child) in
      (match
         Adaptive.on_sample est ~src:parent ~dst:child ~rtt
           ~retransmitted:(st.cur_try.(child) > 0) ~now
       with
      | `No_change -> ()
      | `Opened ->
          s.r_circuit_opens <- s.r_circuit_opens + 1;
          if st.tracing then emit st (Event.Circuit_open { src = parent; dst = child; time = now })
      | `Closed ->
          if st.tracing then emit st (Event.Circuit_close { src = parent; dst = child; time = now }))
  | _ -> ());
  if st.acked.(child) <> st.epoch then begin
    st.acked.(child) <- st.epoch;
    let timer = st.timers.(child) in
    if timer != Engine.no_timer then begin
      if Engine.queued timer then st.live <- st.live - 1;
      Engine.cancel engine timer;
      st.timers.(child) <- Engine.no_timer
    end;
    st.seqs.(child) <- -1
  end

(* The ACK of [parent -> child], landing at [cells.(0)], applied without
   an engine event: only the horizon sees when it lands. *)
let settle st engine parent child =
  acknowledge st engine ~now:st.cells.(ack_time) parent child;
  Engine.unqueued_event engine st.cells

(* Link parameters generalised to join ranks: a joining machine gets fresh
   links with its cluster's nominal intra parameters, and the nominal
   inter-cluster parameters towards everyone else. *)
let params_for st src dst =
  let n = st.n in
  if src < n && dst < n then Machines.link_params st.machines src dst
  else
    let grid = Machines.grid st.machines in
    let cs = st.cluster.(src) and cd = st.cluster.(dst) in
    if cs = cd then (Gridb_topology.Grid.cluster grid cs).Gridb_topology.Cluster.intra
    else Gridb_topology.Grid.link grid cs cd

let link st src dst =
  let pair = (st.cluster.(src) * st.nc) + st.cluster.(dst) in
  let e = if st.direct then pair else pair mod Array.length st.pairs in
  if st.pairs.(e) <> pair then begin
    let msg = st.cfg.Config.msg in
    let p = params_for st src dst in
    let gap = Params.gap p msg in
    if not (gap >= 0. && gap < infinity) then bad_gap ~who:st.who ~src ~dst ~msg gap;
    st.links.(2 * e) <- gap;
    st.links.((2 * e) + 1) <- Params.latency p;
    st.pairs.(e) <- pair
  end;
  2 * e

(* Fault processes are drawn over the planning-time population only; a
   join's fresh links are loss-free, cut-free and undegraded (and
   {!Dynamics.factor} is exactly 1. on them too). *)
let fresh_link st src dst = src >= st.n || dst >= st.n

(* Whether a message on [src -> dst] injected at [at] is lost to the fault
   model: a loss draw, then a cut if the model cuts links.  Inlined, so
   [at] is boxed only for {!Faults.link_up}. *)
let[@inline] faulty st src dst ~at =
  match st.cfg.Config.faults with
  | Some f when not (fresh_link st src dst) ->
      Faults.lose f ~src ~dst || (st.cuts && not (Faults.link_up f ~src ~dst ~at))
  | _ -> false

let slowdown st src dst ~at =
  let f =
    match st.cfg.Config.faults with
    | Some f when not (fresh_link st src dst) -> Faults.slowdown f ~src ~dst ~at
    | _ -> 1.
  in
  match st.cfg.Config.dynamics with None -> f | Some d -> f *. Dynamics.factor d ~src ~dst ~at

(* Best already-delivered alive parent for an orphan, by the ECEF arrival
   score over live-estimated link quality; candidates whose circuit to
   [dst] is open (or that already failed this orphan) only as a last
   resort. *)
let pick_parent st ~dst ~now =
  match st.est with
  | None -> None
  | Some est ->
      let msg = st.cfg.Config.msg and ntot = st.ntot in
      let best = ref None in
      for p = 0 to ntot - 1 do
        (* Liveness must be judged at the moment the parent could actually
           start sending — max(now, nic_free) — not at [now]: a backlogged
           parent that crashes before its NIC frees would fail the attempt
           at start, re-orphan the child synchronously, and the cycle would
           churn the whole reroute budget in one instant.  Judged at the
           send horizon, doomed parents are no candidates at all and the
           orphan parks until a later delivery provides a live one. *)
        if p <> dst && has_msg st p && st.halt_at.(p) > Float.max now (Wire.free_at st.wire p)
        then begin
          (* Pure breaker read: scoring must not half-open circuits of
             candidates no probe will cross; the winner's transition is
             applied in [try_reroute]. *)
          let tier =
            if Edges.mem st.failed ((dst * ntot) + p) then 2
            else if Adaptive.usable_now est ~src:p ~dst ~now then 0
            else 1
          in
          let ep = Adaptive.estimated_params est ~src:p ~dst (params_for st p dst) in
          let score =
            Gridb_sched.Policy.arrival_score
              ~avail:(Float.max now (Wire.free_at st.wire p))
              ~gap:(Params.gap ep msg) ~latency:(Params.latency ep)
          in
          match !best with
          | Some (bt, bs, _) when bt < tier || (bt = tier && bs <= score) -> ()
          | _ -> best := Some (tier, score, p)
        end
      done;
      Option.map (fun ((_ : int), (_ : float), p) -> p) !best

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

   Join arrivals and estimator-snapshot ticks are processed
   opportunistically from the protocol handlers instead of being scheduled
   as engine events: the estimator's state only changes at those handlers
   anyway, and pre-scheduled ticks would keep the engine alive long past
   quiescence.  A join (or tick) later than the last protocol event is
   outside the simulated horizon and never happened.

   The three protocol events are engine payload events on the state's
   handlers: [data_arrives] and [ack_arrives] carry the edge as [src * ntot
   + dst], [timeout] carries [(try_no * ntot + src) * ntot + dst] and reads
   its RTO from [cur_rto].  No send allocates a closure. *)
let rec dyn_tick st engine =
  let now = Engine.now engine in
  let joins = st.s.r_joins in
  (if st.reroute then
     while st.next_join < Array.length joins && joins.(st.next_join).Dynamics.at <= now do
       let j = joins.(st.next_join) in
       st.next_join <- st.next_join + 1;
       (* The new rank announces itself to its cluster's coordinator and is
          adopted through the ordinary reroute machinery — parked until a
          delivered alive parent exists. *)
       if not (has_msg st j.Dynamics.rank) then
         try_reroute st
           ~old_parent:(Machines.coordinator st.machines j.Dynamics.cluster)
           ~dst:j.Dynamics.rank engine
     done);
  let cells = st.cells in
  if now >= cells.(next_tick) then begin
    let tick_every = st.cfg.Config.tick_every in
    while cells.(next_tick) <= now do
      cells.(next_tick) <- cells.(next_tick) +. tick_every
    done;
    st.cfg.Config.on_tick ~now st.est
  end

(* Try 0's RTO: the noiseless round trip (data gap + data latency + ACK
   latency) inflated by rto_mult and floored at rto_min, or the
   estimator's, which keeps the raw round trip as its nominal. *)
and initial_rto st src dst =
  let k = link st src dst in
  let there = st.links.(k) +. st.links.(k + 1) in
  let kb = link st dst src in
  let round_trip = there +. st.links.(kb + 1) in
  let { Config.rto_mult; rto_min; _ } = st.cfg in
  let inflated = rto_mult *. round_trip in
  (* [Float.max rto_min inflated], NaN included, without boxing. *)
  let fallback = if inflated > rto_min || Float.is_nan inflated then inflated else rto_min in
  match st.est with
  | None -> st.cells.(next_rto) <- fallback
  | Some est -> st.cells.(next_rto) <- Adaptive.rto est ~src ~dst ~nominal:round_trip ~fallback

(* Every timeout doubles the RTO, capped at rto_max ([Float.min rto_max],
   NaN included). *)
and backoff st dst =
  let doubled = 2. *. st.cur_rto.(dst) in
  let rto_max = st.cfg.Config.rto_max in
  st.cells.(next_rto) <- (if doubled < rto_max || Float.is_nan doubled then doubled else rto_max)

and attempt st src dst try_no engine =
  if try_no = 0 then initial_rto st src dst else backoff st dst;
  let now = Engine.now engine in
  let free = Wire.free_at st.wire src in
  let start = if free > now then free else now in
  (* A halted sender transmits nothing more; its pending edges die here
     (under reroute the child becomes an orphan instead). *)
  if st.halt_at.(src) > start then begin
    let s = st.s and ntot = st.ntot in
    st.cur_parent.(dst) <- src;
    st.cur_try.(dst) <- try_no;
    st.cur_rto.(dst) <- st.cells.(next_rto);
    if st.sampled then st.last_start.(dst) <- start;
    let k = link st src dst in
    let d = if st.slows then slowdown st src dst ~at:start else 1. in
    let noise = st.cfg.Config.noise in
    let g = noisy noise st.rng st.links.(k) *. d in
    let l = noisy noise st.rng st.links.(k + 1) *. d in
    Wire.occupy st.wire src ~start ~gap:g;
    s.r_tx <- s.r_tx + 1;
    if try_no > 0 then s.r_rtx <- s.r_rtx + 1;
    let arr = start +. g +. l in
    if st.tracing then begin
      emit st
        (Event.Send_start
           {
             src;
             dst;
             time = start;
             msg = st.cfg.Config.msg;
             intra = st.cluster.(src) = st.cluster.(dst);
             try_no;
           });
      emit st (Event.Send_end { src; dst; time = start +. g; arrival = arr })
    end;
    let lost = (st.lossy && faulty st src dst ~at:start) || st.halt_at.(dst) <= arr in
    let deadline = start +. g +. st.cur_rto.(dst) in
    (* A planned leaf's first delivery forwards nothing, so where its ACK
       lands before the deadline [data_arrives] would only stamp [arr] and
       settle the ACK: both happen here, and neither is queued. *)
    let leaf =
      st.settle_leaves && try_no = 0 && dst < st.n
      && match st.plan.Plan.children.(dst) with [] -> true | _ :: _ -> false
    in
    if leaf then st.cells.(ack_time) <- arr +. st.links.(link st dst src + 1);
    if leaf && st.cells.(ack_time) < deadline then begin
      s.r_arr.(dst) <- arr;
      settle st engine src dst
    end
    else begin
      if not lost then begin
        st.live <- st.live + 1;
        Engine.schedule_with engine ~time:arr st.on_data ((src * ntot) + dst)
      end;
      st.deadlines.(dst) <- deadline;
      (* The state outlives minor collections, so a pointer store costs a
         write barrier: an unobserved edge's slot already holds [no_timer]
         unless a queued timer is still live. *)
      if st.observed then st.timers.(dst) <- Engine.unqueued_timer engine ~time:deadline
      else if st.timers.(dst) != Engine.no_timer then st.timers.(dst) <- Engine.no_timer;
      st.seqs.(dst) <- Engine.reserve engine;
      if lost || arr >= deadline then arm st dst engine
    end
  end
  else if st.reroute then orphaned st ~old_parent:src ~dst engine

and arm st dst engine =
  let ntot = st.ntot in
  st.live <- st.live + 1;
  st.timers.(dst) <-
    Engine.arm engine st.timers.(dst) ~seq:st.seqs.(dst) ~time:st.deadlines.(dst)
      st.on_timeout
      ((((st.cur_try.(dst) * ntot) + st.cur_parent.(dst)) * ntot) + dst);
  st.seqs.(dst) <- -1

and data_arrives st engine edge =
  let src = edge / st.ntot and dst = edge mod st.ntot in
  if st.dyn_on then dyn_tick st engine;
  let now = Engine.now engine in
  if not (has_msg st dst) then begin
    st.s.r_arr.(dst) <- now;
    if st.tracing then emit st (Event.Arrival { src; dst; time = now });
    forward st dst engine;
    if st.reroute then drain_pending st engine
  end;
  (* ACK on the control plane: pays the reverse latency (degraded if the
     reverse link is) but does not seize the receiver's NIC, so the ACK
     never perturbs data timing.  Duplicated deliveries are re-ACKed so a
     sender that lost an ACK eventually stops retransmitting. *)
  let kb = link st dst src in
  let d = if st.slows then slowdown st dst src ~at:now else 1. in
  let ack_at = now +. (noisy st.cfg.Config.noise st.rng st.links.(kb + 1) *. d) in
  let ack_lost = (st.lossy && faulty st dst src ~at:now) || st.halt_at.(src) <= ack_at in
  (* [dst]'s live timer stays so until it fires or an ACK lands, so this
     ACK cancels it first iff it lands before the deadline. *)
  if st.seqs.(dst) >= 0 && (ack_lost || ack_at >= st.deadlines.(dst)) then arm st dst engine;
  if ack_lost then ()
  (* A queued timer (one this ACK cannot cancel first) must find the ACK
     queued.  The ACK settles at once when it acknowledges the only data
     ever sent to [dst] and lands before its still-unqueued timer: then
     no event that reads or writes the edges into [dst] can run first
     ([dst] holds the message, so no reroute picks it, and no other copy
     is in flight). *)
  else if
    st.quiet && st.seqs.(dst) >= 0 && st.cur_try.(dst) = 0
    && src = st.cur_parent.(dst)
    && ((not st.reroute) || st.reroutes_used.(dst) = 0)
  then begin
    st.cells.(ack_time) <- ack_at;
    settle st engine src dst
  end
  else begin
    st.live <- st.live + 1;
    Engine.schedule_with engine ~time:ack_at st.on_ack edge
  end

and ack_arrives st engine edge =
  let parent = edge / st.ntot and child = edge mod st.ntot in
  if st.dyn_on then dyn_tick st engine;
  let now = Engine.now engine in
  if st.tracing then emit st (Event.Ack { src = child; dst = parent; time = now });
  acknowledge st engine ~now parent child

and timeout st engine payload =
  let ntot = st.ntot in
  let dst = payload mod ntot and src = payload / ntot mod ntot in
  let try_no = payload / (ntot * ntot) in
  (* One live timer per destination: the edge that armed this one is still
     the destination's current edge, so [cur_rto] is its RTO. *)
  if src <> st.cur_parent.(dst) || try_no <> st.cur_try.(dst) then
    failwith
      (Printf.sprintf
         "Session: timeout of edge %d->%d try %d, but the live edge is %d->%d try %d" src
         dst try_no st.cur_parent.(dst) dst st.cur_try.(dst));
  if st.dyn_on then dyn_tick st engine;
  st.timers.(dst) <- Engine.no_timer;
  if st.acked.(dst) <> st.epoch then begin
    let now = Engine.now engine in
    if st.halt_at.(src) <= now then begin
      if st.reroute then orphaned st ~old_parent:src ~dst engine
    end
    else begin
      let s = st.s and retries = st.cfg.Config.retries in
      let opened =
        match st.est with
        | None -> false
        | Some est ->
            let o = Adaptive.on_timeout est ~src ~dst ~now in
            if o then begin
              s.r_circuit_opens <- s.r_circuit_opens + 1;
              if st.tracing then emit st (Event.Circuit_open { src; dst; time = now })
            end;
            o
      in
      if st.reroute && (opened || try_no >= retries) then orphaned st ~old_parent:src ~dst engine
      else if try_no >= retries then begin
        s.r_gave_up <- (src, dst) :: s.r_gave_up;
        if st.tracing then emit st (Event.Give_up { src; dst; time = now })
      end
      else begin
        if st.tracing then begin
          backoff st dst;
          emit st
            (Event.Retransmit
               { src; dst; time = now; try_no = try_no + 1; rto = st.cells.(next_rto) })
        end;
        attempt st src dst (try_no + 1) engine
      end
    end
  end

and orphaned st ~old_parent ~dst engine =
  (* A duplicate delivery may already have landed; then there is nothing
     to reroute (the timer is gone either way). *)
  if not (has_msg st dst) then begin
    Edges.replace st.failed ((dst * st.ntot) + old_parent) ();
    try_reroute st ~old_parent ~dst engine
  end

and try_reroute st ~old_parent ~dst engine =
  let now = Engine.now engine in
  let s = st.s in
  let lost =
    (* A halted destination can never deliver (burning the reroute budget
       on it would only inflate the sweep); past the budget the orphan is
       abandoned for good. *)
    st.halt_at.(dst) <= now || st.reroutes_used.(dst) >= st.max_reroutes
  in
  if lost then begin
    s.r_gave_up <- (old_parent, dst) :: s.r_gave_up;
    if st.tracing then emit st (Event.Give_up { src = old_parent; dst; time = now });
    (* The subtree planned under a permanently lost child is stranded with
       it — its members never saw an attempt, so re-parent each of them
       onto the delivered set too.  (Join ranks have no planned subtree:
       the plan predates them.) *)
    if dst < st.n then
      List.iter (fun gc -> orphaned st ~old_parent:dst ~dst:gc engine) st.plan.Plan.children.(dst)
  end
  else
    match pick_parent st ~dst ~now with
    | Some p ->
        (* Only the chosen parent is actually probed, so only its breaker
           takes the cooldown-expiry transition (Open -> Half_open). *)
        (match st.est with
        | Some est -> ignore (Adaptive.usable est ~src:p ~dst ~now : bool)
        | None -> ());
        st.reroutes_used.(dst) <- st.reroutes_used.(dst) + 1;
        s.r_reroute_log <- (dst, old_parent, p) :: s.r_reroute_log;
        if st.tracing then emit st (Event.Reroute { dst; old_parent; new_parent = p; time = now });
        attempt st p dst 0 engine
    | None ->
        if not (List.exists (fun (d, _) -> d = dst) st.pending) then
          st.pending <- (dst, old_parent) :: st.pending

and drain_pending st engine =
  match st.pending with
  | [] -> ()
  | parked ->
      st.pending <- [];
      List.iter
        (fun (dst, old_parent) -> if not (has_msg st dst) then try_reroute st ~old_parent ~dst engine)
        (List.rev parked)

and forward st rank engine =
  (* A delivered join rank forwards nothing: the plan predates it. *)
  if rank < st.n then forward_to st rank st.plan.Plan.children.(rank) engine

and forward_to st rank children engine =
  match children with
  | [] -> ()
  | child :: rest ->
      attempt st rank child 0 engine;
      forward_to st rank rest engine

(* The delivered rank count, with the makespan written to [r_mk.(0)]: a
   loop, not a fold, as folding a float array boxes every element. *)
let tally s =
  let makespan = ref 0. and delivered = ref 0 in
  for k = 0 to Array.length s.r_arr - 1 do
    let t = s.r_arr.(k) in
    if not (Float.is_nan t) then begin
      if t > !makespan then makespan := t;
      incr delivered
    end
  done;
  s.r_mk.(0) <- !makespan;
  !delivered

let push pool st =
  if pool.count = Array.length pool.free then begin
    let free = Array.make (max 4 (2 * pool.count)) st in
    Array.blit pool.free 0 free 0 pool.count;
    pool.free <- free
  end;
  pool.free.(pool.count) <- st;
  pool.count <- pool.count + 1

(* The session holding [st] has nothing queued: its arrivals are final.
   Record its delivered count and makespan while they are in cache, give
   the state back to the wire, then tell the caller. *)
let complete st =
  let s = st.s in
  s.r_delivered <- tally s;
  let rec unroute = function
    | [] -> ()
    | (dst, _, _) :: rest ->
        st.reroutes_used.(dst) <- 0;
        unroute rest
  in
  unroute s.r_reroute_log;
  if Edges.length st.failed > 0 then Edges.reset st.failed;
  st.pending <- [];
  st.s <- idle;
  st.cfg <- Config.default;
  st.est <- None;
  push (pool_of st.wire) st;
  s.r_on_complete s

(* Arrays for a session of [ntot] ranks.  A state of another size keeps
   its handlers and link table. *)
let resize st ntot =
  st.ntot <- ntot;
  st.acked <- Array.make ntot (-1);
  st.timers <- Array.make ntot Engine.no_timer;
  st.deadlines <- Array.make ntot nan;
  st.seqs <- Array.make ntot (-1);
  st.cur_parent <- Array.make ntot (-1);
  st.cur_try <- Array.make ntot 0;
  st.cur_rto <- Array.make ntot nan;
  st.halt_at <- Array.make ntot infinity;
  st.halts <- false;
  st.last_start <- [||];
  st.reroutes_used <- [||]

(* A state for a session of [ntot] ranks; [start] sets the rest.  Its
   handlers pop one of the session's events each, and the session
   completes once the last one has run and queued nothing. *)
let fresh_proto wire ~ntot machines plan =
  let st =
    {
      wire;
      ntot = 0;
      n = 0;
      epoch = 0;
      acked = [||];
      timers = [||];
      deadlines = [||];
      seqs = [||];
      cur_parent = [||];
      cur_try = [||];
      cur_rto = [||];
      halt_at = [||];
      halts = false;
      last_start = [||];
      reroutes_used = [||];
      pairs = [||];
      links = [||];
      nc = 0;
      direct = false;
      tbl_grid = Machines.grid machines;
      tbl_msg = -1;
      s = idle;
      live = 0;
      cfg = Config.default;
      machines;
      plan;
      cluster = [||];
      rng = idle_rng;
      est = None;
      sid = None;
      who = "";
      tracing = false;
      observed = false;
      lossy = false;
      cuts = false;
      slows = false;
      sampled = false;
      reroute = false;
      quiet = false;
      settle_leaves = false;
      dyn_on = false;
      max_reroutes = 0;
      next_join = 0;
      pending = [];
      failed = Edges.create 16;
      cells = [| nan; nan; nan |];
      on_data = no_handler;
      on_ack = no_handler;
      on_timeout = no_handler;
    }
  in
  st.on_data <-
    (fun engine edge ->
      popped st;
      data_arrives st engine edge;
      if st.live = 0 then complete st);
  st.on_ack <-
    (fun engine edge ->
      popped st;
      ack_arrives st engine edge;
      if st.live = 0 then complete st);
  st.on_timeout <-
    (fun engine payload ->
      popped st;
      timeout st engine payload;
      if st.live = 0 then complete st);
  resize st ntot;
  st

(* The free state that best fits a session of [ntot] ranks sending [msg]
   bytes over [grid]: one of that size whose link table holds, else one of
   that size, else the most recently freed; a fresh one if none is free. *)
let take wire ~ntot ~msg machines plan =
  let pool = pool_of wire and grid = Machines.grid machines in
  let best = ref (-1) and fit = ref (-1) and i = ref (pool.count - 1) in
  while !i >= 0 && !fit < 2 do
    let st = pool.free.(!i) in
    let f =
      if st.ntot <> ntot then 0 else if st.tbl_grid == grid && st.tbl_msg = msg then 2 else 1
    in
    if f > !fit then begin
      best := !i;
      fit := f
    end;
    decr i
  done;
  if !best < 0 then fresh_proto wire ~ntot machines plan
  else begin
    let st = pool.free.(!best) in
    pool.count <- pool.count - 1;
    pool.free.(!best) <- pool.free.(pool.count);
    if st.ntot <> ntot then resize st ntot;
    st
  end

(* [start] is the session's start event: it takes a protocol state from
   the wire, sets it up for this session, then lets the root forward.
   [launch_reliable] allocates only the result state, so a session queued
   behind a long backlog of others holds no protocol state until it
   starts. *)
let start ~sid ~who ~wire (s : reliable_t) (config : Config.t) machines plan engine =
  let {
    Config.noise;
    rng;
    start_delay;
    msg;
    obs;
    faults;
    dynamics;
    tick_every;
    transport;
    _;
  } =
    config
  in
  let n = s.r_n and joins = s.r_joins in
  let ntot = n + Array.length joins in
  let st = take wire ~ntot ~msg machines plan in
  st.epoch <- st.epoch + 1;
  st.n <- n;
  st.s <- s;
  st.cfg <- config;
  st.machines <- machines;
  st.plan <- plan;
  st.cluster <-
    (if ntot = n then Machines.clusters machines
     else
       Array.append (Machines.clusters machines) (Array.map (fun j -> j.Dynamics.cluster) joins));
  let grid = Machines.grid machines in
  let nc = Gridb_topology.Grid.size grid in
  let direct = nc * nc <= ntot in
  let entries = if direct then nc * nc else ntot in
  if Array.length st.pairs <> entries || st.nc <> nc then begin
    st.pairs <- Array.make entries (-1);
    st.links <- Array.make (2 * entries) nan
  end
  else if not (st.tbl_grid == grid && st.tbl_msg = msg) then Array.fill st.pairs 0 entries (-1);
  st.nc <- nc;
  st.direct <- direct;
  st.tbl_grid <- grid;
  st.tbl_msg <- msg;
  let crash = s.r_crash and leave = s.r_leave in
  if Array.length crash > 0 || Array.length leave > 0 then begin
    if st.halts then Array.fill st.halt_at 0 ntot infinity;
    Array.blit crash 0 st.halt_at 0 (Array.length crash);
    for r = 0 to Array.length leave - 1 do
      if leave.(r) < st.halt_at.(r) then st.halt_at.(r) <- leave.(r)
    done;
    st.halts <- true
  end
  else if st.halts then begin
    Array.fill st.halt_at 0 ntot infinity;
    st.halts <- false
  end;
  st.rng <- (match rng with Some r -> r | None -> Gridb_util.Rng.create 0);
  st.sid <- sid;
  st.who <- who;
  st.tracing <- Sink.enabled obs;
  st.est <- s.r_est;
  st.sampled <- s.r_est <> None;
  st.reroute <- (match transport with Fixed -> false | Adaptive a -> a.reroute);
  st.max_reroutes <-
    (match s.r_est with
    | None -> 0
    | Some est ->
        let m = (Adaptive.config est).Adaptive.max_reroutes in
        if m = 0 then 2 * ntot else m);
  if st.sampled && Array.length st.last_start <> ntot then st.last_start <- Array.make ntot nan;
  if st.reroute && Array.length st.reroutes_used <> ntot then
    st.reroutes_used <- Array.make ntot 0;
  (* A fault process that is off is never consulted: without cuts every
     link stays up, and without degradation or dynamics no link slows. *)
  st.lossy <- faults <> None;
  (match faults with
  | Some f ->
      let spec = Faults.spec f in
      st.cuts <- spec.Faults.cut_rate > 0.;
      st.slows <- spec.Faults.degrade_rate > 0. || dynamics <> None
  | None ->
      st.cuts <- false;
      st.slows <- dynamics <> None);
  st.next_join <- 0;
  st.cells.(next_tick) <- (if tick_every > 0. then start_delay +. tick_every else infinity);
  st.dyn_on <- Array.length joins > 0 || tick_every > 0.;
  (* Without a sink, tick or join, only the horizon, [acks] and the
     estimator see an ACK land, so [data_arrives] settles the ACK of a
     first delivery at once.  In a fault-free exact fixed session
     [attempt] settles a leaf's with its delivery. *)
  st.observed <- Engine.observed engine;
  st.quiet <- (not st.tracing) && (not st.observed) && not st.dyn_on;
  st.settle_leaves <-
    st.quiet && (not st.lossy) && (not st.slows)
    && (match noise with Noise.Exact -> true | _ -> false)
    && transport = Fixed;
  st.live <- 0;
  let now = Engine.now engine and root = plan.Plan.root in
  if st.halt_at.(root) > now then begin
    s.r_arr.(root) <- now;
    if st.tracing then emit st (Event.Arrival { src = root; dst = root; time = now });
    forward st root engine
  end;
  if st.live = 0 then complete st

let launch_reliable ?sid ?seq ?(who = "Session.launch_reliable") ~wire ~engine
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
      r_tx = 0;
      r_rtx = 0;
      r_acks = 0;
      r_gave_up = [];
      r_reroute_log = [];
      r_circuit_opens = 0;
      r_est = est;
      r_crash =
        (match config.Config.faults with
        | Some f -> Faults.crash_times f
        | None -> [||]);
      r_leave =
        (match config.Config.dynamics with
        | Some d -> Array.init n (Dynamics.leave_time d)
        | None -> [||]);
      r_joins = joins;
      r_engine = engine;
      r_delivered = -1;
      r_mk = [| 0. |];
      r_on_complete = no_hook;
    }
  in
  let seq = match seq with Some seq -> seq | None -> Engine.reserve engine in
  Engine.schedule_reserved engine ~seq ~time:config.Config.start_delay
    (fun engine _ -> start ~sid ~who ~wire s config machines plan engine)
    0;
  s

let pooled wire = match Wire.spare wire with Pool p -> p.count | _ -> 0

let on_complete s f = if s.r_delivered >= 0 then f s else s.r_on_complete <- f

let arrivals s = s.r_arr

let drop_estimator s = s.r_est <- None

let reliable_result (s : reliable_t) =
  let delivered = if s.r_delivered >= 0 then s.r_delivered else tally s in
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
    r_makespan = s.r_mk.(0);
    r_transmissions = s.r_tx;
    retransmissions = s.r_rtx;
    acks = s.r_acks;
    delivered;
    gave_up = List.rev s.r_gave_up;
    crashed;
    left;
    joined;
    horizon;
    reroutes = List.rev s.r_reroute_log;
    circuit_opens = s.r_circuit_opens;
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
