open Gridb_sched

let fail invariant fmt =
  Format.kasprintf
    (fun detail -> Error { Invariant.invariant; detail })
    fmt

let feq = Invariant.feq

let scale_instance c (inst : Instance.t) =
  let mat m = Array.init inst.n (fun i -> Array.init inst.n (fun j -> c *. m inst i j)) in
  Instance.v ~root:inst.root ~latency:(mat Instance.latency) ~gap:(mat Instance.gap)
    ~intra:(Array.map (fun x -> c *. x) inst.intra)

let check_permutation perm n =
  if Array.length perm <> n then
    invalid_arg "Metamorphic.permute_instance: permutation length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Metamorphic.permute_instance: not a permutation";
      seen.(p) <- true)
    perm

let permute_instance perm (inst : Instance.t) =
  check_permutation perm inst.n;
  (* Cluster [perm.(i)] of the result is [inst]'s cluster [i]. *)
  let ids = Array.make inst.n 0 in
  Array.iteri (fun i p -> ids.(p) <- i) perm;
  Instance.sub inst ~root:perm.(inst.root) ids

let order (s : Schedule.t) =
  List.map (fun (e : Schedule.event) -> (e.round, e.src, e.dst)) s.events

let scaling ?(c = 2.) policy (inst : Instance.t) =
  if not (c > 0.) then invalid_arg "Metamorphic.scaling: c must be > 0";
  let scaled = scale_instance c inst in
  let s1 = Engine.run policy inst in
  let s2 = Engine.run policy scaled in
  if order s1 <> order s2 then
    fail "scaling"
      "transmission order changed under uniform scaling by %g (policy %s)" c
      (Policy.name policy)
  else
    let m1 = Schedule.makespan inst s1 in
    let m2 = Schedule.makespan scaled s2 in
    if not (feq (c *. m1) m2) then
      fail "scaling"
        "makespan %.17g scaled by %g should give %.17g, engine gives %.17g" m1
        c (c *. m1) m2
    else
      let rec events es1 es2 =
        match (es1, es2) with
        | [], [] -> Ok ()
        | (e1 : Schedule.event) :: t1, (e2 : Schedule.event) :: t2 ->
            if
              feq (c *. e1.start) e2.start
              && feq (c *. e1.sender_free) e2.sender_free
              && feq (c *. e1.arrival) e2.arrival
            then events t1 t2
            else
              fail "scaling"
                "round %d (%d -> %d): event times do not scale by %g \
                 (start %.17g vs %.17g)"
                e1.round e1.src e1.dst c (c *. e1.start) e2.start
        | _ -> fail "scaling" "event counts differ under scaling"
      in
      events s1.events s2.events

let label_independent policy ~n =
  match Policy.shape (Policy.resolve ~n policy) with
  | Policy.Root_first -> false
  | _ -> true

let relabeling ~perm policy (inst : Instance.t) =
  check_permutation perm inst.n;
  if not (label_independent policy ~n:inst.n) then Ok ()
  else
    let inst2 = permute_instance perm inst in
    let m1 = Schedule.makespan inst (Engine.run policy inst) in
    let m2 = Schedule.makespan inst2 (Engine.run policy inst2) in
    if feq m1 m2 then Ok ()
    else
      fail "relabeling"
        "policy %s: makespan %.17g under original labels, %.17g after \
         relabeling"
        (Policy.name policy) m1 m2

let dominated ~(small : Instance.t) ~(large : Instance.t) =
  (* [large >= small] entrywise, up to the relative epsilon of [feq]. *)
  let ge a b = a >= b || feq a b in
  let bad = ref None in
  let n = small.n and lat = Instance.latency and gap = Instance.gap in
  for i = 0 to n - 1 do
    if not (ge large.intra.(i) small.intra.(i)) then
      bad := Some (Printf.sprintf "intra.(%d): %.17g < %.17g" i
                     large.intra.(i) small.intra.(i));
    for j = 0 to n - 1 do
      if not (ge (lat large i j) (lat small i j)) then
        bad := Some (Printf.sprintf "latency.(%d).(%d): %.17g < %.17g" i j
                       (lat large i j) (lat small i j));
      if not (ge (gap large i j) (gap small i j)) then
        bad := Some (Printf.sprintf "gap.(%d).(%d): %.17g < %.17g" i j
                       (gap large i j) (gap small i j))
    done
  done;
  !bad

let replay_size_monotonicity policy ~(small : Instance.t) ~(large : Instance.t)
    =
  if small.n <> large.n || small.root <> large.root then
    invalid_arg
      "Metamorphic.replay_size_monotonicity: instances must share n and root";
  match dominated ~small ~large with
  | Some where ->
      fail "size-dominance"
        "larger-message instance does not dominate the smaller one (gap \
         model not monotone?): %s"
        where
  | None -> (
      let s = Engine.run policy small in
      let ord =
        List.map (fun (e : Schedule.event) -> (e.src, e.dst)) s.events
      in
      let m_small = Schedule.makespan small s in
      match Invariant.replay_makespan large ord with
      | Error e -> fail "size-monotonicity" "replay on larger instance: %s" e
      | Ok m_large ->
          if m_large > m_small || feq m_large m_small then Ok ()
          else
            fail "size-monotonicity"
              "replaying the same order on a dominating instance finished \
               earlier: %.17g < %.17g"
              m_large m_small)

(* The three reliable transports at their default knobs. *)
let transports =
  Gridb_des.Session.
    [ ("fixed", Fixed); ("adaptive", adaptive ()); ("adaptive,reroute", adaptive ~reroute:true ()) ]

(* A reliable run of [plan] at the law's rng seed and message size. *)
let reliable ~msg ~seed ?obs ?faults ?dynamics ?on_tick ?tick_every transport machines plan =
  Gridb_des.Session.run_reliable
    (Gridb_des.Session.Config.v ~rng:(Gridb_util.Rng.create seed) ~msg ?obs ?faults ?dynamics
       ?on_tick ?tick_every ~transport ())
    machines plan

(* [a] and [b] run the same session two ways, and must give equal values
   under each transport of [ts]; [what] describes two that differ. *)
let agree invariant ~what ts a b =
  let rec go = function
    | [] -> Ok ()
    | (name, transport) :: rest ->
        let x = a transport and y = b transport in
        if compare x y = 0 then go rest else fail invariant "%s: %s" name (what x y)
  in
  go ts

let transport_equivalence ?(msg = 1_000_000) ?(seed = 0) machines plan =
  let open Gridb_des in
  let base =
    Session.run (Session.Config.v ~rng:(Gridb_util.Rng.create seed) ~msg ()) machines plan
  in
  agree "transport-equivalence"
    ~what:(fun (_, m, tx, rtx) (_, m', tx', _) ->
      Printf.sprintf
        "fault-free run differs from Session.run: makespan %.17g vs %.17g, %d vs %d \
         transmissions, %d retransmissions"
        m m' tx tx' rtx)
    transports
    (fun transport ->
      let r = reliable ~msg ~seed transport machines plan in
      (r.r_arrival, r.r_makespan, r.r_transmissions, r.retransmissions))
    (fun _ -> (base.arrival, base.makespan, base.transmissions, 0))

type view =
  Gridb_des.Session.reliable
  * (float option * float option * int * [ `Closed | `Open | `Half_open ]) list option

(* A result with its estimator read on every link, for [compare], not
   [=], as an undelivered rank's arrival is nan. *)
let comparable (r : Gridb_des.Session.reliable) : view =
  let view est =
    let n = Gridb_des.Adaptive.size est in
    List.init (n * n) (fun l ->
        let src = l / n and dst = l mod n in
        Gridb_des.Adaptive.
          (srtt est ~src ~dst, rttvar est ~src ~dst, samples est ~src ~dst, circuit est ~src ~dst))
  in
  ({ r with estimator = None }, Option.map view r.estimator)

let same_reliable a b = compare (comparable a) (comparable b) = 0

(* A 1 us RTO fires before any ACK lands, so those timers are queued. *)
let tight =
  ( "adaptive with a 1 us RTO",
    Gridb_des.Session.adaptive ~config:(Gridb_des.Adaptive.v ~rto_min:1. ~rto_max:1. ()) () )

let timer_elision ?(msg = 1_000_000) ?(seed = 0) machines plan =
  let open Gridb_des in
  let n = Gridb_topology.Machines.count machines in
  let run ?faults transport =
    let sink = Gridb_obs.Sink.memory () in
    let r = reliable ~msg ~seed ~obs:sink ?faults transport machines plan in
    (comparable r, List.map Gridb_obs.Event.to_json (Gridb_obs.Sink.events sink))
  in
  agree "timer-elision"
    ~what:(fun (_, x) (_, y) ->
      Printf.sprintf "faults = None and an empty fault model differ (%d and %d events)"
        (List.length x) (List.length y))
    (transports @ [ tight ])
    run
    (fun t -> run ~faults:(Faults.create ~seed ~n Faults.none) t)

(* An adaptive rerouting transport whose RTO, fixed, is the median over
   the plan's edges of the data's latency plus half the ACK's (at least
   1 us): on the edges near the median the data lands before the timer
   and the ACK after it, the slower edges time out and retransmit or
   reroute, and the faster ones settle.  None for a plan with no edge. *)
let straddling machines plan =
  let open Gridb_des in
  let latency a b = Gridb_plogp.Params.latency (Gridb_topology.Machines.link_params machines a b) in
  let parent = Plan.parent_array plan in
  let children = List.filter (fun c -> parent.(c) <> c) (List.init (Array.length parent) Fun.id) in
  let wait c = latency parent.(c) c +. (latency c parent.(c) /. 2.) in
  match List.sort Float.compare (List.map wait children) with
  | [] -> []
  | sorted ->
      let rto = Float.max 1. (List.nth sorted (List.length sorted / 2)) in
      [
        ( "adaptive,reroute with an RTO straddling the ACKs",
          Session.adaptive ~config:(Adaptive.v ~rto_min:rto ~rto_max:rto ()) ~reroute:true () );
      ]

let ack_elision ?(msg = 1_000_000) ?(seed = 0) machines plan =
  let open Gridb_des in
  let n = Gridb_topology.Machines.count machines in
  let clusters = Gridb_topology.Grid.size (Gridb_topology.Machines.grid machines) in
  (* Fresh models per run, as a run consumes their draws; ticks only with
     dynamics, as they keep every ACK queued.  Under faults, first
     deliveries settle their ACKs while lost, cut, retransmitted and
     rerouted edges keep theirs queued; the 1 us RTO times every first try
     out before its ACK lands. *)
  let cells =
    [
      ("", fun () -> (None, None, 0.));
      ( " under faults",
        fun () ->
          let spec =
            Faults.v ~loss:0.2 ~cut_rate:1e-5 ~degrade_rate:1e-5 ~degrade_mean:1e4
              ~crash_rate:1e-6 ()
          in
          (Some (Faults.create ~seed ~n spec), None, 0.) );
      ( " under dynamics",
        fun () ->
          let spec = Dynamics.v ~drift_rate:2e-5 ~leave_rate:1e-6 ~join_rate:5e-5 () in
          (None, Some (Dynamics.create ~seed ~n ~clusters spec), 5e3) );
    ]
  in
  let run ?obs (transport, models) =
    let faults, dynamics, tick_every = models () in
    let ticks = ref 0 in
    let on_tick ~now:_ _ = incr ticks in
    let r = reliable ~msg ~seed ?obs ?faults ?dynamics ~on_tick ~tick_every transport machines plan in
    (comparable r, !ticks)
  in
  agree "ack-elision"
    ~what:(fun (((x : Session.reliable), _), _) ((y, _), _) ->
      Printf.sprintf
        "a run without a sink differs from the traced run: horizon %.17g vs %.17g, %d vs %d acks"
        x.horizon y.horizon x.acks y.acks)
    (List.concat_map
       (fun (cell, models) ->
         List.map
           (fun (name, t) -> (name ^ cell, (t, models)))
           (transports @ (tight :: straddling machines plan)))
       cells)
    run
    (fun cell -> run ~obs:(Gridb_obs.Sink.memory ()) cell)

let dynamics_identity ?(msg = 1_000_000) ?(seed = 0) ?fault_seed
    ?(transport = Gridb_des.Session.Fixed) ?(spec = Gridb_des.Faults.none)
    machines plan =
  let open Gridb_des in
  let name = "dynamics-identity" in
  let n = Gridb_topology.Machines.count machines in
  let fseed = Option.value fault_seed ~default:seed in
  let run ?dynamics ?on_tick ?tick_every () =
    reliable ~msg ~seed ~faults:(Faults.create ~seed:fseed ~n spec) ?dynamics ?on_tick
      ?tick_every transport machines plan
  in
  let base = run () in
  let clusters =
    Gridb_topology.Grid.size (Gridb_topology.Machines.grid machines)
  in
  let model = Dynamics.create ~seed:(seed lxor 0x64796e) ~n ~clusters Dynamics.none in
  (* The tick hook is live on purpose: observation must not perturb. *)
  let ticks = ref 0 in
  let dyn = run ~dynamics:model ~on_tick:(fun ~now:_ _ -> incr ticks) ~tick_every:5e4 () in
  if not (same_reliable dyn base) then
    fail name "reliable result differs under a zero-dynamics model (transport %s)"
      (Session.transport_to_string transport)
  else Ok ()

let fault_locality ?(msg = 1_000_000) ?(seed = 0) ?fault_seed ~spec machines plan =
  let open Gridb_des in
  let n = Gridb_topology.Machines.count machines in
  let model () = Faults.create ~seed:(Option.value fault_seed ~default:seed) ~n spec in
  let run faults = reliable ~msg ~seed ~faults Session.Fixed machines plan in
  (* Links a -> a + d (mod n), d = 1..4, that no plan edge uses either way:
     d loss draws each, chosen from the plan alone. *)
  let touched = model () and parent = Plan.parent_array plan in
  for a = 0 to n - 1 do
    for d = 1 to min 4 (n - 1) do
      let b = (a + d) mod n in
      if parent.(b) <> a && parent.(a) <> b then
        for _ = 1 to d do ignore (Faults.lose touched ~src:a ~dst:b) done
    done
  done;
  if compare (run (model ())) (run touched) = 0 then Ok ()
  else
    fail "fault-locality" "loss draws on links off the plan changed a fixed-transport run (%s)"
      (Faults.to_string spec)

let session_reuse ?(msg = 1_000_000) ?(seed = 0) machines plans =
  let open Gridb_des in
  if plans = [] then invalid_arg "Metamorphic.session_reuse: no plan";
  let plans = Array.of_list plans in
  let n = Gridb_topology.Machines.count machines in
  let grid = Gridb_topology.Machines.grid machines in
  let clusters = Gridb_topology.Grid.size grid in
  (* The first stream sends another size where the grid allows one, so the
     second's link tables must be refilled, and loses more, so it leaves
     reroute counts behind. *)
  let msg_a =
    let m = if msg > 1 then msg / 2 else 2 in
    match Instance.check_grid ~msg:m grid with Ok () -> m | Error _ -> msg
  in
  let fspec loss = Faults.v ~loss ~degrade_rate:1e-5 ~degrade_mean:1e4 ~crash_rate:1e-6 () in
  let dspec = Dynamics.v ~drift_rate:2e-5 ~leave_rate:1e-6 ~join_rate:5e-5 () in
  (* A reroute budget of 2, so a count left from an earlier session shows. *)
  let reroute = Session.adaptive ~config:(Adaptive.v ~max_reroutes:2 ()) ~reroute:true () in
  let k = 8 in
  (* Session [i] of stream [stream], due 1 us after session [i - 1] from
     [t0]: the plans in turn, and in turn no model, faults, faults on the
     adaptive rerouting transport, and dynamics with joins and ticks on
     it.  Models are built per launch, as a run consumes their draws. *)
  let launch ~wire ~engine ~stream ~t0 i =
    let key = (stream * k) + i in
    let msg, fspec = if stream = 0 then (msg_a, fspec 0.5) else (msg, fspec 0.3) in
    let start_delay = t0 +. float_of_int i in
    let rng = Gridb_util.Rng.split (Gridb_util.Rng.create seed) key in
    let faults () = Faults.create ~seed:(seed + key) ~t0:start_delay ~n fspec in
    let config =
      match i mod 4 with
      | 0 -> Session.Config.v ~rng ~start_delay ~msg ()
      | 1 -> Session.Config.v ~rng ~start_delay ~msg ~faults:(faults ()) ()
      | 2 -> Session.Config.v ~rng ~start_delay ~msg ~faults:(faults ()) ~transport:reroute ()
      | _ ->
          let dynamics =
            Dynamics.create ~seed:(seed + key) ~t0:start_delay ~n ~clusters dspec
          in
          Session.Config.v ~rng ~start_delay ~msg ~dynamics ~tick_every:5e3 ~transport:reroute ()
    in
    Session.launch_reliable ~wire ~engine config machines plans.(i mod Array.length plans)
  in
  let fresh () = (Wire.create ~n:(n + dspec.Dynamics.join_max), Engine.create ()) in
  (* Stream B from [t], on [wire] and [engine] run up to [t]. *)
  let stream_b (wire, engine) t =
    Engine.run_until engine t;
    let sessions = Array.init k (launch ~wire ~engine ~stream:1 ~t0:t) in
    Engine.run engine;
    Array.map (fun s -> comparable (Session.reliable_result s)) sessions
  in
  let wire, engine = fresh () in
  ignore (Array.init k (launch ~wire ~engine ~stream:0 ~t0:0.) : Session.reliable_t array);
  Engine.run engine;
  let t = Engine.now engine +. 1. in
  let reused = stream_b (wire, engine) t and unused = stream_b (fresh ()) t in
  let rec first i =
    if i >= k then Ok ()
    else if compare reused.(i) unused.(i) = 0 then first (i + 1)
    else
      let (x : Session.reliable), _ = reused.(i) and y, _ = unused.(i) in
      fail "session-reuse"
        "session %d starting at %.17g after another stream differs from the same session on \
         a fresh wire: makespan %.17g vs %.17g, %d vs %d transmissions, %d vs %d delivered"
        i t x.r_makespan y.r_makespan x.r_transmissions y.r_transmissions x.delivered
        y.delivered
  in
  first 0

let segmented_chain ~params ~size ~msg ~segments =
  let open Gridb_topology in
  let cluster = Cluster.v ~id:0 ~name:"chain" ~size ~intra:params in
  let machines = Machines.expand (Grid.v ~clusters:[ cluster ] ~inter:[| [| params |] |]) in
  let children = Array.init size (fun r -> if r + 1 < size then [ r + 1 ] else []) in
  let plan = Gridb_des.Plan.v ~root:0 ~children in
  let r = Gridb_des.Session.run ~segments (Gridb_des.Session.Config.v ~msg ()) machines plan in
  let expected = Gridb_collectives.Pipeline.chain_time ~params ~size ~msg ~segments in
  if feq expected r.Gridb_des.Session.makespan then Ok ()
  else
    fail "segmented-chain"
      "%d-rank chain, %d bytes in %d segments: DES replay finishes at %.17g, \
       Pipeline.chain_time predicts %.17g"
      size msg segments r.Gridb_des.Session.makespan expected

let metamorphic_names =
  [
    "scaling";
    "relabeling";
    "size-dominance";
    "size-monotonicity";
    "transport-equivalence";
    "timer-elision";
    "ack-elision";
    "dynamics-identity";
    "fault-locality";
    "session-reuse";
    "segmented-chain";
  ]
