(* Independent invariant predicates.  Nothing here calls
   Schedule.validate, Schedule.makespan's internals or the executors: every
   quantity is recomputed from the instance matrices / the event stream so
   the code under test cannot vouch for itself.  (The one exception is the
   final comparison of makespan_recomputation, which compares *against*
   Schedule.makespan — that comparison is the point.) *)

module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Event = Gridb_obs.Event
module Trace = Gridb_obs.Trace
module Machines = Gridb_topology.Machines
module Params = Gridb_plogp.Params

type violation = { invariant : string; detail : string }
type outcome = (unit, violation) result

let fail invariant fmt = Format.kasprintf (fun detail -> Error { invariant; detail }) fmt

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.invariant v.detail

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let cross_check ~invariant ~expected ~got =
  if feq expected got then Ok ()
  else fail invariant "expected %.17g, got %.17g (relative error %g)" expected got
      (Float.abs (expected -. got) /. Float.max 1. (Float.abs expected))

(* --- schedule invariants ------------------------------------------------ *)

let receive_once (inst : Instance.t) (s : Schedule.t) =
  let name = "receive-once" in
  if s.Schedule.n <> inst.Instance.n then
    fail name "schedule spans %d clusters, instance %d" s.Schedule.n inst.Instance.n
  else begin
    let received = Array.make s.Schedule.n 0 in
    let oob = ref None in
    List.iter
      (fun (e : Schedule.event) ->
        if e.dst < 0 || e.dst >= s.Schedule.n then oob := Some e.dst
        else received.(e.dst) <- received.(e.dst) + 1)
      s.Schedule.events;
    match !oob with
    | Some d -> fail name "transmission to out-of-range cluster %d" d
    | None ->
        let rec scan k =
          if k = s.Schedule.n then Ok ()
          else if k = s.Schedule.root then
            if received.(k) > 0 then fail name "root cluster %d receives %d times" k received.(k)
            else scan (k + 1)
          else if received.(k) <> 1 then
            fail name "cluster %d receives %d times (wanted exactly 1)" k received.(k)
          else scan (k + 1)
        in
        scan 0
  end

let causality (_inst : Instance.t) (s : Schedule.t) =
  let name = "causality" in
  let ready = Array.make (max 1 s.Schedule.n) infinity in
  if s.Schedule.root >= 0 && s.Schedule.root < s.Schedule.n then ready.(s.Schedule.root) <- 0.;
  let rec go = function
    | [] -> Ok ()
    | (e : Schedule.event) :: rest ->
        if e.src < 0 || e.src >= s.Schedule.n || e.dst < 0 || e.dst >= s.Schedule.n then
          fail name "round %d: cluster out of range (%d -> %d)" e.round e.src e.dst
        else if ready.(e.src) = infinity then
          fail name "round %d: cluster %d sends without ever holding the message" e.round e.src
        else if e.start +. 1e-9 < ready.(e.src) then
          fail name "round %d: cluster %d sends at %g before its own arrival at %g" e.round
            e.src e.start ready.(e.src)
        else begin
          ready.(e.dst) <- e.arrival;
          go rest
        end
  in
  go s.Schedule.events

let nic_serialization (inst : Instance.t) (s : Schedule.t) =
  let name = "nic-serialization" in
  if s.Schedule.n <> inst.Instance.n then
    fail name "schedule spans %d clusters, instance %d" s.Schedule.n inst.Instance.n
  else begin
    let busy = Array.make s.Schedule.n 0. in
    let rec go = function
      | [] -> Ok ()
      | (e : Schedule.event) :: rest ->
          if e.src < 0 || e.src >= s.Schedule.n || e.dst < 0 || e.dst >= s.Schedule.n
            || e.src = e.dst
          then fail name "round %d: bad edge %d -> %d" e.round e.src e.dst
          else begin
            let g = Instance.gap inst e.src e.dst in
            if e.start +. 1e-9 < busy.(e.src) then
              fail name
                "round %d: cluster %d starts a send at %g while its NIC is busy until %g"
                e.round e.src e.start busy.(e.src)
            else if not (feq e.sender_free (e.start +. g)) then
              fail name "round %d: sender_free %g does not equal start %g + gap %g" e.round
                e.sender_free e.start g
            else begin
              busy.(e.src) <- e.start +. g;
              go rest
            end
          end
    in
    go s.Schedule.events
  end

let ab_discipline (inst : Instance.t) (s : Schedule.t) =
  let name = "ab-discipline" in
  if s.Schedule.n <> inst.Instance.n then
    fail name "schedule spans %d clusters, instance %d" s.Schedule.n inst.Instance.n
  else if s.Schedule.root < 0 || s.Schedule.root >= s.Schedule.n then
    fail name "root %d out of range" s.Schedule.root
  else begin
    let in_a = Array.make s.Schedule.n false in
    in_a.(s.Schedule.root) <- true;
    let rec go round = function
      | [] ->
          let missing = ref [] in
          for k = s.Schedule.n - 1 downto 0 do
            if not in_a.(k) then missing := k :: !missing
          done;
          if !missing = [] then Ok ()
          else
            fail name "B not empty after the last round: {%s} never received"
              (String.concat "," (List.map string_of_int !missing))
      | (e : Schedule.event) :: rest ->
          if e.round <> round then
            fail name "expected round %d, event says %d" round e.round
          else if e.src < 0 || e.src >= s.Schedule.n || e.dst < 0 || e.dst >= s.Schedule.n then
            fail name "round %d: cluster out of range" round
          else if not in_a.(e.src) then
            fail name "round %d: sender %d is still in B" round e.src
          else if in_a.(e.dst) then
            fail name "round %d: receiver %d is already in A" round e.dst
          else begin
            in_a.(e.dst) <- true;
            go (round + 1) rest
          end
    in
    go 0 s.Schedule.events
  end

(* --- replay: the independent recomputation ----------------------------- *)

let replay (inst : Instance.t) order =
  let n = inst.Instance.n in
  let ready = Array.make n infinity in
  let busy = Array.make n 0. in
  ready.(inst.Instance.root) <- 0.;
  let rec go = function
    | [] -> Ok (ready, busy)
    | (i, j) :: rest ->
        if i < 0 || i >= n || j < 0 || j >= n || i = j then
          Error (Printf.sprintf "replay: bad edge %d -> %d" i j)
        else if ready.(i) = infinity then
          Error (Printf.sprintf "replay: sender %d does not hold the message" i)
        else if ready.(j) <> infinity && j <> inst.Instance.root then
          Error (Printf.sprintf "replay: cluster %d receives twice" j)
        else if j = inst.Instance.root then
          Error "replay: root receives"
        else begin
          let start = Float.max ready.(i) busy.(i) in
          busy.(i) <- start +. Instance.gap inst i j;
          ready.(j) <- busy.(i) +. Instance.latency inst i j;
          go rest
        end
  in
  go order

let replay_completion inst order =
  match replay inst order with
  | Error e -> Error e
  | Ok (ready, busy) ->
      Ok
        (Array.init inst.Instance.n (fun k ->
             Float.max ready.(k) busy.(k) +. inst.Instance.intra.(k)))

let replay_makespan inst order =
  Result.map (Array.fold_left Float.max 0.) (replay_completion inst order)

let makespan_recomputation (inst : Instance.t) (s : Schedule.t) =
  let name = "makespan-recomputation" in
  if s.Schedule.n <> inst.Instance.n then
    fail name "schedule spans %d clusters, instance %d" s.Schedule.n inst.Instance.n
  else begin
    let n = s.Schedule.n in
    let ready = Array.make n infinity in
    let busy = Array.make n 0. in
    ready.(s.Schedule.root) <- 0.;
    (* Recompute every event's timing from first principles and require the
       recorded fields to agree as we go. *)
    let rec events = function
      | [] -> Ok ()
      | (e : Schedule.event) :: rest ->
          if ready.(e.src) = infinity then
            fail name "round %d: sender %d never received" e.round e.src
          else begin
            let start = Float.max ready.(e.src) busy.(e.src) in
            let free = start +. Instance.gap inst e.src e.dst in
            let arrival = free +. Instance.latency inst e.src e.dst in
            if not (feq start e.start) then
              fail name "round %d: recorded start %g, recomputed %g" e.round e.start start
            else if not (feq free e.sender_free) then
              fail name "round %d: recorded sender_free %g, recomputed %g" e.round
                e.sender_free free
            else if not (feq arrival e.arrival) then
              fail name "round %d: recorded arrival %g, recomputed %g" e.round e.arrival
                arrival
            else begin
              busy.(e.src) <- free;
              ready.(e.dst) <- arrival;
              events rest
            end
          end
    in
    match events s.Schedule.events with
    | Error _ as e -> e
    | Ok () ->
        let rec arrays k =
          if k = n then Ok ()
          else if not (feq ready.(k) s.Schedule.ready.(k)) then
            fail name "ready.(%d) records %g, recomputation says %g" k s.Schedule.ready.(k)
              ready.(k)
          else begin
            let expected_busy = Float.max ready.(k) busy.(k) in
            if not (feq expected_busy s.Schedule.busy_until.(k)) then
              fail name "busy_until.(%d) records %g, recomputation says %g" k
                s.Schedule.busy_until.(k) expected_busy
            else arrays (k + 1)
          end
        in
        (match arrays 0 with
        | Error _ as e -> e
        | Ok () ->
            let recomputed = ref 0. in
            for k = 0 to n - 1 do
              recomputed :=
                Float.max !recomputed
                  (Float.max ready.(k) busy.(k) +. inst.Instance.intra.(k))
            done;
            cross_check ~invariant:name ~expected:!recomputed
              ~got:(Schedule.makespan inst s))
  end

let schedule_invariant_names =
  [ "receive-once"; "causality"; "nic-serialization"; "ab-discipline";
    "makespan-recomputation" ]

let ( let* ) = Result.bind

let check_schedule inst s =
  let* () = receive_once inst s in
  let* () = causality inst s in
  let* () = nic_serialization inst s in
  let* () = ab_discipline inst s in
  makespan_recomputation inst s

(* --- stream invariants -------------------------------------------------- *)

(* The DES derives every time in the stream with the exact expressions the
   invariants assume (start = max now nic_free, end = start + g, arrival =
   end + l), so all stream comparisons are exact float comparisons: any
   difference at all is a bug, not rounding. *)

let arrival_counts ~n events =
  let count = Array.make n 0 in
  let oob = ref None in
  List.iter
    (function
      | Event.Arrival { dst; _ } ->
          if dst < 0 || dst >= n then oob := Some dst else count.(dst) <- count.(dst) + 1
      | _ -> ())
    events;
  (count, !oob)

let stream_receive_exactly_once ~n events =
  let name = "stream-receive-once" in
  match arrival_counts ~n events with
  | _, Some d -> fail name "arrival at out-of-range rank %d" d
  | count, None ->
      let rec scan k =
        if k = n then Ok ()
        else if count.(k) <> 1 then fail name "rank %d received %d times (wanted 1)" k count.(k)
        else scan (k + 1)
      in
      scan 0

let stream_receive_at_most_once ~n events =
  let name = "stream-receive-at-most-once" in
  match arrival_counts ~n events with
  | _, Some d -> fail name "arrival at out-of-range rank %d" d
  | count, None ->
      let rec scan k =
        if k = n then Ok ()
        else if count.(k) > 1 then fail name "rank %d received %d times" k count.(k)
        else scan (k + 1)
      in
      scan 0

let first_arrivals ~n events =
  let arr = Array.make n nan in
  List.iter
    (function
      | Event.Arrival { dst; time; _ } when dst >= 0 && dst < n ->
          if Float.is_nan arr.(dst) then arr.(dst) <- time
      | _ -> ())
    events;
  arr

let stream_causality ~n events =
  let name = "stream-causality" in
  let arr = first_arrivals ~n events in
  let rec go = function
    | [] -> Ok ()
    | Event.Send_start { src; time; dst; _ } :: rest ->
        if src < 0 || src >= n then fail name "send from out-of-range rank %d" src
        else if Float.is_nan arr.(src) then
          fail name "rank %d sends to %d at %g without ever receiving the message" src dst
            time
        else if time < arr.(src) then
          fail name "rank %d sends to %d at %g before its own arrival at %g" src dst time
            arr.(src)
        else go rest
    | _ :: rest -> go rest
  in
  go events

(* The stream's transmissions, from the one reader: an event it could not
   pair, or a sender outside [0, n), violates [name]. *)
let transmissions name ~n events =
  let trace = Trace.of_events events in
  match trace.Trace.unpaired with
  | u :: _ -> fail name "%s" (Trace.describe u)
  | [] -> (
      match
        List.find_opt
          (fun (t : Trace.transmission) -> t.src < 0 || t.src >= n)
          trace.Trace.transmissions
      with
      | Some t -> fail name "send from out-of-range rank %d" t.src
      | None -> Ok trace.Trace.transmissions)

let send_label (t : Trace.transmission) =
  match t.sid with
  | None -> Printf.sprintf "send %d -> %d" t.src t.dst
  | Some sid -> Printf.sprintf "session %d's send %d -> %d" sid t.src t.dst

(* One port per sender NIC: sorted by start, each injection ends before the
   next one of the same sender starts.  Sessions share the check: on a
   merged stream the intervals of every session meet on one sender. *)
let nic_scan name ~n events =
  let* sends = transmissions name ~n events in
  let per_src = Array.make n [] in
  List.iter (fun (t : Trace.transmission) -> per_src.(t.src) <- t :: per_src.(t.src)) sends;
  let rec scan = function
    | (t0 : Trace.transmission) :: ((t1 : Trace.transmission) :: _ as rest) ->
        if t0.gap_end < t0.start then
          fail name "%s ends at %g before it starts at %g" (send_label t0) t0.gap_end
            t0.start
        else if t1.start < t0.gap_end then
          fail name "rank %d: %s starts at %g while the NIC is busy until %g with %s"
            t0.src (send_label t1) t1.start t0.gap_end (send_label t0)
        else scan rest
    | _ -> Ok ()
  in
  let rec senders src =
    if src = n then Ok ()
    else
      let* () =
        scan
          (List.sort
             (fun (a : Trace.transmission) (b : Trace.transmission) ->
               Float.compare a.start b.start)
             per_src.(src))
      in
      senders (src + 1)
  in
  senders 0

let stream_nic_serialization ~n events =
  nic_scan "stream-nic-serialization" ~n events

let stream_gap_conformance ~machines ~msg events =
  let name = "stream-gap-conformance" in
  let n = Machines.count machines in
  let* sends = transmissions name ~n events in
  let conforms (t : Trace.transmission) =
    if t.dst < 0 || t.dst >= n || t.dst = t.src then Ok ()
    else
      let p = Machines.link_params machines t.src t.dst in
      let g = Params.gap p msg and l = Params.latency p in
      if not (feq (t.gap_end -. t.start) g) then
        fail name "%s occupies the NIC for %g, link gap is %g" (send_label t)
          (t.gap_end -. t.start) g
      else if not (feq t.arrival (t.gap_end +. l)) then
        fail name "%s predicts arrival %g, injection end %g + latency %g = %g"
          (send_label t) t.arrival t.gap_end l (t.gap_end +. l)
      else Ok ()
  in
  List.fold_left (fun acc t -> Result.bind acc (fun () -> conforms t)) (Ok ()) sends

let stream_no_spontaneous_delivery ~root events =
  let name = "stream-no-spontaneous-delivery" in
  let promised = Hashtbl.create 64 in
  List.iter
    (fun (t : Trace.transmission) -> Hashtbl.add promised (t.sid, t.src, t.dst) t.arrival)
    (Trace.of_events events).Trace.transmissions;
  let rec go = function
    | [] -> Ok ()
    | e :: rest -> (
        match Event.untag e with
        | Event.Arrival { src; dst; time } ->
            (* the root injects the message itself *)
            if src = dst && dst = root then go rest
            else if
              List.exists (fun t -> t = time)
                (Hashtbl.find_all promised (Event.sid e, src, dst))
            then go rest
            else
              fail name
                "rank %d 'arrives' at %d at time %g with no transmission predicting it" src
                dst time
        | _ -> go rest)
  in
  go events

(* --- multi-session streams --------------------------------------------- *)

(* A service run interleaves many sessions on one engine; the session layer
   wraps everything it publishes in [Tagged { sid; _ }].  Split on sid to
   apply the single-broadcast invariants above per session, then check the
   one property that only exists ACROSS sessions: the shared wire must
   serialize injections per NIC over the whole merged stream. *)

let split_sessions events =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Event.sid e with
      | None -> ()
      | Some sid ->
          let slot =
            match Hashtbl.find_opt tbl sid with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add tbl sid r;
                order := sid :: !order;
                r
          in
          slot := Event.untag e :: !slot)
    events;
  List.rev !order
  |> List.map (fun sid -> (sid, List.rev !(Hashtbl.find tbl sid)))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sessions_nic_serialization ~n events =
  nic_scan "sessions-nic-serialization" ~n events

let sessions_start_order events =
  (* [fired]: the sessions with an Arrival (other than a start) or an Ack
     stamped [at] so far.  Those two are stamped with their handler's
     firing time, so their stamps never decrease along the stream. *)
  let rec go at fired = function
    | [] -> Ok ()
    | e :: rest -> (
        match (Event.sid e, Event.untag e) with
        | Some sid, Event.Arrival { src; dst; time } when src = dst -> (
            match
              if time = at then List.find_opt (fun s -> s <> sid) fired else None
            with
            | Some other ->
                fail "start-order"
                  "session %d starts at %g after session %d's handlers due then" sid
                  time other
            | None -> go at fired rest)
        | Some sid, (Event.Arrival { time; _ } | Event.Ack { time; _ }) ->
            if time = at then
              go at (if List.mem sid fired then fired else sid :: fired) rest
            else go time [ sid ] rest
        | _ -> go at fired rest)
  in
  go neg_infinity [] events

let stream_invariant_names =
  [ "stream-receive-once"; "stream-receive-at-most-once"; "stream-causality";
    "stream-nic-serialization"; "stream-gap-conformance";
    "stream-no-spontaneous-delivery"; "sessions-nic-serialization" ]

let check_stream ?(faulty = false) ~n ~root events =
  let* () =
    if faulty then stream_receive_at_most_once ~n events
    else stream_receive_exactly_once ~n events
  in
  let* () = stream_causality ~n events in
  let* () = stream_nic_serialization ~n events in
  stream_no_spontaneous_delivery ~root events
