(* Tests for gridb_des: the event engine, noise models, broadcast plans,
   the plan executor and the scheduling-overhead model.  The central
   integration property: with noise off, the DES reproduces the analytic
   pLogP predictions exactly. *)

module Engine = Gridb_des.Engine
module Noise = Gridb_des.Noise
module Plan = Gridb_des.Plan
module Session = Gridb_des.Session
module Overhead = Gridb_sched.Overhead
module Policy = Gridb_sched.Policy
module Machines = Gridb_topology.Machines
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Instance = Gridb_sched.Instance
module Schedule = Gridb_sched.Schedule
module Params = Gridb_plogp.Params
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- Engine ------------------------------------------------------------- *)

let test_engine_orders_events () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:5. (fun _ -> log := 5 :: !log);
  Engine.schedule e ~time:1. (fun _ -> log := 1 :: !log);
  Engine.schedule e ~time:3. (fun _ -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log);
  check_feq "clock at last event" 5. (Engine.now e);
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_fifo_for_ties () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> Engine.schedule e ~time:2. (fun _ -> log := tag :: !log))
    [ "a"; "b"; "c" ];
  Engine.run e;
  Alcotest.(check (list string)) "insertion order preserved" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec spawn depth _engine =
    incr count;
    if depth > 0 then Engine.schedule_after e ~delay:1. (spawn (depth - 1))
  in
  Engine.schedule e ~time:0. (spawn 9);
  Engine.run e;
  Alcotest.(check int) "10 events" 10 !count;
  check_feq "clock advanced" 9. (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~time:4. (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> Engine.schedule e ~time:1. (fun _ -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.schedule_after e ~delay:(-1.) (fun _ -> ()))

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~time:t (fun _ -> fired := t :: !fired))
    [ 1.; 2.; 3.; 10. ];
  Engine.run_until e 5.;
  Alcotest.(check (list (float 0.0))) "only early events" [ 1.; 2.; 3. ] (List.rev !fired);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  check_feq "clock at horizon" 5. (Engine.now e);
  Engine.run e;
  check_feq "late event still fires" 10. (Engine.now e)

let test_engine_rejects_nan () =
  let e = Engine.create () in
  let nan_time = Invalid_argument "Engine.schedule: NaN time" in
  Alcotest.check_raises "schedule" nan_time (fun () ->
      Engine.schedule e ~time:nan (fun _ -> ()));
  Alcotest.check_raises "schedule_timer" nan_time (fun () ->
      ignore (Engine.schedule_timer e ~time:nan (fun _ -> ())));
  Alcotest.check_raises "schedule_after" nan_time (fun () ->
      Engine.schedule_after e ~delay:nan (fun _ -> ()));
  Alcotest.check_raises "schedule_with" nan_time (fun () ->
      Engine.schedule_with e ~time:nan (fun _ _ -> ()) 0);
  Alcotest.check_raises "schedule_timer_with" nan_time (fun () ->
      ignore (Engine.schedule_timer_with e ~time:nan (fun _ _ -> ()) 0));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* The block lives only in the closure of an event that fires while a
   later event is still queued; once fired, the engine must not keep it.
   One form wraps a closure ([Engine.schedule]); the other is a payload
   event whose handler captured the block. *)
let[@inline never] schedule_capturing e weak =
  let block = Bytes.make 64 'x' in
  Weak.set weak 0 (Some block);
  Engine.schedule e ~time:1. (fun _ -> ignore (Sys.opaque_identity (Bytes.length block)))

let[@inline never] schedule_capturing_handler e weak =
  let block = Bytes.make 64 'x' in
  Weak.set weak 0 (Some block);
  Engine.schedule_with e ~time:1.
    (fun _ k -> ignore (Sys.opaque_identity (Bytes.length block + k)))
    7

let check_frees_fired schedule_capturing form =
  (* Heap: the event at 100. fills the lane first, so the later, earlier
     events go to the heap.  Inserted last, the capturing event is the one
     a pop moves into the root, so a heap that left the moved-from slot
     filled would keep it. *)
  let e = Engine.create () in
  let weak = Weak.create 1 in
  Engine.schedule e ~time:100. (fun _ -> ());
  Engine.schedule e ~time:0.5 (fun _ -> ());
  Engine.schedule e ~time:10. (fun _ -> ());
  schedule_capturing e weak;
  Alcotest.(check bool) "fired the first event" true (Engine.step e);
  Alcotest.(check bool) "fired the capturing event" true (Engine.step e);
  Gc.full_major ();
  Alcotest.(check bool) ("captured block collected (heap, " ^ form ^ ")") false
    (Weak.check weak 0);
  Alcotest.(check int) "later events still queued" 2 (Engine.pending e);
  Alcotest.(check bool) "invariant (heap)" true (Engine.check_invariant e);
  (* Lane: events scheduled in time order are appended to the lane; the
     popped slot must not keep the capturing event. *)
  let e = Engine.create () in
  let weak = Weak.create 1 in
  schedule_capturing e weak;
  Engine.schedule e ~time:10. (fun _ -> ());
  Alcotest.(check bool) "fired the capturing event" true (Engine.step e);
  Gc.full_major ();
  Alcotest.(check bool) ("captured block collected (lane, " ^ form ^ ")") false
    (Weak.check weak 0);
  Alcotest.(check int) "later event still queued" 1 (Engine.pending e);
  Alcotest.(check bool) "invariant (lane)" true (Engine.check_invariant e)

let test_engine_frees_fired_events () =
  check_frees_fired schedule_capturing "closure";
  check_frees_fired schedule_capturing_handler "payload"

(* The slot arrays, the heap and the lane each start at 16 entries and
   double only when full. *)
let check_capacity e peak =
  Alcotest.(check bool)
    (Printf.sprintf "capacity %d <= 3 * max 16 (2 * peak %d)" (Engine.capacity e) peak)
    true
    (Engine.capacity e <= 3 * max 16 (2 * peak));
  Alcotest.(check bool) "queue invariant" true (Engine.check_invariant e)

let test_engine_capacity_follows_live () =
  (* Heap churn: one event stays queued throughout in the lane, so the
     queue never empties and every later event goes to the heap; each
     cycle also arms and cancels a timer, whose slot is freed at once. *)
  let e = Engine.create () in
  Engine.schedule e ~time:infinity (fun _ -> ());
  let peak = ref 0 in
  for i = 1 to 100_000 do
    let t = float_of_int i in
    Engine.cancel e (Engine.schedule_timer e ~time:(t +. 0.5) (fun _ -> ()));
    Engine.schedule e ~time:t (fun _ -> ());
    peak := max !peak (Engine.pending e + 1);
    ignore (Engine.step e : bool)
  done;
  Alcotest.(check int) "processed" 100_000 (Engine.processed e);
  Alcotest.(check int) "long-lived event pending" 1 (Engine.pending e);
  check_capacity e !peak;
  (* Lane churn: events arrive in time order, so the lane takes all of
     them (the cancelled timers between them take the heap); its head
     walks around the ring while the number of queued events stays
     small. *)
  let e = Engine.create () in
  let peak = ref 0 in
  for i = 1 to 100_000 do
    let t = float_of_int i in
    Engine.schedule e ~time:t (fun _ -> ());
    Engine.cancel e (Engine.schedule_timer e ~time:(t +. 0.5) (fun _ -> ()));
    peak := max !peak (Engine.pending e + 1);
    ignore (Engine.step e : bool)
  done;
  Alcotest.(check int) "processed (lane)" 100_000 (Engine.processed e);
  Alcotest.(check int) "nothing live (lane)" 0 (Engine.pending e);
  check_capacity e !peak

(* An unqueued timer publishes exactly what a queued timer cancelled at the
   same instant publishes (ids included), but never enters the queue. *)
let test_engine_unqueued_timer () =
  let replay unqueued =
    let sink = Gridb_obs.Sink.memory () in
    let e = Engine.create ~obs:sink () in
    Engine.schedule e ~time:2. (fun e ->
        let tm =
          if unqueued then Engine.unqueued_timer e ~time:9.
          else
            Engine.schedule_timer_with e ~time:9.
              (fun _ _ -> Alcotest.fail "a cancelled timer fired")
              0
        in
        Alcotest.(check int) "pending" (if unqueued then 0 else 1) (Engine.pending e);
        Alcotest.(check bool) "invariant" true (Engine.check_invariant e);
        Alcotest.(check bool) "live until cancelled" true (Engine.timer_live tm);
        Engine.schedule e ~time:5. (fun e ->
            Engine.cancel e tm;
            Alcotest.(check bool) "dead once cancelled" false (Engine.timer_live tm);
            let published = Gridb_obs.Sink.count sink in
            Engine.cancel e tm;
            Alcotest.(check int) "a second cancel publishes nothing" published
              (Gridb_obs.Sink.count sink);
            (* The next timer takes the next id either way. *)
            Engine.cancel e (Engine.schedule_timer e ~time:7. (fun _ -> ()))));
    Engine.run e;
    Alcotest.(check bool) "invariant at the end" true (Engine.check_invariant e);
    (Engine.processed e, Engine.now e, List.map Gridb_obs.Event.to_json (Gridb_obs.Sink.events sink))
  in
  let processed, horizon, events = replay true in
  let processed', horizon', events' = replay false in
  Alcotest.(check (list string)) "same stream as a queued timer" events' events;
  Alcotest.(check int) "same processed" processed' processed;
  Alcotest.(check (float 0.)) "same horizon" horizon' horizon;
  Alcotest.(check int) "two sets, two cancels" 4 (List.length events);
  (* Without a sink nothing can observe the timer: no handle, no words. *)
  let e = Engine.create () in
  let tm = Engine.unqueued_timer e ~time:1. in
  Alcotest.(check bool) "no handle without a sink" false (Engine.timer_live tm);
  Engine.cancel e tm;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Engine.unqueued_timer e ~time:1. : Engine.timer)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "allocates nothing (%g words)" words) true
    (words < 100.);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: NaN time") (fun () ->
      ignore (Engine.unqueued_timer e ~time:nan : Engine.timer));
  Engine.schedule e ~time:3. (fun e ->
      Alcotest.check_raises "time in the past"
        (Invalid_argument "Engine.schedule: time in the past") (fun () ->
          ignore (Engine.unqueued_timer e ~time:2. : Engine.timer)));
  Engine.run e

(* A timer armed late pops at the (time, seq) it reserved: after an event
   queued before the reservation and before one queued after it, at the
   same time, as a timer queued at the reservation does. *)
let test_engine_armed_timer () =
  let replay armed =
    let sink = Gridb_obs.Sink.memory () in
    let e = Engine.create ~obs:sink () in
    let log = ref [] in
    let note name _ _ = log := name :: !log in
    Engine.schedule_with e ~time:5. (note "queued before") 0;
    let arm =
      if armed then begin
        let tm = Engine.unqueued_timer e ~time:5. in
        let seq = Engine.reserve e in
        Alcotest.(check int) "not pending until armed" 1 (Engine.pending e);
        fun e -> ignore (Engine.arm e tm ~seq ~time:5. (note "timer") 0 : Engine.timer)
      end
      else begin
        ignore (Engine.schedule_timer_with e ~time:5. (note "timer") 0 : Engine.timer);
        fun _ -> ()
      end
    in
    Engine.schedule_with e ~time:5. (note "queued after") 0;
    Engine.schedule e ~time:3. arm;
    Engine.run e;
    Alcotest.(check bool) "invariant" true (Engine.check_invariant e);
    Alcotest.(check int) "one timer queued" 1 (Engine.queued_timers e);
    (List.rev !log, List.map Gridb_obs.Event.to_json (Gridb_obs.Sink.events sink))
  in
  let order, events = replay true in
  Alcotest.(check (list string)) "reserved order"
    [ "queued before"; "timer"; "queued after" ] order;
  Alcotest.(check (list string)) "same stream as a timer queued at once" (snd (replay false))
    events;
  (* Without a sink, arming [no_timer] queues a handle that cancels. *)
  let e = Engine.create () in
  let tm = Engine.unqueued_timer e ~time:4. in
  let seq = Engine.reserve e in
  let tm = Engine.arm e tm ~seq ~time:4. (fun _ _ -> Alcotest.fail "a cancelled timer fired") 0 in
  Alcotest.(check bool) "armed is live" true (Engine.timer_live tm);
  Alcotest.(check int) "armed is pending" 1 (Engine.pending e);
  Engine.cancel e tm;
  Engine.run e;
  Alcotest.(check int) "cancelled before it fired" 0 (Engine.processed e)

(* The watermark of an unqueued event becomes the clock only once the queue
   is empty, and never past a [run_until] horizon. *)
let test_engine_unqueued_event () =
  let e = Engine.create () in
  let at time = [| time |] in
  let now what expected = Alcotest.(check (float 0.)) what expected (Engine.now e) in
  Engine.schedule e ~time:2. (fun e ->
      Engine.unqueued_event e (at 10.);
      Alcotest.(check (float 0.)) "not adopted by its handler" 2. (Engine.now e));
  Engine.schedule e ~time:5. (fun e ->
      Alcotest.(check (float 0.)) "not adopted before a queued event" 5. (Engine.now e));
  Engine.run_until e 7.;
  now "left alone past the horizon" 7.;
  Engine.run e;
  now "adopted by a later run" 10.;
  Alcotest.(check int) "processed counts queued events only" 2 (Engine.processed e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Engine.unqueued_event e (at 20.);
  Engine.schedule e ~time:15. (fun _ -> ());
  Alcotest.(check bool) "a queued event steps first" true (Engine.step e);
  now "at the queued event" 15.;
  Alcotest.(check bool) "an empty queue" false (Engine.step e);
  now "adopted by the step that finds the queue empty" 20.;
  Engine.unqueued_event e (at 25.);
  Engine.schedule e ~time:30. (fun _ -> ());
  Engine.run e;
  now "an earlier watermark leaves a later clock" 30.;
  Alcotest.(check bool) "invariant" true (Engine.check_invariant e);
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule: NaN time") (fun () ->
      Engine.unqueued_event e (at nan));
  Alcotest.check_raises "time in the past"
    (Invalid_argument "Engine.schedule: time in the past") (fun () ->
      Engine.unqueued_event e (at 29.));
  Engine.run e;
  now "a refused time moves nothing" 30.;
  Alcotest.(check int) "processed" 4 (Engine.processed e)

(* --- Engine queue ------------------------------------------------------- *)

let test_heap_sorts () =
  let rng = Rng.create 21 in
  let e = Engine.create () in
  let fired = ref [] in
  let times = List.init 200 (fun _ -> float_of_int (Rng.int rng 1000)) in
  List.iter (fun t -> Engine.schedule e ~time:t (fun _ -> fired := t :: !fired)) times;
  Engine.run e;
  Alcotest.(check (list (float 0.))) "fires in time order" (List.sort compare times)
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_heap_ties () =
  (* Equal times fire in insertion order, around an earlier event. *)
  let fire events =
    let e = Engine.create () in
    let log = ref [] in
    List.iter
      (fun (t, tag) -> Engine.schedule e ~time:t (fun _ -> log := tag :: !log))
      events;
    Alcotest.(check int) "all queued" (List.length events) (Engine.pending e);
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string)) "earliest first, then insertion order"
    [ "c"; "a"; "b"; "d" ]
    (fire [ (1., "a"); (1., "b"); (0., "c"); (1., "d") ]);
  (* Ties that straddle the lane and the heap: a, b and e go to the lane
     (each no earlier than the lane's last event), c and d to the heap
     (earlier than b).  At time 5 the lane's a still fires before the
     heap's c and d, and at 7 the lane's b and e keep their order. *)
  Alcotest.(check (list string)) "insertion order across lane and heap"
    [ "a"; "c"; "d"; "b"; "e" ]
    (fire [ (5., "a"); (7., "b"); (5., "c"); (5., "d"); (7., "e") ])

(* [Run (d, k)]: [k] events at offsets [d, d + 1, ...] in time order, or
   all at [d] when [d] is even — appended to the lane whenever [d] is no
   earlier than its last event, and a source of ties that straddle the
   lane and the heap.  [Armed d]: a timer cancelled at once, while still
   queued in the heap, which takes every timer.  Each event is queued in
   one of the two forms: a closure ([schedule]/[schedule_timer]) or a
   handler with an int payload ([schedule_with]/[schedule_timer_with]). *)
type form = Closure | Payload

type op =
  | Schedule of form * int
  | Timer of form * int
  | Cancel of int
  | Step
  | Run of form * int * int
  | Armed of form * int

let op_gen =
  QCheck.(
    map
      (fun (k, (x, (y, payload))) ->
        let f = if payload then Payload else Closure in
        match k with
        | 0 -> Schedule (f, x)
        | 1 -> Timer (f, x)
        | 2 -> Cancel x
        | 8 -> Run (f, x, 1 + (y mod 4))
        | 9 -> Armed (f, x)
        | _ -> Step)
      (pair (int_bound 9) (pair (int_bound 20) (pair (int_bound 20) bool))))

let plain form e ~time handler id =
  match form with
  | Closure -> Engine.schedule e ~time (fun e -> handler e id)
  | Payload -> Engine.schedule_with e ~time handler id

let timer form e ~time handler id =
  match form with
  | Closure -> Engine.schedule_timer e ~time (fun e -> handler e id)
  | Payload -> Engine.schedule_timer_with e ~time handler id

let run_offsets d k = List.init k (fun i -> if d mod 2 = 0 then d else d + i)

let test_heap_invariant_random =
  QCheck.Test.make ~name:"heap invariant after random ops" ~count:(Testutil.count 200)
    QCheck.(list op_gen)
    (fun ops ->
      let e = Engine.create () in
      let timers = ref [] in
      let at d = Engine.now e +. float_of_int d in
      let handler _ (_ : int) = () in
      List.for_all
        (fun op ->
          (match op with
          | Schedule (f, d) -> plain f e ~time:(at d) handler 0
          | Timer (f, d) -> timers := timer f e ~time:(at d) handler 0 :: !timers
          | Cancel i -> (
              match List.nth_opt !timers i with Some tm -> Engine.cancel e tm | None -> ())
          | Step -> ignore (Engine.step e : bool)
          | Run (f, d, k) -> List.iter (fun d -> plain f e ~time:(at d) handler 0) (run_offsets d k)
          | Armed (f, d) -> Engine.cancel e (timer f e ~time:(at d) handler 0));
          Engine.check_invariant e)
        ops)

(* Random schedule/timer/cancel/step sequences against a stable model: a
   list of (time, insertion seq) entries from which [step] must fire the
   least live one.  Offsets in [0, 20] make equal times common.  Closure
   and payload events share the queue, freed slots are taken again by
   later events, and a cancelled timer's handler must never run. *)
let test_heap_differential =
  QCheck.Test.make ~name:"binary heap vs stable reference model" ~count:(Testutil.count 300)
    QCheck.(list op_gen)
    (fun ops ->
      let e = Engine.create () in
      let fired = ref (-1) in
      let cancelled = Hashtbl.create 16 and cancelled_fired = ref false in
      let handler _ id =
        if Hashtbl.mem cancelled id then cancelled_fired := true;
        fired := id
      in
      (* (time, insertion seq, timer handle for cancellable events) *)
      let model = ref [] and seq = ref 0 in
      let add ~timer:is_timer f d =
        let time = Engine.now e +. float_of_int d and id = !seq in
        incr seq;
        let tm =
          if is_timer then Some (timer f e ~time handler id)
          else (plain f e ~time handler id; None)
        in
        model := (time, id, tm) :: !model
      in
      let cancel (_, id, tm) =
        match tm with
        | Some tm ->
            if Engine.timer_live tm then Hashtbl.replace cancelled id ();
            Engine.cancel e tm
        | None -> ()
      in
      let live (_, _, tm) =
        match tm with Some tm -> Engine.timer_live tm | None -> true
      in
      let agrees () =
        Engine.pending e = List.length (List.filter live !model)
        && Engine.check_invariant e
      in
      List.for_all
        (fun op ->
          match op with
          | Schedule (f, d) -> add ~timer:false f d; true
          | Timer (f, d) -> add ~timer:true f d; true
          | Run (f, d, k) -> List.iter (add ~timer:false f) (run_offsets d k); true
          | Armed (f, d) ->
              add ~timer:true f d;
              (match !model with entry :: _ -> cancel entry | [] -> ());
              agrees ()
          | Cancel i ->
              (match List.nth_opt (List.filter (fun (_, _, tm) -> tm <> None) !model) i with
              | Some entry -> cancel entry
              | None -> ());
              agrees ()
          | Step -> (
              let queued =
                List.filter live !model
                |> List.map (fun (t, id, _) -> (t, id))
                |> List.sort compare
              in
              fired := -1;
              let stepped = Engine.step e in
              match queued with
              | [] -> (not stepped) && !fired = -1
              | (t, id) :: _ ->
                  model := List.filter (fun (_, i, _) -> i <> id) !model;
                  stepped && !fired = id && Engine.now e = t
                  && Engine.check_invariant e))
        ops
      && begin
           (* Drained, the queue ran every live event and no cancelled one. *)
           Engine.run e;
           Engine.pending e = 0 && (not !cancelled_fired) && Engine.check_invariant e
         end)

(* The whole queue API against a naive reference: a sorted list of
   pending (time, seq) entries, fired from its head.  Besides plain events
   and timers in both forms, the interleavings cancel from inside a
   handler ([Q_canceller]), cancel twice or after the timer fired
   ([Q_cancel] picks any timer ever armed), and advance with [run_until]
   to integer horizons (events exactly at the horizon fire) and
   half-integer ones.  Offsets in [0, 20] make equal-time ties common, and
   [Q_run] bursts fill the lane while timers, which always take the heap,
   straddle it.  After every operation the firing order so far, [now],
   [pending], [processed] and each timer's liveness must agree with the
   reference. *)
type qop =
  | Q_schedule of form * int
  | Q_timer of form * int
  | Q_canceller of int * int
  | Q_cancel of int
  | Q_step
  | Q_until of int
  | Q_run of form * int * int

let qop_print = function
  | Q_schedule (f, d) -> Printf.sprintf "schedule%s %d" (if f = Payload then "_with" else "") d
  | Q_timer (f, d) -> Printf.sprintf "timer%s %d" (if f = Payload then "_with" else "") d
  | Q_canceller (d, i) -> Printf.sprintf "canceller %d -> timer %d" d i
  | Q_cancel i -> Printf.sprintf "cancel %d" i
  | Q_step -> "step"
  | Q_until h -> Printf.sprintf "run_until +%g" (float_of_int h /. 2.)
  | Q_run (f, d, k) -> Printf.sprintf "run%s %d x%d" (if f = Payload then "_with" else "") d k

let qop_gen =
  QCheck.Gen.(
    let form = map (fun p -> if p then Payload else Closure) bool and off = int_bound 20 in
    frequency
      [
        (3, map2 (fun f d -> Q_schedule (f, d)) form off);
        (4, map2 (fun f d -> Q_timer (f, d)) form off);
        (2, map2 (fun d i -> Q_canceller (d, i)) off (int_bound 30));
        (3, map (fun i -> Q_cancel i) (int_bound 30));
        (4, return Q_step);
        (2, map (fun h -> Q_until h) (int_bound 20));
        (1, map3 (fun f d k -> Q_run (f, d, 1 + k)) form off (int_bound 3));
      ])

let test_queue_reference =
  QCheck.Test.make ~name:"queue vs sorted-list reference" ~count:(Testutil.count 500)
    (QCheck.make ~print:(QCheck.Print.list qop_print) QCheck.Gen.(list_size (0 -- 80) qop_gen))
    (fun ops ->
      let e = Engine.create () in
      (* Reference state: the pending (time, id) entries, sorted (ids are
         insertion seqs); the clock; the ids fired, latest first. *)
      let queue = ref [] and clock = ref 0. and ref_fired = ref [] in
      let fired = ref [] and next_id = ref 0 and steps_agree = ref true in
      (* Every timer ever armed, in order: its engine handle and its id. *)
      let timers = ref [||] in
      (* What a canceller event's handler does: cancel the [i]th timer
         armed so far, if any. *)
      let cancels = Hashtbl.create 16 in
      let pick i =
        let n = Array.length !timers in
        if n = 0 then None else Some !timers.(i mod n)
      in
      let ref_cancel id = queue := List.filter (fun (_, i) -> i <> id) !queue in
      let handler e id =
        fired := id :: !fired;
        match Hashtbl.find_opt cancels id with
        | Some i -> Option.iter (fun (tm, _) -> Engine.cancel e tm) (pick i)
        | None -> ()
      in
      let add ~timer:is_timer f d =
        let time = Engine.now e +. float_of_int d and id = !next_id in
        incr next_id;
        if is_timer then timers := Array.append !timers [| (timer f e ~time handler id, id) |]
        else plain f e ~time handler id;
        queue := List.merge compare !queue [ (time, id) ];
        id
      in
      let ref_step () =
        match !queue with
        | [] -> false
        | (time, id) :: rest ->
            queue := rest;
            clock := time;
            ref_fired := id :: !ref_fired;
            (match Hashtbl.find_opt cancels id with
            | Some i -> Option.iter (fun (_, id) -> ref_cancel id) (pick i)
            | None -> ());
            true
      in
      let rec ref_run () = if ref_step () then ref_run () in
      let rec ref_until h =
        match !queue with
        | (time, _) :: _ when time <= h ->
            ignore (ref_step () : bool);
            ref_until h
        | _ -> if !clock < h then clock := h
      in
      let agrees () =
        !steps_agree
        && !fired = !ref_fired
        && Engine.now e = !clock
        && Engine.pending e = List.length !queue
        && Engine.processed e = List.length !ref_fired
        && Array.for_all
             (fun (tm, id) ->
               Engine.timer_live tm = List.exists (fun (_, i) -> i = id) !queue)
             !timers
        && Engine.check_invariant e
      in
      List.for_all
        (fun op ->
          (match op with
          | Q_schedule (f, d) -> ignore (add ~timer:false f d : int)
          | Q_timer (f, d) -> ignore (add ~timer:true f d : int)
          | Q_canceller (d, i) -> Hashtbl.replace cancels (add ~timer:false Payload d) i
          | Q_cancel i ->
              Option.iter
                (fun (tm, id) ->
                  Engine.cancel e tm;
                  ref_cancel id)
                (pick i)
          | Q_step ->
              let stepped = Engine.step e in
              if stepped <> ref_step () then steps_agree := false
          | Q_until h ->
              let horizon = Engine.now e +. (float_of_int h /. 2.) in
              Engine.run_until e horizon;
              ref_until horizon
          | Q_run (f, d, k) ->
              List.iter (fun d -> ignore (add ~timer:false f d : int)) (run_offsets d k));
          agrees ())
        ops
      && begin
           Engine.run e;
           ref_run ();
           agrees () && Engine.pending e = 0
         end)

(* --- Noise ------------------------------------------------------------- *)

let test_noise_exact () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    check_feq "exact is identity" 123.4 (Noise.apply Noise.Exact rng 123.4)
  done

let test_noise_positive =
  QCheck.Test.make ~name:"noise factors are positive" ~count:(Testutil.count 500) QCheck.(int_bound 1_000)
    (fun seed ->
      let rng = Rng.create seed in
      Noise.factor (Noise.Lognormal 0.3) rng > 0.
      && Noise.factor (Noise.Uniform 0.5) rng > 0.)

let test_noise_uniform_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 500 do
    let f = Noise.factor (Noise.Uniform 0.1) rng in
    Alcotest.(check bool) "within band" true (f >= 0.9 && f <= 1.1)
  done;
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Noise.factor: Uniform eps outside [0, 1)") (fun () ->
      ignore (Noise.factor (Noise.Uniform 1.5) rng))

let test_noise_lognormal_centered () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. log (Noise.factor (Noise.Lognormal 0.1) rng)
  done;
  Alcotest.(check bool) "median ~ 1 (mean log ~ 0)" true
    (Float.abs (!sum /. float_of_int n) < 0.005)

(* --- Plans ------------------------------------------------------------- *)

let machines () = Machines.expand (Grid5000.grid ())

let test_plan_validation () =
  Alcotest.check_raises "root has parent" (Invalid_argument "Plan.v: root has a parent")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| [ 1 ]; [ 0 ] |]));
  Alcotest.check_raises "not spanning" (Invalid_argument "Plan.v: not a spanning tree")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| []; [] |]));
  Alcotest.check_raises "duplicate child" (Invalid_argument "Plan.v: not a spanning tree")
    (fun () -> ignore (Plan.v ~root:0 ~children:[| [ 1; 1 ]; [] |]));
  let ok = Plan.v ~root:0 ~children:[| [ 1; 2 ]; []; [] |] in
  Alcotest.(check int) "size" 3 (Plan.size ok);
  Alcotest.(check int) "depth" 1 (Plan.depth ok)

let test_plan_binomial_ranks () =
  let m = machines () in
  let p = Plan.binomial_ranks m ~root:5 in
  Alcotest.(check int) "spans all ranks" 88 (Plan.size p);
  Alcotest.(check int) "rooted correctly" 5 p.Plan.root;
  Alcotest.(check int) "binomial depth for 88 ranks" 6 (Plan.depth p);
  let parents = Plan.parent_array p in
  Alcotest.(check int) "root parent is root" 5 parents.(5)

let test_plan_flat_ranks () =
  let m = machines () in
  let p = Plan.flat_ranks m ~root:0 in
  Alcotest.(check int) "depth 1" 1 (Plan.depth p);
  Alcotest.(check int) "87 children" 87 (List.length p.Plan.children.(0))

let test_plan_of_schedule_structure () =
  let m = machines () in
  let inst = Instance.of_grid ~root:0 ~msg:1_000_000 (Grid5000.grid ()) in
  let sched = Gridb_sched.Engine.run Policy.ecef_la inst in
  let p = Plan.of_cluster_schedule m sched in
  Alcotest.(check int) "spans ranks" 88 (Plan.size p);
  Alcotest.(check int) "rooted at coordinator 0" 0 p.Plan.root;
  (* Every coordinator's inter-cluster children precede its intra children:
     the first |inter| children of a relaying coordinator are coordinators. *)
  let coordinators = List.init 6 (Machines.coordinator m) in
  List.iter
    (fun e ->
      let src_coord = Machines.coordinator m e.Schedule.src in
      let dst_coord = Machines.coordinator m e.Schedule.dst in
      Alcotest.(check bool)
        (Printf.sprintf "coordinator %d forwards to coordinator %d" src_coord dst_coord)
        true
        (List.mem dst_coord p.Plan.children.(src_coord));
      Alcotest.(check bool) "dst is a coordinator" true (List.mem dst_coord coordinators))
    sched.Schedule.events

let test_plan_of_flat_schedule () =
  let m = machines () in
  let inst = Gridb_sched.Instance.of_machines ~root:0 ~msg:1_000_000 m in
  let schedule = Gridb_sched.Engine.run Policy.ecef inst in
  let plan = Plan.of_flat_schedule m schedule in
  Alcotest.(check int) "spans all machines" 88 (Plan.size plan);
  (* each sender's children in the schedule's send order *)
  Array.iteri
    (fun src kids ->
      let sends =
        List.filter_map
          (fun ev -> if ev.Schedule.src = src then Some ev.Schedule.dst else None)
          schedule.Schedule.events
      in
      Alcotest.(check (list int)) (Printf.sprintf "children of %d" src) sends kids)
    plan.Plan.children;
  (* the DES agrees with the flat schedule's analytic makespan (T = 0) *)
  let r = Session.run (Session.Config.v ~msg:1_000_000 ()) m plan in
  check_feq "DES = analytic" (Schedule.makespan inst schedule) r.Session.makespan

let plan_of_schedule_spans_random =
  QCheck.Test.make ~name:"hierarchical plans span random grids" ~count:(Testutil.count 40)
    QCheck.(pair (int_range 1 8) (int_bound 1_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      let m = Machines.expand grid in
      let inst = Instance.of_grid ~root:0 ~msg:500_000 grid in
      List.for_all
        (fun h ->
          let p = Plan.of_cluster_schedule m (Gridb_sched.Engine.run h inst) in
          Plan.size p = Machines.count m)
        Policy.all)

(* --- Session: exactness against the analytic models --------------------- *)

let test_exec_matches_schedule_makespan () =
  let grid = Grid5000.grid () in
  let m = Machines.expand grid in
  List.iter
    (fun msg ->
      let inst = Instance.of_grid ~root:0 ~msg grid in
      List.iter
        (fun h ->
          let sched = Gridb_sched.Engine.run h inst in
          let predicted = Schedule.makespan inst sched in
          let plan = Plan.of_cluster_schedule m sched in
          let r = Session.run (Session.Config.v ~msg ()) m plan in
          check_feq ~eps:1e-9
            (Printf.sprintf "%s at %d B" (Policy.name h) msg)
            predicted r.Session.makespan)
        Policy.all)
    [ 1_000; 1_000_000; 4_000_000 ]

let test_exec_matches_tree_cost () =
  (* A single homogeneous cluster: the DES over the binomial plan equals the
     closed-form Cost.broadcast_time. *)
  let params = Params.linear ~latency:50. ~g0:20. ~bandwidth_mb_s:100. in
  let grid = Generators.homogeneous ~n:1 ~cluster_size:24 ~inter:params ~intra:params in
  let m = Machines.expand grid in
  let plan = Plan.binomial_ranks m ~root:0 in
  let msg = 100_000 in
  let r = Session.run (Session.Config.v ~msg ()) m plan in
  check_feq "matches Cost model"
    (Gridb_collectives.Cost.broadcast_time ~params ~size:24 ~msg ())
    r.Session.makespan

let test_exec_transmissions_count () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r = Session.run Session.Config.default m plan in
  Alcotest.(check int) "n-1 transmissions" 87 r.Session.transmissions;
  Alcotest.(check bool) "all ranks reached" true
    (Array.for_all (fun t -> not (Float.is_nan t)) r.Session.arrival)

let test_exec_start_delay_shifts () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let base = (Session.run Session.Config.default m plan).Session.makespan in
  let shifted =
    (Session.run (Session.Config.v ~start_delay:1234. ()) m plan).Session.makespan
  in
  check_feq "uniform shift" (base +. 1234.) shifted

(* Cluster 0's gap table falls, so at 5,000 bytes its intra-cluster sends
   would replay at -4000 us; [Instance.of_grid] still accepts the grid (its
   binomial [T_k] stays finite).  Both session kinds refuse the gap by link
   and size instead of dying inside the engine with a time in the past. *)
let test_session_refuses_negative_gap () =
  let text =
    String.concat "\n"
      [
        "grid 2";
        "cluster 0 a 4 L 10 G 0:1000,1:999";
        "cluster 1 b 4 L 10 G 0:10,1000000:1000";
        "link 0 1 L 100 G 0:10,1000000:1000";
        "link 1 0 L 100 G 0:10,1000000:1000";
      ]
  in
  let m = Machines.expand (Result.get_ok (Gridb_topology.Serialize.of_string text)) in
  let plan = Plan.binomial_ranks m ~root:0 in
  let config msg = Session.Config.v ~msg () in
  Alcotest.(check int) "a size the gap table covers is served" 8
    (Session.run_reliable (config 500) m plan).Session.delivered;
  let refused who =
    Invalid_argument
      (who ^ ": link 0 -> 2: gap at message size 5000 bytes is -4000 us, not finite and >= 0")
  in
  Alcotest.check_raises "Session.run" (refused "Session.run") (fun () ->
      ignore (Session.run (config 5000) m plan));
  Alcotest.check_raises "Session.run_reliable" (refused "Session.run_reliable") (fun () ->
      ignore (Session.run_reliable (config 5000) m plan))

(* A fault-free fixed session settles its ACKs without queueing them, and
   a leaf's delivery at the send: its engine processes the session start
   and one arrival per transmission to a rank that forwards. *)
let test_session_settles_acks () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let leaves =
    Array.fold_left (fun k c -> if c = [] then k + 1 else k) 0 plan.Plan.children
  in
  let events obs =
    let engine = Engine.create ~obs () in
    let s =
      Session.launch_reliable ~wire:(Gridb_des.Wire.create ~n:(Machines.count m)) ~engine
        (Session.Config.v ~obs ()) m plan
    in
    Engine.run engine;
    let r = Session.reliable_result s in
    Alcotest.(check int) "every ACK counted" r.Session.r_transmissions r.Session.acks;
    (Engine.processed engine, r.Session.r_transmissions)
  in
  let quiet, tx = events Gridb_obs.Sink.null in
  Alcotest.(check int) "no ACK or leaf delivery queued" (tx - leaves + 1) quiet;
  let traced, tx = events (Gridb_obs.Sink.memory ()) in
  Alcotest.(check int) "a traced session queues them" ((2 * tx) + 1) traced

(* On five ranks with zero gaps, the three leaves' deliveries and ACKs
   settle at the send: arrivals, horizon and counters must match the
   traced run, which queues every one of them. *)
let test_session_settles_leaf_deliveries () =
  let grid = "grid 1\ncluster 0 a 5 L 10 G 0:0,1000000:0" in
  let m = Machines.expand (Result.get_ok (Gridb_topology.Serialize.of_string grid)) in
  let plan = Plan.binomial_ranks m ~root:0 in
  let run obs =
    let engine = Engine.create ~obs () in
    let s =
      Session.launch_reliable ~wire:(Gridb_des.Wire.create ~n:5) ~engine
        (Session.Config.v ~msg:1_000 ~obs ()) m plan
    in
    Engine.run engine;
    (Engine.processed engine, Session.reliable_result s)
  in
  let events, quiet = run Gridb_obs.Sink.null in
  let _, traced = run (Gridb_obs.Sink.memory ()) in
  Alcotest.(check int) "only the start and the one forwarding rank's delivery queued" 2 events;
  Alcotest.(check (array (float 0.))) "arrivals" traced.Session.r_arrival
    quiet.Session.r_arrival;
  Alcotest.(check (float 0.)) "horizon" traced.Session.horizon quiet.Session.horizon;
  let counters (r : Session.reliable) =
    [ r.r_transmissions; r.retransmissions; r.acks; r.delivered ]
  in
  Alcotest.(check (list int)) "transmissions, retransmissions, acks, delivered"
    (counters traced) (counters quiet)

(* Zero gaps and [rto_mult = 1]: each try-0 timer is due exactly when its
   ACK lands, so it is queued, fires first and retransmits; the ACK of that
   try must stay queued for the timeout to find the edge unacknowledged. *)
let test_session_tied_timer_keeps_ack () =
  let grid = "grid 1\ncluster 0 a 5 L 10 G 0:0,1000000:0" in
  let m = Machines.expand (Result.get_ok (Gridb_topology.Serialize.of_string grid)) in
  let plan = Plan.binomial_ranks m ~root:0 in
  let run obs = Session.run_reliable (Session.Config.v ~msg:1_000 ~rto_mult:1. ~obs ()) m plan in
  let quiet = run Gridb_obs.Sink.null in
  let traced = run (Gridb_obs.Sink.memory ()) in
  Alcotest.(check int) "every try-0 timer fires" 4 quiet.Session.retransmissions;
  Alcotest.(check bool) "same result as the traced run" true
    (compare quiet traced = 0)

(* In the same fixture the root's try-0 timers, armed when their children
   receive, fall due with the grandchildren's arrivals and pop first: they
   reserved their seqs at the send, before those arrivals were queued. *)
let test_session_armed_timer_keeps_its_place () =
  let grid = "grid 1\ncluster 0 a 5 L 10 G 0:0,1000000:0" in
  let m = Machines.expand (Result.get_ok (Gridb_topology.Serialize.of_string grid)) in
  let plan = Plan.binomial_ranks m ~root:0 in
  let sink = Gridb_obs.Sink.memory () in
  ignore (Session.run_reliable (Session.Config.v ~msg:1_000 ~rto_mult:1. ~obs:sink ()) m plan);
  let at_20 =
    List.filter_map
      (function
        | Gridb_obs.Event.Timer_fire { time = 20.; _ } -> Some "fire"
        | Gridb_obs.Event.Arrival { src; time = 20.; _ } when src <> 0 -> Some "arrival"
        | _ -> None)
      (Gridb_obs.Sink.events sink)
  in
  Alcotest.(check (list string)) "root timers first, then grandchildren"
    [ "fire"; "fire"; "fire"; "arrival" ] at_20

(* Under loss alone, a try's timer is queued only when its data or its ACK
   is lost, and then nothing cancels it: an untraced session queues exactly
   the timers that fire in the traced run, not one per transmission. *)
let test_session_queues_only_firing_timers () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let n = Machines.count m in
  let run obs =
    let engine = Engine.create ~obs () in
    let faults = Gridb_des.Faults.create ~seed:7 ~n (Gridb_des.Faults.v ~loss:0.2 ()) in
    let s =
      Session.launch_reliable ~wire:(Gridb_des.Wire.create ~n) ~engine
        (Session.Config.v ~obs ~faults ()) m plan
    in
    Engine.run engine;
    (Engine.queued_timers engine, Session.reliable_result s)
  in
  let queued, r = run Gridb_obs.Sink.null in
  let sink = Gridb_obs.Sink.memory () in
  let _, traced = run sink in
  let fired =
    List.length
      (List.filter
         (function Gridb_obs.Event.Timer_fire _ -> true | _ -> false)
         (Gridb_obs.Sink.events sink))
  in
  Alcotest.(check bool) "same result traced" true (compare r traced = 0);
  Alcotest.(check bool) (Printf.sprintf "some timers fire (%d)" fired) true (fired > 10);
  Alcotest.(check int) "queued = fired" fired queued;
  Alcotest.(check int) "each fire retransmits or gives up" fired
    (r.Session.retransmissions + List.length r.Session.gave_up);
  Alcotest.(check bool) "fewer than one per transmission" true (queued < r.Session.r_transmissions)

let test_exec_noise_perturbs_but_is_seeded () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let noisy seed =
    let config = Session.Config.v ~noise:(Noise.Lognormal 0.1) ~rng:(Rng.create seed) () in
    (Session.run config m plan).Session.makespan
  in
  let a = noisy 5 and b = noisy 5 and c = noisy 6 in
  check_feq "same seed same result" a b;
  Alcotest.(check bool) "different seed differs" true (not (feq a c));
  let exact = (Session.run Session.Config.default m plan).Session.makespan in
  Alcotest.(check bool) "noise changes the result" true (not (feq a exact))

let test_exec_mean_makespan_reasonable () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let exact = (Session.run Session.Config.default m plan).Session.makespan in
  let mean =
    Session.mean_makespan ~noise:(Noise.Lognormal 0.05) ~repetitions:30 ~seed:1 m plan
  in
  Alcotest.(check bool) "mean within 10% of exact" true
    (Float.abs (mean -. exact) /. exact < 0.1)

let exec_arrival_monotone_along_tree =
  QCheck.Test.make ~name:"children always arrive after parents" ~count:(Testutil.count 30)
    QCheck.(pair (int_range 1 6) (int_bound 1_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      let m = Machines.expand grid in
      let plan = Plan.binomial_ranks m ~root:0 in
      let r =
        Session.run (Session.Config.v ~noise:(Noise.Lognormal 0.2) ~rng ()) m plan
      in
      let parents = Plan.parent_array plan in
      let ok = ref true in
      Array.iteri
        (fun rank parent ->
          if rank <> plan.Plan.root then
            ok := !ok && r.Session.arrival.(rank) > r.Session.arrival.(parent))
        parents;
      !ok)

(* --- Trace ------------------------------------------------------------ *)

module Trace = Gridb_obs.Trace

(* A Memory sink plus [Trace.of_events] is the transmission log of a run. *)
let traced ?(msg = 1_000_000) m plan =
  let mem = Gridb_obs.Sink.memory () in
  let r = Session.run (Session.Config.v ~msg ~obs:mem ()) m plan in
  (r, (Trace.of_events (Gridb_obs.Sink.events mem)).Trace.transmissions)

let test_trace_recorded_on_request () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r, trace = traced m plan in
  Alcotest.(check int) "one record per transmission" r.Session.transmissions
    (List.length trace);
  Alcotest.(check int) "87 transmissions" 87 (List.length trace)

let test_trace_flat_root_busiest () =
  let m = machines () in
  let plan = Plan.flat_ranks m ~root:0 in
  let r, trace = traced m plan in
  (match Trace.busiest_sender trace with
  | Some (rank, busy) ->
      Alcotest.(check int) "root carries all traffic" 0 rank;
      Alcotest.(check bool) "busy the whole run" true (busy > 0.9 *. r.Session.makespan)
  | None -> Alcotest.fail "no senders");
  Alcotest.(check int) "only one sender" 1
    (List.length (Trace.sender_busy_time trace))

let test_trace_critical_path () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let r, trace = traced m plan in
  let path = Trace.critical_path trace in
  Alcotest.(check bool) "non-empty" true (path <> []);
  (* path starts at the root and ends at the latest arrival *)
  let first = List.hd path and last = List.nth path (List.length path - 1) in
  Alcotest.(check int) "starts at root" 0 first.Trace.src;
  check_feq "ends at makespan" r.Session.makespan last.Trace.arrival;
  (* hops chain: receiver of hop i = sender of hop i+1 *)
  let rec chained = function
    | a :: (b :: _ as rest) ->
        a.Trace.dst = b.Trace.src && chained rest
    | _ -> true
  in
  Alcotest.(check bool) "chained" true (chained path)

let test_trace_total_bytes () =
  let m = machines () in
  let plan = Plan.binomial_ranks m ~root:0 in
  let _, trace = traced ~msg:1_000 m plan in
  Alcotest.(check int) "87 KB moved" 87_000 (Trace.total_bytes trace)

(* --- Overhead ------------------------------------------------------------ *)

let test_overhead_shapes () =
  let evals = Overhead.evaluations in
  Alcotest.(check bool) "flat linear" true (evals ~n:50 Policy.flat_tree = 50.);
  let ecef = evals ~n:20 Policy.ecef in
  let la = evals ~n:20 Policy.ecef_la in
  Alcotest.(check bool) "lookahead costs more" true (la > ecef);
  Alcotest.(check bool) "LAT like LA" true (evals ~n:20 Policy.ecef_lat_max = la);
  (* pair scans: sum r(n-r) for n=4 -> 3+4+3 = 10 *)
  Alcotest.(check bool) "pair scan n=4" true (evals ~n:4 Policy.ecef = 10.);
  (* lookahead: sum b(b-1) for n=4 -> 3*2 + 2*1 + 1*0 = 8 on top of the scan *)
  Alcotest.(check bool) "lookahead n=4" true (evals ~n:4 Policy.ecef_la = 18.);
  (* parameterised policies are charged by their descriptor *)
  Alcotest.(check bool) "ECEF-LA<...> charged for lookahead" true
    (evals ~n:20 (Policy.ecef_with Gridb_sched.Lookahead.min_edge_plus_t) = la);
  let mixed =
    Policy.sized ~threshold:10 ~small:Policy.ecef_la ~large:Policy.ecef_lat_max
  in
  Alcotest.(check bool) "mixed small branch" true
    (evals ~n:8 mixed = evals ~n:8 Policy.ecef_la);
  Alcotest.(check bool) "mixed large branch" true
    (evals ~n:20 mixed = evals ~n:20 Policy.ecef_lat_max);
  check_feq "cost scales" (2. *. Overhead.cost_us ~per_evaluation_us:1. ~n:10 Policy.ecef)
    (Overhead.cost_us ~per_evaluation_us:2. ~n:10 Policy.ecef)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "des"
    [
      ( "engine",
        [
          quick "orders events" test_engine_orders_events;
          quick "fifo ties" test_engine_fifo_for_ties;
          quick "cascading" test_engine_cascading;
          quick "rejects past" test_engine_rejects_past;
          quick "run_until" test_engine_run_until;
          quick "rejects NaN" test_engine_rejects_nan;
          quick "frees fired events" test_engine_frees_fired_events;
          quick "capacity follows live events" test_engine_capacity_follows_live;
          quick "unqueued timer" test_engine_unqueued_timer;
          quick "unqueued event" test_engine_unqueued_event;
          quick "armed timer" test_engine_armed_timer;
        ] );
      ( "heap",
        [
          quick "sorts" test_heap_sorts;
          QCheck_alcotest.to_alcotest test_heap_invariant_random;
          quick "ties" test_heap_ties;
          QCheck_alcotest.to_alcotest test_heap_differential;
          QCheck_alcotest.to_alcotest test_queue_reference;
        ] );
      ( "noise",
        [
          quick "exact identity" test_noise_exact;
          QCheck_alcotest.to_alcotest test_noise_positive;
          quick "uniform bounds" test_noise_uniform_bounds;
          quick "lognormal centered" test_noise_lognormal_centered;
        ] );
      ( "plan",
        [
          quick "validation" test_plan_validation;
          quick "binomial ranks" test_plan_binomial_ranks;
          quick "flat ranks" test_plan_flat_ranks;
          quick "of schedule structure" test_plan_of_schedule_structure;
          quick "of flat schedule" test_plan_of_flat_schedule;
          QCheck_alcotest.to_alcotest plan_of_schedule_spans_random;
        ] );
      ( "exec",
        [
          quick "matches schedule makespan" test_exec_matches_schedule_makespan;
          quick "matches tree cost" test_exec_matches_tree_cost;
          quick "transmission count" test_exec_transmissions_count;
          quick "start delay" test_exec_start_delay_shifts;
          quick "refuses a negative gap" test_session_refuses_negative_gap;
          quick "settles fault-free ACKs unqueued" test_session_settles_acks;
          quick "settles leaf deliveries" test_session_settles_leaf_deliveries;
          quick "a tied timer keeps its ACK queued" test_session_tied_timer_keeps_ack;
          quick "an armed timer keeps its place" test_session_armed_timer_keeps_its_place;
          quick "queues only the timers that fire" test_session_queues_only_firing_timers;
          quick "seeded noise" test_exec_noise_perturbs_but_is_seeded;
          quick "mean makespan" test_exec_mean_makespan_reasonable;
          QCheck_alcotest.to_alcotest exec_arrival_monotone_along_tree;
        ] );
      ( "trace",
        [
          quick "recorded on request" test_trace_recorded_on_request;
          quick "flat root busiest" test_trace_flat_root_busiest;
          quick "critical path" test_trace_critical_path;
          quick "total bytes" test_trace_total_bytes;
        ] );
      ("overhead", [ quick "shapes" test_overhead_shapes ]);
    ]
