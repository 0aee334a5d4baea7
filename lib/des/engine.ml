module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type timer = { mutable live : bool; id : int }

(* [timer] is [no_timer] for a plain (uncancellable) event. *)
type event = { time : float; seq : int; action : t -> unit; timer : timer }

and t = {
  mutable heap : event array;  (* [0, size): binary min-heap; the rest: [vacant] *)
  mutable size : int;
  mutable lane : event array;
      (* ring of [len] events from [head], sorted; the rest: [vacant].  Its
         length is a power of two. *)
  mutable head : int;
  mutable len : int;
  mutable next_seq : int;
  obs : Sink.t;
  mutable clock : float;
  mutable next_timer : int;
  mutable processed : int;
  mutable cancelled_pending : int;
}

(* Shared by every plain event: always live, never fired or cancelled. *)
let no_timer = { live = true; id = -1 }

(* Fills every slot outside the heap and the lane, so the queue keeps no
   reference to an event that has fired — nor to whatever its closure
   captured.  It sorts after every real event. *)
let vacant = { time = infinity; seq = max_int; action = ignore; timer = no_timer }

let initial_capacity = 16

let create ?(obs = Sink.null) () =
  {
    heap = Array.make initial_capacity vacant;
    size = 0;
    lane = Array.make initial_capacity vacant;
    head = 0;
    len = 0;
    next_seq = 0;
    obs;
    clock = 0.;
    next_timer = 0;
    processed = 0;
    cancelled_pending = 0;
  }

let now t = t.clock

(* Heap order: earlier time first, insertion order among equal times. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Sift through a hole: entries move one level per step and [e] is
   written once, into the slot where it belongs. *)
let rec sift_up h e i =
  let parent = (i - 1) / 2 in
  if i > 0 && before e h.(parent) then begin
    h.(i) <- h.(parent);
    sift_up h e parent
  end
  else h.(i) <- e

let rec sift_down h size e i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size && before h.(l + 1) h.(l) then l + 1 else l in
  if l < size && before h.(c) e then begin
    h.(i) <- h.(c);
    sift_down h size e c
  end
  else h.(i) <- e

let push t e =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) vacant in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t.heap e (t.size - 1)

(* Remove and return the heap's earliest event; [t.size > 0]. *)
let pop t =
  let h = t.heap and size = t.size - 1 in
  let top = h.(0) and last = h.(size) in
  h.(size) <- vacant;
  t.size <- size;
  if size > 0 then sift_down h size last 0;
  top

(* The lane is a FIFO of events appended in non-decreasing time.  Their
   seqs increase too, so it stays sorted by (time, seq) and its head is its
   earliest event.  An empty lane's head slot is [vacant]. *)
let lane_head t = t.lane.(t.head)

let lane_last t = t.lane.((t.head + t.len - 1) land (Array.length t.lane - 1))

let append t e =
  let cap = Array.length t.lane in
  if t.len = cap then begin
    let bigger = Array.make (2 * cap) vacant in
    Array.blit t.lane t.head bigger 0 (cap - t.head);
    Array.blit t.lane 0 bigger (cap - t.head) t.head;
    t.lane <- bigger;
    t.head <- 0
  end;
  t.lane.((t.head + t.len) land (Array.length t.lane - 1)) <- e;
  t.len <- t.len + 1

let pop_lane t =
  let e = t.lane.(t.head) in
  t.lane.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.lane - 1);
  t.len <- t.len - 1;
  e

(* The earliest queued event: the earlier of the lane's head and the heap's
   top, or [vacant] when both are empty.  Taking the smaller (time, seq) of
   the two sorted sources gives the same order one heap of every event
   would. *)
let peek t =
  let l = lane_head t and h = t.heap.(0) in
  if before l h then l else h

(* Remove the earliest event; the queue is not empty. *)
let pop_head t = if before (lane_head t) t.heap.(0) then pop_lane t else pop t

let enqueue t ~time action timer =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN time";
  if time < t.clock then invalid_arg "Engine.schedule: time in the past";
  let e = { time; seq = t.next_seq; action; timer } in
  t.next_seq <- t.next_seq + 1;
  if t.len = 0 || time >= (lane_last t).time then append t e else push t e

let schedule t ~time action = enqueue t ~time action no_timer

let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~time:(t.clock +. delay) action

let schedule_timer t ~time action =
  let timer = { live = true; id = t.next_timer } in
  t.next_timer <- t.next_timer + 1;
  enqueue t ~time action timer;
  if Sink.enabled t.obs then
    Sink.emit t.obs (Event.Timer_set { id = timer.id; time = t.clock; fire_at = time });
  timer

let cancel t timer =
  if timer.live then begin
    timer.live <- false;
    t.cancelled_pending <- t.cancelled_pending + 1;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock })
  end

let timer_live timer = timer.live

(* Drop cancelled events sitting at the head of the queue: they must be
   invisible to [step]/[run_until] (neither executed, nor allowed to drag
   the clock or the horizon check). *)
let rec drop_cancelled t =
  let e = peek t in
  if e != vacant && not e.timer.live then begin
    ignore (pop_head t : event);
    t.cancelled_pending <- t.cancelled_pending - 1;
    drop_cancelled t
  end

let step t =
  drop_cancelled t;
  if peek t == vacant then false
  else begin
    let e = pop_head t in
    t.clock <- e.time;
    t.processed <- t.processed + 1;
    if e.timer != no_timer then begin
      e.timer.live <- false;
      if Sink.enabled t.obs then
        Sink.emit t.obs (Event.Timer_fire { id = e.timer.id; time = t.clock })
    end;
    e.action t;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  drop_cancelled t;
  while
    let e = peek t in
    e != vacant && e.time <= horizon
  do
    ignore (step t : bool);
    drop_cancelled t
  done;
  if t.clock < horizon then t.clock <- horizon

let pending t =
  drop_cancelled t;
  t.size + t.len - t.cancelled_pending

let processed t = t.processed

let capacity t = Array.length t.heap + Array.length t.lane

let check_invariant t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    if before t.heap.(i) t.heap.((i - 1) / 2) then ok := false
  done;
  for i = 0 to Array.length t.heap - 1 do
    if (i < t.size) = (t.heap.(i) == vacant) then ok := false
  done;
  let cap = Array.length t.lane in
  let slot k = t.lane.((t.head + k) land (cap - 1)) in
  for k = 1 to t.len - 1 do
    if before (slot k) (slot (k - 1)) then ok := false
  done;
  for k = 0 to cap - 1 do
    if (k < t.len) = (slot k == vacant) then ok := false
  done;
  !ok
