module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type timer = { mutable live : bool; id : int }

(* [timer] is [no_timer] for a plain (uncancellable) event. *)
type event = { time : float; seq : int; action : t -> unit; timer : timer }

and t = {
  mutable heap : event array;  (* [0, size): binary min-heap; the rest: [vacant] *)
  mutable size : int;
  mutable next_seq : int;
  obs : Sink.t;
  mutable clock : float;
  mutable next_timer : int;
  mutable processed : int;
  mutable cancelled_pending : int;
}

(* Shared by every plain event: always live, never fired or cancelled. *)
let no_timer = { live = true; id = -1 }

(* Fills every slot outside the heap, so the queue keeps no reference to
   an event that has fired — nor to whatever its closure captured. *)
let vacant = { time = infinity; seq = max_int; action = ignore; timer = no_timer }

let initial_capacity = 16

let create ?(obs = Sink.null) () =
  {
    heap = Array.make initial_capacity vacant;
    size = 0;
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

(* Remove and return the earliest event; [t.size > 0]. *)
let pop t =
  let h = t.heap and size = t.size - 1 in
  let top = h.(0) and last = h.(size) in
  h.(size) <- vacant;
  t.size <- size;
  if size > 0 then sift_down h size last 0;
  top

let enqueue t ~time action timer =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN time";
  if time < t.clock then invalid_arg "Engine.schedule: time in the past";
  push t { time; seq = t.next_seq; action; timer };
  t.next_seq <- t.next_seq + 1

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
  if t.size > 0 && not t.heap.(0).timer.live then begin
    ignore (pop t : event);
    t.cancelled_pending <- t.cancelled_pending - 1;
    drop_cancelled t
  end

let step t =
  drop_cancelled t;
  if t.size = 0 then false
  else begin
    let e = pop t in
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
  while t.size > 0 && t.heap.(0).time <= horizon do
    ignore (step t : bool);
    drop_cancelled t
  done;
  if t.clock < horizon then t.clock <- horizon

let pending t =
  drop_cancelled t;
  t.size - t.cancelled_pending

let processed t = t.processed

let capacity t = Array.length t.heap

let check_invariant t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    if before t.heap.(i) t.heap.((i - 1) / 2) then ok := false
  done;
  for i = t.size to Array.length t.heap - 1 do
    if t.heap.(i) != vacant then ok := false
  done;
  !ok
