module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

(* [slot] is the timer's queue slot while it is queued, -2 while it is
   live but unqueued, -1 once it has fired or been cancelled. *)
type timer = { id : int; mutable slot : int }

type t = {
  (* Slot arrays, all of one length: a queued event is one index into
     them.  A free slot holds [vacant] and [no_timer], and its [args] entry
     links it to the next free slot (-1 ends the list). *)
  mutable times : float array;
  mutable seqs : int array;
  mutable handlers : (t -> int -> unit) array;
  mutable args : int array;
  mutable timers : timer array;  (* [no_timer] for a plain event *)
  mutable pos : int array;  (* a heap slot's index in [heap] *)
  mutable free : int;  (* first free slot, or -1 *)
  mutable heap : int array;  (* [0, size): binary min-heap of slots *)
  mutable size : int;
  mutable next_seq : int;
  obs : Sink.t;
  clock : float array;
      (* [now], then the latest unqueued event: two cells, as a mutable
         float field of this record would box on every write. *)
  mutable next_timer : int;
  mutable queued_timers : int;
  mutable processed : int;
}

(* Shared by every plain event, and never live: cancelling it is a
   no-op. *)
let no_timer = { id = -1; slot = -1 }

(* Fills every free slot, so the queue keeps no reference to a handler
   that has fired, nor to whatever it captured. *)
let vacant : t -> int -> unit = fun _ _ -> ()

let initial_capacity = 16

(* Free slots [from, until) linked in order, the last to [next]. *)
let link_free args ~from ~until ~next =
  for s = from to until - 2 do
    args.(s) <- s + 1
  done;
  args.(until - 1) <- next

let create ?(obs = Sink.null) () =
  let cap = initial_capacity in
  let args = Array.make cap 0 in
  link_free args ~from:0 ~until:cap ~next:(-1);
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    handlers = Array.make cap vacant;
    args;
    timers = Array.make cap no_timer;
    pos = Array.make cap 0;
    free = 0;
    heap = Array.make cap 0;
    size = 0;
    next_seq = 0;
    obs;
    clock = [| 0.; 0. |];
    next_timer = 0;
    queued_timers = 0;
    processed = 0;
  }

let[@inline] now t = t.clock.(0)

let extend a len fill =
  let b = Array.make (2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* The slot arrays double together when no slot is free; the new slots
   join the free list. *)
let grow_slots t =
  let cap = Array.length t.times in
  t.times <- extend t.times cap 0.;
  t.seqs <- extend t.seqs cap 0;
  t.handlers <- extend t.handlers cap vacant;
  t.args <- extend t.args cap 0;
  t.timers <- extend t.timers cap no_timer;
  t.pos <- extend t.pos cap 0;
  link_free t.args ~from:cap ~until:(2 * cap) ~next:(-1);
  t.free <- cap

let take_slot t =
  if t.free < 0 then grow_slots t;
  let s = t.free in
  t.free <- t.args.(s);
  s

let release t s =
  t.handlers.(s) <- vacant;
  t.timers.(s) <- no_timer;
  t.args.(s) <- t.free;
  t.free <- s

(* Queue order on slots: earlier time first, insertion order among equal
   times. *)
let[@inline] before (times : float array) (seqs : int array) a b =
  let ta = times.(a) and tb = times.(b) in
  ta < tb || (ta = tb && seqs.(a) < seqs.(b))

let[@inline] put (h : int array) (pos : int array) i s =
  h.(i) <- s;
  pos.(s) <- i

(* Sift through a hole: entries move one level per step and [s] is
   written once, into the slot where it belongs. *)
let rec sift_up times seqs h pos s i =
  let parent = (i - 1) / 2 in
  if i > 0 && before times seqs s h.(parent) then begin
    put h pos i h.(parent);
    sift_up times seqs h pos s parent
  end
  else put h pos i s

let rec sift_down times seqs h pos size s i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let c = if l + 1 < size && before times seqs h.(l + 1) h.(l) then l + 1 else l in
    if before times seqs h.(c) s then begin
      put h pos i h.(c);
      sift_down times seqs h pos size s c
    end
    else put h pos i s
  end
  else put h pos i s

let push t s =
  if t.size = Array.length t.heap then t.heap <- extend t.heap t.size 0;
  t.size <- t.size + 1;
  sift_up t.times t.seqs t.heap t.pos s (t.size - 1)

(* Remove the slot at heap index [i]: the last entry fills the hole and
   sifts whichever way restores the order; [i < t.size]. *)
let remove_at t i =
  let h = t.heap and size = t.size - 1 in
  t.size <- size;
  if i < size then begin
    let last = h.(size) in
    if i > 0 && before t.times t.seqs last h.((i - 1) / 2) then
      sift_up t.times t.seqs h t.pos last i
    else sift_down t.times t.seqs h t.pos size last i
  end

let[@inline never] reject_time time =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN time"
  else invalid_arg "Engine.schedule: time in the past"

(* Inlined into its callers, so [time] reaches the slot array unboxed
   (across modules too, where the compiler inlines across them). *)
let[@inline] enqueue t ~time handler arg timer ~seq =
  if not (time >= t.clock.(0)) then reject_time time;
  let s = take_slot t in
  t.times.(s) <- time;
  t.handlers.(s) <- handler;
  t.args.(s) <- arg;
  t.timers.(s) <- timer;
  t.seqs.(s) <- seq;
  if timer != no_timer then (timer.slot <- s; t.queued_timers <- t.queued_timers + 1);
  push t s

let[@inline] reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let[@inline] schedule_reserved t ~seq ~time handler arg =
  enqueue t ~time handler arg no_timer ~seq

let[@inline] schedule_with t ~time handler arg =
  schedule_reserved t ~seq:(reserve t) ~time handler arg

let[@inline] schedule_timer_with t ~time handler arg =
  let timer = { id = t.next_timer; slot = -1 } in
  t.next_timer <- t.next_timer + 1;
  enqueue t ~time handler arg timer ~seq:(reserve t);
  if Sink.enabled t.obs then
    Sink.emit t.obs (Event.Timer_set { id = timer.id; time = t.clock.(0); fire_at = time });
  timer

(* Without a sink nothing can observe the timer, so it is [no_timer]. *)
let unqueued_timer t ~time =
  if not (time >= t.clock.(0)) then reject_time time;
  let id = t.next_timer in
  t.next_timer <- id + 1;
  if Sink.enabled t.obs then begin
    Sink.emit t.obs (Event.Timer_set { id; time = t.clock.(0); fire_at = time });
    { id; slot = -2 }
  end
  else no_timer

(* Without a sink an unqueued timer is [no_timer], and its queued one is
   a fresh handle only [cancel] and [step] read. *)
let arm t timer ~seq ~time handler arg =
  let timer = if timer == no_timer then { id = -1; slot = -2 } else timer in
  enqueue t ~time handler arg timer ~seq;
  timer

let observed t = Sink.enabled t.obs

let unqueued_event t cell =
  let time = cell.(0) in
  if not (time >= t.clock.(0)) then reject_time time;
  if time > t.clock.(1) then t.clock.(1) <- time

let schedule t ~time action = schedule_with t ~time (fun e _ -> action e) 0

let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~time:(t.clock.(0) +. delay) action

let schedule_timer t ~time action = schedule_timer_with t ~time (fun e _ -> action e) 0

let cancel t timer =
  let s = timer.slot in
  if s <> -1 then begin
    timer.slot <- -1;
    if s >= 0 then begin
      remove_at t t.pos.(s);
      release t s
    end;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock.(0) })
  end

let timer_live timer = timer.slot <> -1

let queued timer = timer.slot >= 0

let step t =
  if t.size = 0 then begin
    if t.clock.(1) > t.clock.(0) then t.clock.(0) <- t.clock.(1);
    false
  end
  else begin
    let s = t.heap.(0) in
    remove_at t 0;
    let handler = t.handlers.(s) and arg = t.args.(s) and timer = t.timers.(s) in
    t.clock.(0) <- t.times.(s);
    release t s;
    t.processed <- t.processed + 1;
    if timer != no_timer then begin
      timer.slot <- -1;
      if Sink.enabled t.obs then
        Sink.emit t.obs (Event.Timer_fire { id = timer.id; time = t.clock.(0) })
    end;
    handler t arg;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  while t.size > 0 && t.times.(t.heap.(0)) <= horizon do
    ignore (step t : bool)
  done;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t = t.size

let processed t = t.processed

let queued_timers t = t.queued_timers

let capacity t = Array.length t.times + Array.length t.heap

let check_invariant t =
  let cap = Array.length t.times in
  let ok = ref true in
  let before = before t.times t.seqs in
  let seen = Array.make cap 0 in
  let mark s = seen.(s) <- seen.(s) + 1 in
  (* Each heap slot records its heap index, and a queued timer names its
     own slot. *)
  for i = 0 to t.size - 1 do
    let s = t.heap.(i) in
    mark s;
    if (i > 0 && before s t.heap.((i - 1) / 2)) || t.pos.(s) <> i then ok := false;
    if t.timers.(s) != no_timer && t.timers.(s).slot <> s then ok := false
  done;
  (* Every slot is queued once or free once, and a free slot keeps
     nothing of the event that held it. *)
  let rec walk s steps =
    if s >= 0 && steps <= cap then begin
      mark s;
      if t.handlers.(s) != vacant || t.timers.(s) != no_timer then ok := false;
      walk t.args.(s) (steps + 1)
    end
  in
  walk t.free 0;
  Array.iter (fun c -> if c <> 1 then ok := false) seen;
  !ok
