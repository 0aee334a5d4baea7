module Sink = Gridb_obs.Sink
module Event = Gridb_obs.Event

type timer = { mutable live : bool; id : int }

type t = {
  (* Slot arrays, all of one length: a queued event is one index into
     them.  A free slot holds [vacant] and [no_timer], and its [args] entry
     links it to the next free slot (-1 ends the list). *)
  mutable times : float array;
  mutable seqs : int array;
  mutable handlers : (t -> int -> unit) array;
  mutable args : int array;
  mutable timers : timer array;  (* [no_timer] for a plain event *)
  mutable free : int;  (* first free slot, or -1 *)
  mutable heap : int array;  (* [0, size): binary min-heap of slots *)
  mutable size : int;
  mutable lane : int array;
      (* ring of [len] slots from [head], sorted; its length is a power of
         two *)
  mutable head : int;
  mutable len : int;
  mutable next_seq : int;
  obs : Sink.t;
  clock : float array;
      (* One cell: a mutable float field of this record would box on every
         write. *)
  mutable next_timer : int;
  mutable processed : int;
  mutable cancelled_pending : int;
}

(* Shared by every plain event: always live, never fired or cancelled. *)
let no_timer = { live = true; id = -1 }

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
    free = 0;
    heap = Array.make cap 0;
    size = 0;
    lane = Array.make cap 0;
    head = 0;
    len = 0;
    next_seq = 0;
    obs;
    clock = [| 0. |];
    next_timer = 0;
    processed = 0;
    cancelled_pending = 0;
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

(* Sift through a hole: entries move one level per step and [s] is
   written once, into the slot where it belongs. *)
let rec sift_up times seqs (h : int array) s i =
  let parent = (i - 1) / 2 in
  if i > 0 && before times seqs s h.(parent) then begin
    h.(i) <- h.(parent);
    sift_up times seqs h s parent
  end
  else h.(i) <- s

let rec sift_down times seqs (h : int array) size s i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let c = if l + 1 < size && before times seqs h.(l + 1) h.(l) then l + 1 else l in
    if before times seqs h.(c) s then begin
      h.(i) <- h.(c);
      sift_down times seqs h size s c
    end
    else h.(i) <- s
  end
  else h.(i) <- s

let push t s =
  if t.size = Array.length t.heap then t.heap <- extend t.heap t.size 0;
  t.size <- t.size + 1;
  sift_up t.times t.seqs t.heap s (t.size - 1)

(* Remove and return the heap's earliest slot; [t.size > 0]. *)
let pop t =
  let h = t.heap and size = t.size - 1 in
  let top = h.(0) in
  t.size <- size;
  if size > 0 then sift_down t.times t.seqs h size h.(size) 0;
  top

(* The lane is a FIFO of slots appended in non-decreasing time.  Their seqs
   increase too, so it stays sorted by (time, seq) and its head is its
   earliest event. *)
let lane_last t = t.lane.((t.head + t.len - 1) land (Array.length t.lane - 1))

let append t s =
  let cap = Array.length t.lane in
  if t.len = cap then begin
    (* Unroll the ring into the doubled array, head first. *)
    let bigger = Array.make (2 * cap) 0 in
    Array.blit t.lane t.head bigger 0 (cap - t.head);
    Array.blit t.lane 0 bigger (cap - t.head) t.head;
    t.lane <- bigger;
    t.head <- 0
  end;
  t.lane.((t.head + t.len) land (Array.length t.lane - 1)) <- s;
  t.len <- t.len + 1

let pop_lane t =
  let s = t.lane.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.lane - 1);
  t.len <- t.len - 1;
  s

(* Whether the earliest queued event is the lane's head rather than the
   heap's top; the queue is not empty.  Taking the smaller (time, seq) of
   the two sorted sources gives the same order one heap of every event
   would. *)
let lane_first t =
  t.len > 0 && (t.size = 0 || before t.times t.seqs t.lane.(t.head) t.heap.(0))

let[@inline] is_empty t = t.size = 0 && t.len = 0

(* The earliest queued slot; the queue is not empty. *)
let peek t = if lane_first t then t.lane.(t.head) else t.heap.(0)

(* Remove the earliest slot; the queue is not empty. *)
let pop_head t = if lane_first t then pop_lane t else pop t

let place t s =
  t.seqs.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if t.len = 0 || t.times.(s) >= t.times.(lane_last t) then append t s else push t s

let[@inline never] reject_time time =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN time"
  else invalid_arg "Engine.schedule: time in the past"

(* Inlined into its callers, so [time] reaches the slot array unboxed
   (across modules too, where the compiler inlines across them). *)
let[@inline] enqueue t ~time handler arg timer =
  if not (time >= t.clock.(0)) then reject_time time;
  let s = take_slot t in
  t.times.(s) <- time;
  t.handlers.(s) <- handler;
  t.args.(s) <- arg;
  t.timers.(s) <- timer;
  place t s

let[@inline] schedule_with t ~time handler arg = enqueue t ~time handler arg no_timer

let[@inline] schedule_timer_with t ~time handler arg =
  let timer = { live = true; id = t.next_timer } in
  t.next_timer <- t.next_timer + 1;
  enqueue t ~time handler arg timer;
  if Sink.enabled t.obs then
    Sink.emit t.obs (Event.Timer_set { id = timer.id; time = t.clock.(0); fire_at = time });
  timer

let schedule t ~time action = schedule_with t ~time (fun e _ -> action e) 0

let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~time:(t.clock.(0) +. delay) action

let schedule_timer t ~time action = schedule_timer_with t ~time (fun e _ -> action e) 0

let cancel t timer =
  if timer.live then begin
    timer.live <- false;
    t.cancelled_pending <- t.cancelled_pending + 1;
    if Sink.enabled t.obs then
      Sink.emit t.obs (Event.Timer_cancel { id = timer.id; time = t.clock.(0) })
  end

let timer_live timer = timer.live

(* Drop cancelled events sitting at the head of the queue: they must be
   invisible to [step]/[run_until] (neither executed, nor allowed to drag
   the clock or the horizon check). *)
let rec drop_cancelled t =
  if t.cancelled_pending > 0 && not (is_empty t) && not t.timers.(peek t).live then begin
    release t (pop_head t);
    t.cancelled_pending <- t.cancelled_pending - 1;
    drop_cancelled t
  end

let step t =
  drop_cancelled t;
  if is_empty t then false
  else begin
    let s = pop_head t in
    let handler = t.handlers.(s) and arg = t.args.(s) and timer = t.timers.(s) in
    t.clock.(0) <- t.times.(s);
    release t s;
    t.processed <- t.processed + 1;
    if timer != no_timer then begin
      timer.live <- false;
      if Sink.enabled t.obs then
        Sink.emit t.obs (Event.Timer_fire { id = timer.id; time = t.clock.(0) })
    end;
    handler t arg;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  drop_cancelled t;
  while (not (is_empty t)) && t.times.(peek t) <= horizon do
    ignore (step t : bool);
    drop_cancelled t
  done;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let pending t =
  drop_cancelled t;
  t.size + t.len - t.cancelled_pending

let processed t = t.processed

let capacity t = Array.length t.times + Array.length t.heap + Array.length t.lane

let check_invariant t =
  let cap = Array.length t.times in
  let ok = ref true in
  let before = before t.times t.seqs in
  for i = 1 to t.size - 1 do
    if before t.heap.(i) t.heap.((i - 1) / 2) then ok := false
  done;
  let slot k = t.lane.((t.head + k) land (Array.length t.lane - 1)) in
  for k = 1 to t.len - 1 do
    if before (slot k) (slot (k - 1)) then ok := false
  done;
  (* Every slot is queued once (heap or lane) or free once, and a free
     slot keeps nothing of the event that held it. *)
  let seen = Array.make cap 0 in
  let mark s = seen.(s) <- seen.(s) + 1 in
  for i = 0 to t.size - 1 do mark t.heap.(i) done;
  for k = 0 to t.len - 1 do mark (slot k) done;
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
