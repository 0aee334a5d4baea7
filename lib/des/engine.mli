(** Generic discrete-event simulation engine.

    A minimal sequential DES: a clock and a time-ordered queue of callbacks.
    Events scheduled at equal times fire in insertion order (stable), which
    keeps runs reproducible.  Broadcast sessions ({!Session}, best-effort
    and reliable), the MPI layer and the {!Faults}-driven failure-injection
    tests all run on this engine.

    Timers: {!schedule_timer} enqueues a {e cancellable} event and returns a
    handle; {!cancel} removes its event from the queue at once.  A cancelled
    event is never executed, and does not advance the clock, count towards
    {!processed}, or hold back a {!run_until} horizon.  This is what arms
    the ACK-guarded retransmission timers of the reliable executor: the
    common (ACK received) path cancels the timer instead of letting a stale
    timeout fire, and the cancelled slot is free for the next event.  A
    timer may also start unqueued ({!unqueued_timer}, {!reserve}): it
    holds the insertion seq it would have taken, and {!arm} queues it at
    that [(time, seq)] once its caller knows it may fire, so it pops
    exactly where it would have, and one cancelled first is never queued.

    Memory: a queued event is a {e slot}, one index into parallel arrays
    of times (unboxed floats), insertion seqs, handlers, [int] payloads
    and timer handles; a list of free slots, linked through the payload
    array, recycles them.  The queue
    itself orders slot indices: a slot goes to the {e lane}, a FIFO ring,
    when its time is at least that of the lane's last event (or the lane
    is empty), and to a binary min-heap otherwise; a timer always goes to
    the heap, which records each slot's position so {!cancel} can take it
    out of the middle in O(log n).  Lane events are
    appended in non-decreasing time with increasing seq, so the lane stays
    sorted, and the next event is the earlier of the lane's head and the
    heap's top: exactly the order one heap of every event would give,
    equal-time ties included.  Events scheduled in time order, such as a
    service's session starts in arrival order, cost O(1) each and stay out
    of the heap, which then holds only the work in flight.  A sift moves
    ints and compares unboxed floats, and the clock is a float array
    cell, so the queue allocates nothing per event (its arrays double
    when full).  A fired
    or cancelled slot is cleared at once, so its handler, and all the
    handler captured, is unreachable from the engine: memory follows the
    live events still queued.

    Events: the allocation-free form is {!schedule_with} — a handler
    [t -> int -> unit] built once (say, per session) plus an [int]
    payload naming what the event is about — and its timer variant
    {!schedule_timer_with}, which allocates only the {!timer} handle
    (three words).
    {!schedule} and {!schedule_timer} are thin wrappers that wrap a
    closure [t -> unit] into a handler, one small block per event.

    Observability: pass a {!Gridb_obs.Sink.t} at creation to receive
    [Timer_set]/[Timer_fire]/[Timer_cancel] events.  With the default
    {!Gridb_obs.Sink.null} sink the emission sites reduce to a single
    always-false branch — the hot path is unchanged. *)

type t

type timer
(** Handle of a cancellable event. *)

val no_timer : timer
(** A handle that is never live: {!cancel} on it is a no-op.  It fills
    a slot that holds no timer, so a caller needs no [timer option]. *)

val create : ?obs:Gridb_obs.Sink.t -> unit -> t
(** [obs] defaults to {!Gridb_obs.Sink.null} (no instrumentation). *)

val now : t -> float
(** Current simulation time (us).  0. before the first event. *)

val schedule_with : t -> time:float -> (t -> int -> unit) -> int -> unit
(** [schedule_with t ~time handler arg] enqueues [handler t arg] at an
    absolute time.  It is marked for inlining, so where the compiler
    inlines across modules (not under [-opaque], which dune's dev profile
    passes) [time] reaches the slot array unboxed.
    @raise Invalid_argument if [time] is NaN or in the past (< [now t]). *)

val schedule_timer_with : t -> time:float -> (t -> int -> unit) -> int -> timer
(** Like {!schedule_with}, returning a handle usable with {!cancel}.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val unqueued_timer : t -> time:float -> timer
(** A timer at [time] that starts unqueued: not queued, nor counted by
    {!pending}, until {!arm} queues it.  It takes the next timer id and
    publishes [Timer_set] as {!schedule_timer_with} does; {!cancel} on it
    publishes [Timer_cancel] once.  Without an enabled sink it allocates
    nothing and returns {!no_timer}.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val reserve : t -> int
(** Take the next insertion seq, as {!schedule_timer_with} does, for a
    timer that {!arm} may queue later. *)

val arm : t -> timer -> seq:int -> time:float -> (t -> int -> unit) -> int -> timer
(** Queue an unqueued timer (a fresh handle for {!no_timer}) at the
    [(time, seq)] it reserved: it pops where {!schedule_timer_with} at the
    reservation would have put it, ties included, if nothing after
    [(time, seq)] has popped yet.  It publishes nothing.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val unqueued_event : t -> float array -> unit
(** [unqueued_event t cell]: an event at [cell.(0)] (a cell, so no float
    crosses a module boundary boxed) that its caller settled without
    queueing.  It raises a watermark that {!step}, so {!run}, adopts as
    [now] once the queue is empty, if later; {!run_until} never does, and
    {!processed} and {!pending} do not count the event.
    @raise Invalid_argument if the time is NaN or in the past. *)

val observed : t -> bool
(** Whether the engine has an enabled sink, without which no {!timer} id
    is ever seen: a caller may then skip {!unqueued_timer}. *)

val schedule : t -> time:float -> (t -> unit) -> unit
(** Enqueue a callback at an absolute time.
    @raise Invalid_argument if [time] is NaN or in the past (< [now t]). *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Relative variant.  @raise Invalid_argument if [delay < 0.] or NaN. *)

val schedule_timer : t -> time:float -> (t -> unit) -> timer
(** Like {!schedule}, returning a handle usable with {!cancel}.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val cancel : t -> timer -> unit
(** Remove the timer's event from the queue; it will never execute.
    Cancelling an already-cancelled or already-fired timer, or
    {!no_timer}, is a no-op. *)

val timer_live : timer -> bool
(** False once cancelled or fired, and for {!no_timer}. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty, which first
    adopts the {!unqueued_event} watermark. *)

val run : t -> unit
(** Drain the queue.  Terminates iff the simulated system quiesces. *)

val run_until : t -> float -> unit
(** Process live events with time <= the horizon; later events stay queued
    and [now] is advanced to the horizon. *)

val pending : t -> int
(** Events still queued; a cancelled event has already left the queue. *)

val processed : t -> int
(** Events executed so far. *)

(** {2 Queue introspection, for tests} *)

val queued_timers : t -> int
(** Timers queued so far, by {!schedule_timer_with} or {!arm}. *)

val capacity : t -> int
(** Number of event slots (the length of each slot array) plus the
    lengths of the heap and lane arrays.  Each of the three starts at 16
    and doubles only when full, so the total is at most
    [3 * max 16 (2 * peak)] for [peak] the most events ever queued at
    once. *)

val check_invariant : t -> bool
(** True iff the heap's slots form a (time, insertion seq) min-heap and
    each records its own heap position, the lane's slots are sorted by
    (time, insertion seq) and hold no timer, every queued timer names its
    own slot, every slot is either queued once (heap or lane) or on the
    free list once (so no free slot is queued), and every free slot is
    cleared (holds no handler or timer of a fired or cancelled event). *)
