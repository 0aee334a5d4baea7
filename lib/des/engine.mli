(** Generic discrete-event simulation engine.

    A minimal sequential DES: a clock and a time-ordered queue of callbacks.
    Events scheduled at equal times fire in insertion order (stable), which
    keeps runs reproducible.  Broadcast sessions ({!Session}, best-effort
    and reliable), the MPI layer and the {!Faults}-driven failure-injection
    tests all run on this engine.

    Timers: {!schedule_timer} enqueues a {e cancellable} event and returns a
    handle; {!cancel} marks it dead.  Cancelled events are never executed —
    they are silently dropped when they reach the head of the queue — and do
    not advance the clock, count towards {!processed}, or hold back a
    {!run_until} horizon.  This is what arms the ACK-guarded retransmission
    timers of the reliable executor: the common (ACK received) path cancels
    the timer instead of letting a stale timeout fire.

    Memory: a queued event is a {e slot}, one index into parallel arrays
    of times (unboxed floats), insertion seqs, handlers, [int] payloads
    and timer handles; a list of free slots, linked through the payload
    array, recycles them.  The queue
    itself orders slot indices: a slot goes to the {e lane}, a FIFO ring,
    when its time is at least that of the lane's last event (or the lane
    is empty), and to a binary min-heap otherwise.  Lane events are
    appended in non-decreasing time with increasing seq, so the lane stays
    sorted, and the next event is the earlier of the lane's head and the
    heap's top: exactly the order one heap of every event would give,
    equal-time ties included.  Events scheduled in time order, such as a
    service's session starts in arrival order, cost O(1) each and stay out
    of the heap, which then holds only the work in flight.  A sift moves
    ints and compares unboxed floats, and the clock is a one-cell float
    array, so the queue allocates nothing per event (its arrays double
    when full).  A fired
    slot is cleared at once, so its handler, and all the handler captured,
    is unreachable from the engine: memory follows the events still
    queued.

    Events: the allocation-free form is {!schedule_with} — a handler
    [t -> int -> unit] built once (say, per session) plus an [int]
    payload naming what the event is about — and its timer variant
    {!schedule_timer_with}, which allocates only the {!timer} handle.
    {!schedule} and {!schedule_timer} are thin wrappers that wrap a
    closure [t -> unit] into a handler, one small block per event.

    Observability: pass a {!Gridb_obs.Sink.t} at creation to receive
    [Timer_set]/[Timer_fire]/[Timer_cancel] events.  With the default
    {!Gridb_obs.Sink.null} sink the emission sites reduce to a single
    always-false branch — the hot path is unchanged. *)

type t

type timer
(** Handle of a cancellable event. *)

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

val schedule : t -> time:float -> (t -> unit) -> unit
(** Enqueue a callback at an absolute time.
    @raise Invalid_argument if [time] is NaN or in the past (< [now t]). *)

val schedule_after : t -> delay:float -> (t -> unit) -> unit
(** Relative variant.  @raise Invalid_argument if [delay < 0.] or NaN. *)

val schedule_timer : t -> time:float -> (t -> unit) -> timer
(** Like {!schedule}, returning a handle usable with {!cancel}.
    @raise Invalid_argument if [time] is NaN or in the past. *)

val cancel : t -> timer -> unit
(** Mark the timer's event dead; it will never execute.  Cancelling an
    already-cancelled or already-fired timer is a no-op. *)

val timer_live : timer -> bool
(** False once cancelled or fired. *)

val step : t -> bool
(** Execute the next live event; [false] when the queue is empty (cancelled
    events are discarded, not executed). *)

val run : t -> unit
(** Drain the queue.  Terminates iff the simulated system quiesces. *)

val run_until : t -> float -> unit
(** Process live events with time <= the horizon; later events stay queued
    and [now] is advanced to the horizon. *)

val pending : t -> int
(** Live events still queued (cancelled events are not counted). *)

val processed : t -> int
(** Events executed so far. *)

(** {2 Queue introspection, for tests} *)

val capacity : t -> int
(** Number of event slots (the length of each slot array) plus the
    lengths of the heap and lane arrays.  Each of the three starts at 16
    and doubles only when full, so the total is at most
    [3 * max 16 (2 * peak)] for [peak] the most events ever queued at
    once. *)

val check_invariant : t -> bool
(** True iff the heap's slots form a (time, insertion seq) min-heap, the
    lane's slots are sorted by (time, insertion seq), every slot is either
    queued once (heap or lane) or on the free list once, and every free
    slot is cleared (holds no handler or timer of a fired event). *)
