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

    Memory: the queue is a binary min-heap of (time, insertion seq)
    ordered events.  A popped slot is overwritten with a shared vacant
    record, so a fired event, and all its callback captured, is
    unreachable from the engine: memory follows the events still queued.

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
(** Backing array length: 16, doubled only when full, so at most
    [max 16 (2 * peak)] for [peak] the most events ever queued at once. *)

val check_invariant : t -> bool
(** True iff the queued events form a (time, insertion seq) min-heap and
    every slot past them is vacant (holds no fired event). *)
