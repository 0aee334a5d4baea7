(** Total invariant predicates over schedules and DES event streams.

    Everything the pipeline produces must be machine-checkable: a schedule
    is well-formed not because {!Gridb_sched.Schedule.validate} said so but
    because an {e independent} recomputation from first principles agrees
    with it, and a DES run is faithful not by construction but because its
    event stream satisfies the conservation laws of a broadcast.  Every
    predicate here recomputes what it checks from scratch — none delegates
    to the code under test — so a bug in the scheduling engine, the DES
    executor or the transport layer cannot vouch for itself.

    Two families:

    - {b schedule invariants} ({!check_schedule}) over an
      [Instance.t * Schedule.t] pair: receive-once, causality, per-NIC gap
      serialization, round-by-round A/B set discipline, and a full
      independent makespan recomputation;
    - {b stream invariants} ({!check_stream}) over the observability event
      list of an executed run: exactly-once (or, under faults,
      at-most-once) delivery, send-after-receive causality, per-NIC
      interval non-overlap, pLogP gap conformance, and "no spontaneous
      delivery" (every arrival is explained by a transmission).

    The schedule comparisons use a relative epsilon (1e-9) because the
    recomputation may not share every float association with the engine;
    the stream comparisons are {e exact} — the DES derives every time with
    the same expressions the invariants assume, so any difference at all is
    a bug. *)

type violation = { invariant : string; detail : string }
(** A named invariant and a human-readable description of how it broke. *)

type outcome = (unit, violation) result

val pp_violation : Format.formatter -> violation -> unit

val feq : ?eps:float -> float -> float -> bool
(** Relative float comparison ([eps] defaults to 1e-9) used by the
    analytic-side checks. *)

val cross_check : invariant:string -> expected:float -> got:float -> outcome
(** [feq] as an invariant: agreement between two independently computed
    quantities (e.g. analytic makespan vs DES arrival max). *)

(** {1 Schedule invariants}

    All take the instance and the schedule; names match
    {!schedule_invariant_names}. *)

val receive_once : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** ["receive-once"]: every non-root cluster is the destination of exactly
    one transmission, the root of none, and no destination is out of
    range. *)

val causality : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** ["causality"]: no coordinator starts a send before its own arrival
    (replayed from the event list, not read from [ready]). *)

val nic_serialization : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** ["nic-serialization"]: per coordinator, consecutive sends are separated
    by at least the pLogP gap of the link — no send starts while the
    previous gap is still occupying the NIC, and every recorded
    [sender_free] equals [start + g]. *)

val ab_discipline : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** ["ab-discipline"]: the Section 3 state machine, round by round — rounds
    are numbered consecutively from 0, every sender is already in [A],
    every receiver still in [B] (and moves to [A]), and [B] is empty at the
    end. *)

val makespan_recomputation :
  Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** ["makespan-recomputation"]: replays the transmission order from scratch
    with the instance matrices only, and requires the recomputed per-event
    [start]/[sender_free]/[arrival], per-cluster [ready]/[busy_until] and
    the resulting [After_sends] makespan to all agree with what the
    schedule records and with {!Gridb_sched.Schedule.makespan}. *)

val check_schedule : Gridb_sched.Instance.t -> Gridb_sched.Schedule.t -> outcome
(** All of the above, in catalogue order; first violation wins. *)

val schedule_invariant_names : string list

(** {1 Replay}

    The independent recomputation, exposed for the metamorphic laws. *)

val replay :
  Gridb_sched.Instance.t -> (int * int) list -> (float array * float array, string) result
(** [replay inst order] applies the [(src, dst)] transmissions in order
    from a fresh state and returns [(ready, busy)] per cluster ([busy] is 0
    for pure leaves).  [Error] if a sender does not hold the message when
    it sends, or a cluster receives twice. *)

val replay_completion :
  Gridb_sched.Instance.t -> (int * int) list -> (float array, string) result
(** Per-cluster [After_sends] completion times of {!replay}:
    [max ready busy + T]. *)

val replay_makespan :
  Gridb_sched.Instance.t -> (int * int) list -> (float, string) result
(** Maximum of {!replay_completion}. *)

(** {1 Stream invariants}

    Over the chronological event list of a DES run ([n] ranks, plan rooted
    at rank [root]); names match {!stream_invariant_names}. *)

val stream_receive_exactly_once : n:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-receive-once"]: every rank has exactly one [Arrival] — the
    fault-free contract. *)

val stream_receive_at_most_once : n:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-receive-at-most-once"]: no rank has two [Arrival]s — the
    contract that survives faults (partial delivery allowed). *)

val stream_causality : n:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-causality"]: every [Send_start] by rank [r] happens at or
    after [r]'s own [Arrival]; a rank that never received sends nothing. *)

val stream_nic_serialization : n:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-nic-serialization"]: pairing each [Send_start] with its
    [Send_end], the injection intervals of any one sender never overlap
    (ACKs are control-plane and exempt by construction — they produce no
    send events). *)

val stream_gap_conformance :
  machines:Gridb_topology.Machines.t -> msg:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-gap-conformance"]: in an exact-noise fault-free run, every
    injection occupies the NIC for precisely the link's pLogP gap at [msg]
    bytes, and delivers exactly one latency later. *)

val stream_no_spontaneous_delivery : root:int -> Gridb_obs.Event.t list -> outcome
(** ["stream-no-spontaneous-delivery"]: every [Arrival] (except the root's
    own injection of the message) is explained by a [Send_end] of the same
    edge whose predicted arrival is exactly that time. *)

val check_stream : ?faulty:bool -> n:int -> root:int -> Gridb_obs.Event.t list -> outcome
(** Receive discipline (exactly-once, or at-most-once when [faulty], which
    defaults to false), causality, NIC serialization and no-spontaneous-
    delivery, in that order. *)

(** {1 Multi-session streams}

    A service run interleaves many broadcast sessions on one engine, every
    published event wrapped in [Tagged { sid; _ }] by the session layer. *)

val split_sessions : Gridb_obs.Event.t list -> (int * Gridb_obs.Event.t list) list
(** Partition a merged stream by session id: one [(sid, events)] group per
    sid seen, events untagged with their original order preserved, groups
    sorted by sid.  Untagged events (cache counters, engine bookkeeping)
    belong to no session and are dropped. *)

val sessions_nic_serialization : n:int -> Gridb_obs.Event.t list -> outcome
(** ["sessions-nic-serialization"]: pairing each session's [Send_start]
    with its [Send_end] (keys are [(sid, src, dst)]), the injection
    intervals of any one sender NIC never overlap {e across} sessions —
    the shared-wire one-port discipline that only exists in multi-session
    runs.  Untagged events are ignored. *)

val sessions_start_order : Gridb_obs.Event.t list -> outcome
(** ["start-order"]: when a session's root self-arrival (its start) is
    stamped [T], no [Arrival] or [Ack] of another session stamped [T]
    comes before it in the stream — every start fires before the other
    handlers due at its time.  Starts of other sessions at [T] and
    untagged events are ignored.  Listed with the service family's checks
    ([Run.service_invariant_names]), which runs it on one arrival window
    whose sessions are all scheduled before the engine runs. *)

val stream_invariant_names : string list
