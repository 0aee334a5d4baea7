(** Typed simulation/scheduling events — the vocabulary of the
    observability bus.

    Every instrumented layer speaks this one type: the DES executors emit
    the data-plane events ([Send_start] .. [Give_up]), the event engine its
    timer lifecycle, simMPI its message plane, the scheduling engine its
    per-round picks, work counters and heap maintenance, MagPIe its cache
    and strategy decisions, and the repair machinery its splices.  Sinks
    ({!Sink}) receive events.  {!Trace.of_events} is the one reader that
    pairs [Send_start]/[Send_end] into transmissions; the consumers
    ({!Profile}, [Gridb_sched.Gantt.render_events] and the stream
    invariants of [Gridb_check.Invariant]) fold over its records.

    Times are producer-defined: simulation events carry simulated
    microseconds, span events whatever clock the producer sampled ([gridsched
    profile] uses host monotonic time) — only differences within one
    producer are meaningful. *)

type heap_op =
  | Rescore  (** a stale candidate entry was re-scored on pop *)
  | Drop  (** a dead lookahead entry was permanently dropped *)

type t =
  (* DES data plane *)
  | Send_start of {
      src : int;
      dst : int;
      time : float;  (** injection start *)
      msg : int;  (** bytes *)
      intra : bool;  (** both ranks in the same cluster *)
      try_no : int;  (** 0 for first attempts, >= 1 for retransmissions *)
    }
  | Send_end of {
      src : int;
      dst : int;
      time : float;  (** sender NIC free again (gap end) *)
      arrival : float;  (** when the message reaches [dst] (if it does) *)
    }
  | Arrival of { src : int; dst : int; time : float }
      (** [dst] holds the message (first delivery only). *)
  | Ack of { src : int; dst : int; time : float }
      (** control-plane acknowledgement for edge [src -> dst] delivered *)
  | Retransmit of { src : int; dst : int; time : float; try_no : int; rto : float }
      (** timeout-triggered re-send; [rto] is the (doubled) next timeout *)
  | Give_up of { src : int; dst : int; time : float }
      (** retry budget exhausted; the edge is abandoned *)
  | Circuit_open of { src : int; dst : int; time : float }
      (** the adaptive transport's per-link breaker tripped: consecutive
          timeouts (or an RTT blow-up) took the link out of service *)
  | Circuit_close of { src : int; dst : int; time : float }
      (** a half-open probe succeeded; the link is back in service *)
  | Reroute of { dst : int; old_parent : int; new_parent : int; time : float }
      (** the adaptive transport re-parented an orphaned receiver (and its
          planned subtree) onto an already-delivered rank *)
  (* DES engine timers *)
  | Timer_set of { id : int; time : float; fire_at : float }
  | Timer_fire of { id : int; time : float }
  | Timer_cancel of { id : int; time : float }
  (* simMPI message plane *)
  | Msg_send of { src : int; dst : int; tag : int; size : int; time : float }
  | Msg_recv of { src : int; dst : int; tag : int; time : float }
  | Recv_timeout of { rank : int; time : float }
      (** a [recv_timeout] deadline expired with no matching message *)
  (* scheduling *)
  | Policy_round of { round : int; src : int; dst : int }
      (** one selection round of the scheduling engine picked [src -> dst] *)
  | Heap_op of { op : heap_op; receiver : int; sender : int }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Strategy_selected of { name : string; predicted : float }
      (** adaptive strategy selection settled on [name] *)
  | Repair_splice of { crashed : int; replanned : int }
      (** schedule repair replayed around [crashed] coordinators and
          replanned [replanned] transmissions *)
  (* broadcast service (control plane) *)
  | Shed of { rid : int; priority : string; reason : string; time : float }
      (** degraded-mode admission dropped request [rid] ([priority] is the
          request's class, [reason] the typed shed reason rendered) *)
  | Retry of { rid : int; attempt : int; time : float }
      (** the server re-enqueued a partially-delivered request; [attempt]
          is the 1-based retry number, [time] when the relaunch starts *)
  | Deadline_miss of { rid : int; deadline : float; finish : float }
      (** request [rid] (deadline [deadline] us after arrival) did not
          reach full delivery until [finish] — or never, [finish = nan] *)
  (* generic *)
  | Counter of { name : string; value : int }
  | Span_start of { name : string; time : float }
  | Span_end of { name : string; time : float }
  | Tagged of { sid : int; event : t }
      (** [event], correlated with broadcast session / service request
          [sid].  The session layer wraps every event it publishes so
          multi-broadcast streams can be attributed per request; JSON adds
          one flat ["sid"] field to the inner event's object.  [event] is
          never itself [Tagged] when built with {!tag}. *)

val untag : t -> t
(** Strip any [Tagged] wrappers ({!tag} never nests them, but [untag] is
    total anyway). *)

val sid : t -> int option
(** The correlation id, for [Tagged] events. *)

val tag : sid:int -> t -> t
(** [tag ~sid e] is [Tagged { sid; event = untag e }]. *)

val to_json : t -> string
(** One-line JSON object, no trailing newline.  Floats are printed with
    17 significant digits so {!of_json} round-trips them bit-exactly. *)

val of_json : string -> (t, string) result
(** Parse one line produced by {!to_json} (tolerates surrounding
    whitespace).  [Error] carries a human-readable reason. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering (the JSON form). *)

val equal : t -> t -> bool
(** Structural equality ([Stdlib.( = )]); exposed for tests. *)
