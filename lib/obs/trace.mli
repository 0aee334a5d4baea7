(** Transmissions read off an event stream — the one place that decides
    what counts as one transmission.

    A transmission is a [Send_start] paired with the next [Send_end] of the
    same session and directed link, keyed by [(sid, src, dst)] ([sid] is
    the {!Event.Tagged} correlation id, [None] for untagged events).
    {!of_events} returns the paired records and, separately, every event it
    could not pair: lenient consumers ({!Profile}, the event Gantt chart,
    the transmission analyses below) read only the records, while the
    stream invariants of [Gridb_check.Invariant] reject any stream with an
    unpaired event.

    A session run with a {!Sink.memory} sink logs every point-to-point
    transmission; the analyses here give per-sender NIC busy time and the
    critical path to the last delivery. *)

type transmission = {
  sid : int option;  (** correlation id of the tagged events, if any *)
  src : int;
  dst : int;
  start : float;  (** injection start, us *)
  gap_end : float;  (** sender NIC free again *)
  arrival : float;  (** when the message reaches [dst] (if it does) *)
  msg : int;  (** bytes *)
  intra : bool;  (** both ranks in the same cluster *)
  try_no : int;  (** 0 for first attempts, >= 1 for retransmissions *)
}

type fault =
  | Started_twice
      (** a start on a link whose previous start is still open; the earlier
          start is dropped and the later one pairs with the next end *)
  | End_without_start  (** an end with no open start on its link *)
  | Start_without_end  (** a start still open when the stream ends *)

type unpaired = { fault : fault; link : int option * int * int  (** [(sid, src, dst)] *) }

type t = {
  transmissions : transmission list;  (** in stream order of their ends *)
  unpaired : unpaired list;
      (** in stream order; starts that never end come last, in the order
          they started *)
}

val of_events : Event.t list -> t
(** Pair a chronological stream.  Every other event is ignored. *)

val describe : unpaired -> string
(** One line, e.g. ["session 3: send 0 -> 5 ends without a start"]. *)

val sender_busy_time : transmission list -> (int * float) list
(** Total NIC occupancy per sending rank, descending. *)

val busiest_sender : transmission list -> (int * float) option

val critical_path : transmission list -> transmission list
(** The chain of transmissions leading to the latest arrival, from the
    first hop to the last (each hop's receiver is the next hop's sender).
    Empty for an empty list. *)

val total_bytes : transmission list -> int
