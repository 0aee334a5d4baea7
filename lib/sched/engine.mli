(** Shared schedule construction engine for {!Policy} descriptors.

    Two interchangeable execution modes:

    - [`Naive] — the paper's reference procedure: every round, re-evaluate
      the selection rule over the full A×B frontier (and, for lookahead
      policies, recompute every [F_j] from scratch).  O(n^3) for the plain
      heuristics and O(n^4)-ish for the ECEF-LA* family, but trivially
      correct; kept as the oracle the differential tests compare against.

    - [`Incremental] (default) — exploits the {!State.send} invariant
      (after a send, among A only the sender's [avail] changed, and only
      the receiver moved B→A) to keep per-receiver best-sender heaps with
      lazy invalidation: a stale entry under-estimates its true score (an
      [avail] only ever advances), so it surfaces at the top, is re-scored
      and pushed back down ({!field-rescored} counts these).  Static fold
      lookahead terms live in per-receiver heaps with lazy deletion as B
      shrinks; dynamic lookaheads are re-evaluated fresh, as the oracle
      does.  ~O(n^2 log n) per schedule.

    Both modes produce the {e identical} schedule — event for event,
    including the naive scan's ascending-(i, j) tie-breaking (scores are
    recomputed with the same expressions, so equality is bitwise). *)

type mode = [ `Incremental | `Naive ]

type stats = {
  mutable pair_evaluations : int;
      (** Pair-score computations ([L], [g + L] or arrival, depending on
          the policy), including re-scores of stale heap entries. *)
  mutable lookahead_terms : int;
      (** Lookahead work in units of one [F_j] term; a full [F_j]
          evaluation over [B \ {j}] counts [|B| - 1]. *)
  mutable rescored : int;
      (** Stale candidate entries re-scored on pop (always 0 in [`Naive]
          mode and for static pair scores). *)
}

val run : ?mode:mode -> ?obs:Gridb_obs.Sink.t -> Policy.t -> Instance.t -> Schedule.t
(** [run ?mode policy inst] builds the broadcast schedule for [inst].
    [Sized] policies are resolved against [inst]'s size first.

    [obs] (default {!Gridb_obs.Sink.null}) receives one [Policy_round] per
    selection, [Heap_op] events for lazy re-scores/drops of the incremental
    heaps, and the {!type-stats} counters as [Counter] events at the end.
    With the Null sink every emission site is one always-false branch; the
    schedule built is bit-identical either way. *)

val run_stats :
  ?mode:mode -> ?obs:Gridb_obs.Sink.t -> Policy.t -> Instance.t -> Schedule.t * stats
(** Same, also returning work counters — the naive counters match the
    {!Overhead} closed forms exactly; {!run} is this with the counters
    dropped.  The returned record holds the same values the [Counter]
    events publish on [obs]. *)

val makespan :
  ?model:Schedule.completion_model -> ?mode:mode -> Policy.t -> Instance.t -> float
(** [Schedule.makespan ?model inst (run ?mode policy inst)]. *)

val naive_select : Policy.t -> State.t -> int * int
(** One reference selection round: the (sender, receiver) pair the naive
    scan picks in the given state ({!Repair} drives its splices with it).
    @raise Invalid_argument if the state is finished. *)
