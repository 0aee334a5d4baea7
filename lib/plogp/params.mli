(** pLogP parameter sets (Kielmann et al., "Network performance-aware
    collective communication for clustered wide area systems").

    pLogP extends LogP with message-size-dependent parameters:
    - [l]      end-to-end latency (microseconds), size independent;
    - [g m]    gap: minimal interval between consecutive transmissions of
               messages of size [m] — the reciprocal of effective bandwidth;
    - [os m]   send overhead: CPU time the sender is busy;
    - [or_ m]  receive overhead: CPU time the receiver is busy.

    The gap dominates both overheads for the networks the paper studies, so
    [g] is required while [os]/[or_] default to a fixed fraction of [g]. *)

type t

val v :
  ?os:Piecewise.t -> ?or_:Piecewise.t -> latency:float -> gap:Piecewise.t -> unit -> t
(** Builds a parameter set.  When omitted, [os] and [or_] default to
    [Piecewise.scale overhead_fraction gap] with {!overhead_fraction}.
    @raise Invalid_argument if [latency] or a value of the [gap], [os] or
    [or_] table is NaN, infinite or negative. *)

val overhead_fraction : float
(** Fraction of the gap attributed to CPU overhead when no measured overhead
    is supplied (0.05). *)

val linear : latency:float -> g0:float -> bandwidth_mb_s:float -> t
(** Closed-form convenience: gap(m) = g0 + m / bandwidth.  [bandwidth_mb_s]
    is in decimal MB/s (1 MB/s = 1 byte/us exactly in this codebase's units).
    @raise Invalid_argument if [latency] or [g0] is NaN, infinite or
    negative, or [bandwidth_mb_s] is NaN, infinite or [<= 0.]. *)

val latency : t -> float
val gap : t -> int -> float
val send_overhead : t -> int -> float
val recv_overhead : t -> int -> float
val gap_table : t -> Piecewise.t

val send_time : t -> int -> float
(** Time for a message of size [m] to be fully received, sender and receiver
    idle before the transfer: [g m + l] (the paper's [g_ij(m) + L_ij]). *)

val sender_busy : t -> int -> float
(** Time the sender is unavailable for the next transmission: [g m]. *)

val rtt : t -> int -> float
(** Round-trip estimate for a size-[m] ping and an empty reply:
    [2 l + g m + g 0]. *)

val scale_noise : factor:float -> t -> t
(** Multiplies latency and all tables by [factor] (>0) — used by the DES
    noise models.  @raise Invalid_argument if [factor] is NaN, infinite or
    [<= 0.]. *)

val rescale : ?gap_factor:float -> ?latency_factor:float -> t -> t
(** Anisotropic variant of {!scale_noise}: gap (and the overhead tables
    derived from it) and latency scale independently.  This is how the
    adaptive transport ({!Gridb_des.Adaptive}) turns a nominal parameter
    set plus an observed round-trip ratio into an {e estimated} one.
    Both factors default to 1.  @raise Invalid_argument if either factor
    is NaN, infinite or non-positive. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
(** Structural equality on defining samples (for tests). *)
