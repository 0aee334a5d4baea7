(** Piecewise-linear functions over message sizes.

    pLogP captures the gap [g(m)] as a table of measured points rather than a
    closed form, so that protocol switches (eager/rendezvous) show up as
    slope changes.  This module stores the table and interpolates. *)

type t
(** Immutable piecewise-linear function from message size (bytes) to a float
    value (microseconds in all uses in this repository). *)

val of_points : (int * float) list -> t
(** Builds from (size, value) samples.  Points are sorted; duplicate sizes
    keep the last value.
    @raise Invalid_argument on an empty list, a negative size, or a
    value that is NaN, infinite or negative. *)

val linear : intercept:float -> slope:float -> t
(** The closed form [fun m -> intercept +. slope *. m] as a two-point table
    (evaluated exactly thanks to extrapolation). *)

val eval : t -> int -> float
(** [eval f m]: linear interpolation between surrounding samples; constant
    extrapolation of the first segment's value below the smallest sample;
    linear extrapolation with the last segment's slope above the largest.
    A single-point table is a constant function.
    @raise Invalid_argument if [m < 0]. *)

val points : t -> (int * float) list
(** The (sorted) defining samples. *)

val map : (float -> float) -> t -> t
(** Pointwise transform of the sample values (e.g. scaling by a noise
    factor).  Interpolation happens on transformed values. *)

val add : t -> t -> t
(** Pointwise sum, sampled at the union of both break sets. *)

val scale : float -> t -> t

val is_monotonic : t -> bool
(** True iff sample values never decrease with size (sanity check for
    measured gap tables). *)

val pp : Format.formatter -> t -> unit
