(** Deterministic pseudo-random number generation.

    The simulations of the paper average 10000 independent draws of grid
    parameters; reproducibility of a whole experiment therefore hinges on a
    seedable, splittable generator.  This module implements SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): tiny state, excellent statistical
    quality for simulation purposes, and O(1) splitting so that each
    iteration of an experiment can derive an independent stream. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Equal seeds yield
    equal streams. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child stream of [t]'s current state —
    SplitMix64 stream derivation, pure in [(state, i)].  [t] is {e not}
    advanced: any number of workers may derive their streams from one
    shared base generator in any order and obtain bit-identical results.
    For a fixed parent state the map [i -> stream] is injective (the
    Stafford mix is a 64-bit bijection over seeds stepped by an odd
    gamma), so distinct indices never collide on a stream seed.
    @raise Invalid_argument if [i < 0]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits64_ahead : t -> int -> int64
(** [bits64_ahead t k] is the output the [(k+1)]-th call of {!bits64} on
    [t] would return ([k = 0] is the next call), computed in closed form
    without advancing [t].  Lets a caller seed any one of many sibling
    streams drawn from one master on demand, bit-identically to drawing
    them all in order.  @raise Invalid_argument if [k < 0]. *)

val unit_float_at : int -> int -> float
(** [unit_float_at seed k] is the uniform [\[0, 1)] value (as {!bernoulli}
    reads it) of the [(k+1)]-th draw of [create seed], in closed form: a
    stream read by index needs only its seed and a draw counter.
    @raise Invalid_argument if [k < 0]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)].
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].  Always consumes exactly
    one draw, even for [p = 0.] or [p = 1.], so seeded streams stay aligned
    across fault-draw sites.  @raise Invalid_argument if [p] is outside
    [\[0, 1\]]. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal deviate via Box-Muller.  Defaults: [mu = 0.], [sigma = 1.]. *)

val lognormal : ?mu:float -> ?sigma:float -> t -> float
(** [exp (gaussian ~mu ~sigma t)]: multiplicative noise as observed on real
    network round-trips. *)

val exponential : t -> float -> float
(** [exponential t lambda] draws from Exp(lambda).
    @raise Invalid_argument if [lambda <= 0.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
