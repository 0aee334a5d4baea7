(** Segmented (pipelined) broadcast.

    For large messages a chain pipeline with segmentation beats the binomial
    tree: cutting the message into [s] segments of size [m/s] gives a chain
    completion of [(s + n - 2) * g(m/s) + (n - 1) * L].  This is the
    standard large-message strategy of the authors' intra-cluster tuning
    paper and is exposed both as an alternative [T] model and for the
    ablation bench.

    The segment rule below is the one rule for segmented broadcast: the
    closed form {!chain_time} and the DES replay
    ([Gridb_des.Session.run ~segments]) both cut a message with it. *)

val segment_count : msg:int -> segments:int -> int
(** The segment count actually used: [segments] clamped to [1 .. msg], so
    that a segment carries at least one byte ([1] for an empty message).
    @raise Invalid_argument if [segments < 1]. *)

val segment_size : msg:int -> segments:int -> int
(** Bytes per segment: [ceil (msg / c)] with [c = segment_count ~msg
    ~segments].  The last segment is padded to the same size, as in
    {!chain_time}.  @raise Invalid_argument if [segments < 1]. *)

val chain_time :
  params:Gridb_plogp.Params.t -> size:int -> msg:int -> segments:int -> float
(** Completion time of a segmented chain broadcast, cut by
    {!segment_count} and {!segment_size}; [size <= 1] costs 0.
    @raise Invalid_argument if [segments < 1]. *)

val best_segments :
  ?candidates:int list -> params:Gridb_plogp.Params.t -> size:int -> msg:int -> unit -> int * float
(** Searches the candidate segment counts (default powers of two up to 256)
    and returns [(segments, time)] minimising {!chain_time}. *)
