(** pLogP parameter acquisition over simMPI — Kielmann's "fast measurement
    of LogP parameters" executed on the simulated wire.

    This module runs the benchmark programs (ping-pong, saturation
    trains) as rank programs on the {!Runtime}, then fits parameters from
    the observed completion times.  With noise off the recovered parameters must match the
    topology's ground truth exactly — the strongest end-to-end check of the
    whole model stack (topology -> runtime -> timing -> fitting). *)

val ping_pong :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  Gridb_topology.Machines.t ->
  a:int ->
  b:int ->
  msg:int ->
  float
(** Round-trip time of one [msg]-byte ping from rank [a] to [b] and an
    empty pong back, measured on the runtime.
    @raise Invalid_argument if [a = b]. *)

val gap_of_train :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  ?train:int ->
  Gridb_topology.Machines.t ->
  a:int ->
  b:int ->
  msg:int ->
  float
(** Estimated gap g(msg) from a saturation train of [train] (default 16)
    back-to-back sends: sender-side injection time divided by the train
    length. *)

val measure_link :
  ?noise:Gridb_des.Noise.t ->
  ?seed:int ->
  ?sizes:int list ->
  Gridb_topology.Machines.t ->
  a:int ->
  b:int ->
  Gridb_plogp.Params.t
(** Full pipeline: saturation trains over [sizes] (default powers of four
    from 1 B to 4 MiB) give a gap table; ping-pongs give the latency
    [(rtt - g(m) - g(0)) / 2]; the result is a recovered parameter set for
    the [a]-[b] link. *)
