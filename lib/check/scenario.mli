(** Fuzzable pipeline scenarios and their JSON reproducer format.

    A scenario is the complete, serialisable recipe for one end-to-end
    pipeline run: the seed everything derives from, the grid dimensions,
    the message size, root, policy, transport and fault spec — all kept as
    the {e strings} the CLI itself accepts, so a reproducer file doubles as
    a command line.  {!generate} draws scenarios for {!Fuzz};
    {!to_json}/{!of_json} is the reproducer codec (one flat JSON object per
    line, tolerant of unknown fields so {!Fuzz.write_reproducer} can attach
    the violation it recorded); {!shrink_candidates} is the ordered
    simplification menu greedy shrinking walks. *)

type t = {
  seed : int;  (** master seed; topology and fault streams derive from it *)
  n : int;  (** clusters *)
  msg : int;  (** message size, bytes *)
  root : int;  (** root cluster *)
  policy : string;  (** resolvable by {!Gridb_sched.Policy.by_name} *)
  transport : string;  (** parsed by {!Gridb_des.Session.transport_of_string} *)
  faults : string;  (** parsed by {!Gridb_des.Faults.of_string} *)
  dynamics : string;  (** parsed by {!Gridb_des.Dynamics.of_string} *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val generate : Gridb_util.Rng.t -> t
(** One random scenario: [n] in 2-8, message size from a four-point menu,
    any of the seven paper policies plus a [Mixed] form, any transport,
    faults and dynamics each from a menu that is "none" about half the
    time. *)

val policy_menu : string array
(** The policy menu {!generate} draws from: {!Gridb_sched.Policy.names}
    verbatim, plus ["Mixed<ECEF-LA|ECEF-LAT@10>"] last — derived from the
    registry's shared name table, never hand-maintained. *)

(** {1 Derived pipeline inputs} *)

val grid : t -> Gridb_topology.Grid.t
(** The scenario's topology, drawn from a stream derived from [seed]
    (clusters of 1-8 machines so DES runs stay small). *)

val fault_seed : t -> int
(** Seed for {!Gridb_des.Faults.create}, derived from [seed] but distinct
    from the topology stream. *)

val perm_seed : t -> int
(** Seed for the relabeling law's permutation. *)

val dyn_seed : t -> int
(** Seed for {!Gridb_des.Dynamics.create} — the same [seed lxor 0x64796e]
    tag the experiment layer uses, distinct from the fault stream. *)

val service_seed : t -> int
(** Seed for the service family's {!Gridb_service.Workload} stream,
    distinct from all of the above. *)

val chaos_seed : t -> int
(** Seed for the chaos family's deadline/priority request stream, distinct
    from the service family's so the two request mixes never alias. *)

val opt_seed : t -> int
(** Seed for the opt family's homogeneous-instance draw ([seed lxor
    0x6f7074], "opt"), distinct from every other derived stream. *)

val seg_seed : t -> int
(** Seed for the segmented-chain law's segment count and short message
    ([seed lxor 0x736567], "seg"). *)

val policy : t -> (Gridb_sched.Policy.t, string) result
val transport : t -> (Gridb_des.Session.transport, string) result
val faults_spec : t -> (Gridb_des.Faults.spec, string) result
val dynamics_spec : t -> (Gridb_des.Dynamics.spec, string) result

(** {1 Reproducer codec} *)

val to_json : ?extra:(string * string) list -> t -> string
(** One-line JSON object, ["format":"gridsched-check/1"] first.  [extra]
    appends further string fields (e.g. the violation) after the scenario
    fields. *)

val of_json : string -> (t, string) result
(** Parse one {!to_json} line.  Unknown fields are ignored; missing
    scenario fields, a wrong [format] tag or out-of-range values are
    errors.  Exception: a missing [dynamics] field reads as ["none"], so
    reproducers recorded before the field existed still load. *)

val string_field : key:string -> string -> string option
(** [string_field ~key line] extracts a top-level string field from a
    reproducer line without decoding the whole scenario — how {!Fuzz}
    reads back the recorded violation name. *)

(** {1 Shrinking} *)

val shrink_candidates : t -> t list
(** Strictly simpler variants, most aggressive first: drop dynamics, drop
    faults, fix the transport, fall back to FlatTree, re-root at 0, shrink
    [n] (to 2, then by 1, clamping the root), shrink the message, zero the
    seed.  Every candidate differs from the input, so greedy shrinking
    terminates. *)
