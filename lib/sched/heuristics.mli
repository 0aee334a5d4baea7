(** The seven broadcast scheduling heuristics compared in the paper.

    Classical (Section 4, after Bhat et al. and the ECO/MagPIe flat tree):
    {!flat_tree}, {!fef}, {!ecef}, {!ecef_la}.
    Grid-aware (Section 5, the paper's contribution): {!ecef_lat_min}
    (ECEF-LAt), {!ecef_lat_max} (ECEF-LAT), {!bottom_up}.

    Each heuristic {e is} a {!Policy.t} score descriptor under its figure
    name, and {!run} hands it to {!Engine} (the incremental selector by
    default, the naive reference scan on request — both produce the
    identical schedule); ties are broken towards the lexicographically
    smallest (sender, receiver) pair so schedules are deterministic. *)

type t = {
  name : string;  (** e.g. "ECEF-LAt" (figure legends) *)
  policy : Policy.t;
}

val of_policy : Policy.t -> t
(** Name a policy by {!Policy.name}. *)

val flat_tree : t
(** Root sends to every other cluster in index order (ECO / MagPIe). *)

val fef : t
(** Fastest Edge First: smallest [L_ij] over [A x B]; ignores ready times. *)

val ecef : t
(** Early Completion Edge First: minimises [avail_i + g_ij + L_ij]. *)

val ecef_la : t
(** ECEF with Bhat's lookahead [F_j = min (g_jk + L_jk)]. *)

val ecef_with : Lookahead.t -> t
(** ECEF with an arbitrary lookahead (ablations); named
    ["ECEF-LA<lookahead>"] . *)

val ecef_lat_min : t
(** ECEF-LAt: lookahead [min (g_jk + L_jk + T_k)]. *)

val ecef_lat_max : t
(** ECEF-LAT: lookahead [max (g_jk + L_jk + T_k)]. *)

val bottom_up : t
(** Max-min: picks the receiver whose {e best} reach
    [min_i (avail_i + g_ij + L_ij) + T_j] is {e largest}, served by that
    best sender — contact the slowest clusters as early as possible. *)

val all : t list
(** Paper order: FlatTree, FEF, ECEF, ECEF-LA, ECEF-LAt, ECEF-LAT,
    BottomUp. *)

val ecef_family : t list
(** The four curves of Figures 3 and 4: ECEF, ECEF-LA, ECEF-LAt,
    ECEF-LAT. *)

val names : string list
(** {!Policy.names} verbatim — the shared table every listing derives
    from; [List.map (fun h -> h.name) all] is equal to it by
    construction. *)

val by_name : string -> t option
(** {!Policy.by_name} wrapped in {!of_policy}: exact names, the
    parameterised forms ["ECEF-LA<lookahead>"] and
    ["Mixed<small|large@threshold>"], then a case-insensitive match only
    when unambiguous.  "ECEF-LAt" (min) and "ECEF-LAT" (max) differ only
    by case, so an all-lowercase "ecef-lat" resolves to {e neither} —
    spell those two exactly. *)

val run : ?mode:Engine.mode -> t -> Instance.t -> Schedule.t
(** [Engine.run ?mode] on the policy (default [`Incremental]; [`Naive] is
    the reference scan — same schedule either way). *)

val makespan :
  ?model:Schedule.completion_model -> ?mode:Engine.mode -> t -> Instance.t -> float
(** [Schedule.makespan ?model inst (run ?mode t inst)]. *)
