(** Two aliases over {!Policy} and {!Engine}, kept only for
    [perfbench/serve_bench.ml]; the next change to the benchmark calls
    {!Policy.by_name} and {!Engine.run} directly and deletes this module.
    Every heuristic is a {!Policy.t}: use those modules instead. *)

val by_name : string -> Policy.t option
(** {!Policy.by_name}. *)

val run : ?mode:Engine.mode -> Policy.t -> Instance.t -> Schedule.t
(** {!Engine.run} without a sink. *)
