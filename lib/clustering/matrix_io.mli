(** Loading and saving machine-level latency matrices.

    The entry point for users with their own measurements: an [N x N]
    numeric CSV (one row per machine, microseconds, zero or blank diagonal)
    goes straight into {!Lowekamp.detect} and
    {!Abstraction.grid_of_matrix}, exactly the paper's Section 7 pipeline
    with real data.  Exposed on the CLI as [gridsched cluster --matrix]. *)

val load : string -> (float array array, string) result
(** Parse a square numeric CSV.  Blank lines and lines starting with ['#']
    are skipped; the diagonal may be blank or ["-"], read as 0.  Errors
    (file missing, non-numeric or non-finite cell such as [nan], [inf] or
    [1e400], ragged or non-square shape) are returned as a human-readable
    message with a line number. *)

val of_string : string -> (float array array, string) result

val save : string -> float array array -> unit
(** Write as CSV with ["%.6g"] cells.  @raise Sys_error on IO failure. *)

val validate :
  ?require_symmetric:bool -> float array array -> (unit, string) result
(** Checks squareness, finite non-negative entries, and (by default)
    symmetry within 1 % relative tolerance — measured matrices jitter.
    The error names the offending cell. *)
