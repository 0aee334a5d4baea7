(* Optimality-gap scorecard: per (topology family, cluster count) cell,
   solve --reps seeded instances exactly (Gridb_opt.Exact) and score every
   heuristic's gap ratio makespan/optimal.  Results go to
   BENCH_optgap.json.

   Usage: dune exec bench/optgap.exe -- [--reps N] [--max-n N] [-o FILE]
                                        [--seed S] [--jobs J] [--assert-gaps]

   Homogeneous cells additionally cross-check Träff's closed-form optimum
   against the branch-and-bound certificate on every rep.  --assert-gaps
   (the CI optgap job runs with it) fails the run unless every gap ratio
   is >= 1 - 1e-9 (nothing beats a certified optimum), every homogeneous
   rep had Träff agree, and the FEF / ECEF-LAT mean gaps stay under the
   pinned ceilings below.  Every cell derives its seeds from
   (seed, topology, n, rep) alone, so the sweep is bit-identical at any
   --jobs.  Flags, the cell loop and the JSON envelope come from
   bench/sweep.ml. *)

module Optgap = Gridb_experiments.Optgap

(* Pinned on the seed-2006 sweep (reps 5, n <= 8): measured worst cell
   means were FEF 2.618 and ECEF-LAT 1.252 (both on random grids).
   Headroom covers seed sensitivity; a pruning bug that certifies a wrong
   "optimum" or a heuristic regression blows straight through these. *)
let fef_ceiling = 3.0
let ecef_lat_ceiling = 1.5

let sizes = [ 4; 6; 8 ]
let msg = 1_000_000
let eps = 1e-9

type hstat = { name : string; mean : float; max : float; hits : int }

type cell = {
  topology : string;
  n : int;
  reps : int;
  mean_bound_ratio : float;
  mean_expanded : float;
  stats : hstat list;
  traff_ok : int option;  (* homogeneous reps where Träff == exact *)
  min_gap : float;  (* smallest gap ratio seen anywhere in the cell *)
}

let bench_cell ~seed ~reps ((tname, topo), n) =
  let acc = Hashtbl.create 8 in
  let order = ref [] in
  let bound_ratio = ref 0. and expanded = ref 0. in
  let traff_ok = ref 0 and min_gap = ref infinity in
  for rep = 0 to reps - 1 do
    let topo_index =
      match topo with
      | Optgap.Table2 -> 0
      | Optgap.Random -> 1
      | Optgap.Multilevel -> 2
      | Optgap.Homogeneous -> 3
    in
    let cell_seed = seed + (100_000 * topo_index) + (1_000 * n) + rep in
    let s = Optgap.sample topo ~seed:cell_seed ~n ~msg in
    bound_ratio := !bound_ratio +. s.Optgap.bound_ratio;
    expanded := !expanded +. float_of_int s.Optgap.expanded;
    (match s.Optgap.traff_agrees with
    | Some true -> incr traff_ok
    | Some false | None -> ());
    List.iter
      (fun (h, gap) ->
        if gap < !min_gap then min_gap := gap;
        match Hashtbl.find_opt acc h with
        | None ->
            order := h :: !order;
            Hashtbl.add acc h (ref gap, ref gap, ref (if gap <= 1. +. eps then 1 else 0))
        | Some (sum, mx, hits) ->
            sum := !sum +. gap;
            if gap > !mx then mx := gap;
            if gap <= 1. +. eps then incr hits)
      s.Optgap.gaps
  done;
  let frep = float_of_int reps in
  {
    topology = tname;
    n;
    reps;
    mean_bound_ratio = !bound_ratio /. frep;
    mean_expanded = !expanded /. frep;
    stats =
      List.rev_map
        (fun h ->
          let sum, mx, hits = Hashtbl.find acc h in
          { name = h; mean = !sum /. frep; max = !mx; hits = !hits })
        !order;
    traff_ok = (match topo with Optgap.Homogeneous -> Some !traff_ok | _ -> None);
    min_gap = !min_gap;
  }

let json_of_cell c =
  Printf.sprintf
    "  {\"topology\": %S, \"n\": %d, \"reps\": %d,\n\
    \    \"mean_bound_ratio\": %.4f, \"mean_expanded\": %.1f,\n\
     %s\
    \    \"gaps\": {%s}}"
    c.topology c.n c.reps c.mean_bound_ratio c.mean_expanded
    (match c.traff_ok with
    | Some k -> Printf.sprintf "    \"traff_agrees\": %d,\n" k
    | None -> "")
    (String.concat ", "
       (List.map
          (fun s ->
            Printf.sprintf "\"%s\": {\"mean\": %.4f, \"max\": %.4f, \"optimal_hits\": %d}"
              s.name s.mean s.max s.hits)
          c.stats))

let print_cell c =
  let find n = List.find (fun s -> s.name = n) c.stats in
  let fef = find "FEF" and lat = find "ECEF-LAT" and ecef = find "ECEF" in
  Printf.printf
    "%-12s n=%-2d | FEF %5.3f | ECEF %5.3f | ECEF-LAT %5.3f (max %5.3f, %d/%d optimal) \
     | bound ratio %5.3f | %s%.0f nodes\n\
     %!"
    c.topology c.n fef.mean ecef.mean lat.mean lat.max lat.hits c.reps
    c.mean_bound_ratio
    (match c.traff_ok with
    | Some k -> Printf.sprintf "traff %d/%d, " k c.reps
    | None -> "")
    c.mean_expanded

let () =
  let reps = ref 5 and max_n, sizes = Sweep.max_n sizes and assert_gaps = ref false in
  let o =
    Sweep.parse ~output:"BENCH_optgap.json"
      (Sweep.int ~min:1 [ "--reps" ] "N instances per cell" reps
      @ max_n
      @ [
          ( "--assert-gaps",
            Arg.Set assert_gaps,
            " exit 1 on a gap below 1, a Traff mismatch or a mean gap over its ceiling" );
        ])
  in
  let cells =
    Sweep.run ~jobs:o.jobs ~print:print_cell
      (bench_cell ~seed:o.seed ~reps:!reps)
      (List.concat_map (fun t -> List.map (fun n -> (t, n)) (sizes ())) Optgap.topologies)
  in
  (* A gap below 1 means a heuristic beat a "certified optimum": always a
     bug, reported unconditionally, fatal under --assert-gaps. *)
  let beaten = List.filter (fun c -> c.min_gap < 1. -. eps) cells in
  List.iter
    (fun c ->
      Printf.eprintf "OPTIMALITY VIOLATION: %s n=%d has a gap ratio %.17g < 1\n"
        c.topology c.n c.min_gap)
    beaten;
  let traff_bad =
    List.filter
      (fun c -> match c.traff_ok with Some k -> k < c.reps | None -> false)
      cells
  in
  List.iter
    (fun c ->
      Printf.eprintf "TRAFF MISMATCH: %s n=%d agrees on %s/%d reps\n" c.topology c.n
        (match c.traff_ok with Some k -> string_of_int k | None -> "?")
        c.reps)
    traff_bad;
  let over name ceiling =
    List.filter
      (fun c -> List.exists (fun s -> s.name = name && s.mean > ceiling) c.stats)
      cells
  in
  let fef_over = over "FEF" fef_ceiling and lat_over = over "ECEF-LAT" ecef_lat_ceiling in
  List.iter
    (fun c ->
      Printf.eprintf "GAP CEILING: %s n=%d FEF mean gap above %.2f\n" c.topology c.n
        fef_ceiling)
    fef_over;
  List.iter
    (fun c ->
      Printf.eprintf "GAP CEILING: %s n=%d ECEF-LAT mean gap above %.2f\n" c.topology c.n
        ecef_lat_ceiling)
    lat_over;
  if !assert_gaps && (beaten <> [] || traff_bad <> [] || fef_over <> [] || lat_over <> [])
  then begin
    prerr_endline "ASSERTION FAILED: optimality-gap gates violated";
    exit 1
  end;
  Sweep.write o ~benchmark:"optimality-gap" ~cell:json_of_cell
    ~header:
      [
        ("msg", string_of_int msg);
        ( "instance",
          "\"per cell: table2 matrices, uniform_random grids, 2-per-site multilevel \
           grids, or uniform (L,g,T) draws; root 0; seeds from (seed, topology, n, \
           rep)\"" );
        ( "protocol",
          "\"Gridb_opt.Exact.solve per instance; gap = heuristic makespan / certified \
           optimum (After_sends); homogeneous cells cross-checked against Traff's \
           closed form\"" );
        ( "ceilings",
          Printf.sprintf {|{"FEF": %.2f, "ECEF-LAT": %.2f}|} fef_ceiling ecef_lat_ceiling );
      ]
    cells
