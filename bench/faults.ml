(* Fault-injection sweep: reliable broadcast under increasing message-loss
   and crash rates, comparing the fixed-RTO transport against the adaptive
   one (Jacobson/Karn RTO + circuit breakers) with and without in-flight
   reroute, emitting machine-readable results to BENCH_faults.json.

   Usage: dune exec bench/faults.exe -- [--reps N] [--max-n N] [-o FILE]
                                        [--seed S] [--jobs J] [--assert-total]

   Each cell is a (clusters, loss, crash-rate) point averaged over --reps
   independently generated random grids (Table 2 parameter ranges) and
   fault draws; all three transports replay the same grids and fault seeds.
   The loss=0, crash=0 row doubles as a sanity check: every transport must
   reproduce the fault-free makespan exactly (inflation 1.0, zero
   retransmissions).  --assert-total additionally fails the run if
   adaptive+reroute left any rank undelivered in a repetition where no rank
   crashed (the sweep has no link cuts, so the reachability graph is
   complete and delivery must be total) — the CI chaos job runs with it.
   Flags, the cell loop and the JSON envelope come from bench/sweep.ml.
   CI runs this capped as a smoke test; the committed BENCH_faults.json
   comes from a full local run. *)

module Robustness = Gridb_experiments.Robustness
module Faults = Gridb_des.Faults
module Session = Gridb_des.Session
module Generators = Gridb_topology.Generators
module Rng = Gridb_util.Rng

type tcell = {
  delivery_ratio : float; (* mean *)
  inflation : float; (* mean over reps with a defined baseline *)
  retransmissions : float; (* mean *)
  gave_up : int; (* total over reps *)
  reroutes : int; (* total over reps *)
  circuit_opens : int; (* total over reps *)
}

type cell = {
  n : int;
  loss : float;
  crash_rate : float;
  reps : int;
  fixed : tcell;
  adaptive : tcell;
  adaptive_reroute : tcell;
  crashed_ranks : int; (* total over reps, fixed transport's horizon *)
  repair_invocations : int; (* reps where a coordinator crashed *)
  replanned : int; (* total repair transmissions *)
}

let sizes = [ 5; 10; 20 ]
let loss_levels = [ 0.; 0.01; 0.05; 0.1 ]
let crash_rates = [ 0.; 1e-7 ]

let transports =
  [
    ("fixed", Session.Fixed);
    ("adaptive", Session.adaptive ());
    ("adaptive,reroute", Session.adaptive ~reroute:true ());
  ]

(* Repetitions of adaptive+reroute where a rank stayed undelivered with no
   crash anywhere: (n, loss, crash_rate, rep seed, delivered, total).
   Returned per cell (not accumulated globally) so cells are independent
   tasks a Pool can run on any domain; the caller concatenates in grid
   order, reproducing the sequential report exactly. *)
let bench_cell ~seed ~reps (n, loss, crash_rate) =
  let spec = Faults.v ~loss ~crash_rate () in
  let acc =
    List.map (fun (name, _) -> (name, ref 0., ref 0., ref 0., ref 0, ref 0, ref 0)) transports
  in
  let crashed = ref 0 and invocations = ref 0 and replanned = ref 0 in
  let violations = ref [] in
  for rep = 0 to reps - 1 do
    let cell_seed = seed + (1_000 * n) + (100 * rep) in
    let rng = Rng.create cell_seed in
    let grid = Generators.uniform_random ~rng ~n Generators.default_random_spec in
    List.iter2
      (fun (name, transport) (_, del, infl, retr, gave, rer, circ) ->
        let m = Robustness.run ~seed:cell_seed ~spec ~transport grid in
        del := !del +. m.Robustness.delivery_ratio;
        infl := !infl +. m.Robustness.inflation;
        retr := !retr +. float_of_int m.Robustness.retransmissions;
        gave := !gave + m.Robustness.gave_up;
        rer := !rer + m.Robustness.reroutes;
        circ := !circ + m.Robustness.circuit_opens;
        if name = "fixed" then begin
          crashed := !crashed + m.Robustness.crashed_ranks;
          if m.Robustness.repair_invoked then incr invocations;
          replanned := !replanned + m.Robustness.repairs
        end;
        if
          name = "adaptive,reroute" && m.Robustness.crashed_ranks = 0
          && m.Robustness.delivered <> m.Robustness.total_ranks
        then
          violations :=
            (n, loss, crash_rate, cell_seed, m.Robustness.delivered,
             m.Robustness.total_ranks)
            :: !violations)
      transports acc
  done;
  let mean r = !r /. float_of_int reps in
  let tcell (_, del, infl, retr, gave, rer, circ) =
    {
      delivery_ratio = mean del;
      inflation = mean infl;
      retransmissions = mean retr;
      gave_up = !gave;
      reroutes = !rer;
      circuit_opens = !circ;
    }
  in
  match acc with
  | [ f; a; ar ] ->
      ( {
          n;
          loss;
          crash_rate;
          reps;
          fixed = tcell f;
          adaptive = tcell a;
          adaptive_reroute = tcell ar;
          crashed_ranks = !crashed;
          repair_invocations = !invocations;
          replanned = !replanned;
        },
        List.rev !violations )
  | _ -> assert false


let json_of_cell c =
  let tcell name t =
    Printf.sprintf
      "    \"%s\": {\"delivery_ratio\": %.4f, \"inflation\": %.4f, \
       \"retransmissions\": %.2f, \"gave_up\": %d, \"reroutes\": %d, \
       \"circuit_opens\": %d},\n"
      name t.delivery_ratio t.inflation t.retransmissions t.gave_up t.reroutes
      t.circuit_opens
  in
  Printf.sprintf
    "  {\"n\": %d, \"loss\": %g, \"crash_rate\": %g, \"reps\": %d,\n\
     %s%s%s\
    \    \"crashed_ranks\": %d, \"repair_invocations\": %d, \"replanned\": %d}"
    c.n c.loss c.crash_rate c.reps (tcell "fixed" c.fixed) (tcell "adaptive" c.adaptive)
    (tcell "adaptive_reroute" c.adaptive_reroute)
    c.crashed_ranks c.repair_invocations c.replanned

let print_cell c =
  Printf.printf
    "n=%-3d loss=%-5g crash=%-6g | fixed: delivery %6.4f infl %6.3fx | \
     adaptive: %6.4f %6.3fx | +reroute: %6.4f %6.3fx (%d reroutes)\n\
     %!"
    c.n c.loss c.crash_rate c.fixed.delivery_ratio c.fixed.inflation
    c.adaptive.delivery_ratio c.adaptive.inflation
    c.adaptive_reroute.delivery_ratio c.adaptive_reroute.inflation
    c.adaptive_reroute.reroutes

let () =
  let reps = ref 5 and max_n, sizes = Sweep.max_n sizes and assert_total = ref false in
  let o =
    Sweep.parse ~output:"BENCH_faults.json"
      (Sweep.int ~min:1 [ "--reps" ] "N grids per cell" reps
      @ max_n
      @ [
          ( "--assert-total",
            Arg.Set assert_total,
            " exit 1 if adaptive+reroute misses a rank with no crash" );
        ])
  in
  (* Every cell derives its seeds from (seed, n, rep) alone, so cells are
     independent and the sweep is bit-identical at any --jobs; unlike the
     timing bench, these numbers are simulation outputs, so parallel cells
     cannot perturb them. *)
  let results =
    Sweep.run ~jobs:o.jobs
      ~print:(fun (c, _) -> print_cell c)
      (bench_cell ~seed:o.seed ~reps:!reps)
      (List.concat_map
         (fun n ->
           List.concat_map
             (fun loss -> List.map (fun crash_rate -> (n, loss, crash_rate)) crash_rates)
             loss_levels)
         (sizes ()))
  in
  let cells = List.map fst results in
  (* Sanity: the fault-free cells must show a bit-exact baseline under every
     transport. *)
  (match
     List.filter
       (fun c ->
         c.loss = 0. && c.crash_rate = 0.
         && List.exists
              (fun t ->
                t.inflation <> 1. || t.retransmissions <> 0. || t.delivery_ratio <> 1.)
              [ c.fixed; c.adaptive; c.adaptive_reroute ])
       cells
   with
  | [] -> ()
  | bad ->
      List.iter
        (fun c ->
          Printf.eprintf
            "FAULT-FREE MISMATCH at n=%d: fixed %.17g/%.2f adaptive %.17g/%.2f \
             reroute %.17g/%.2f\n"
            c.n c.fixed.inflation c.fixed.retransmissions c.adaptive.inflation
            c.adaptive.retransmissions c.adaptive_reroute.inflation
            c.adaptive_reroute.retransmissions)
        bad;
      exit 1);
  if !assert_total then begin
    match List.concat_map snd results with
    | [] -> print_endline "assert-total: adaptive+reroute delivered everywhere no rank crashed"
    | vs ->
        List.iter
          (fun (n, loss, crash_rate, cell_seed, delivered, total) ->
            Printf.eprintf
              "TOTALITY VIOLATION n=%d loss=%g crash=%g seed=%d: %d/%d delivered with no \
               crash\n"
              n loss crash_rate cell_seed delivered total)
          vs;
        exit 1
  end;
  Sweep.write o ~benchmark:"fault-injection" ~cell:json_of_cell
    ~header:
      [
        ( "instance",
          {|"Generators.uniform_random default_random_spec, fresh grid per rep"|} );
        ( "protocol",
          "\"stop-and-wait ACK, 5 retries, exponential backoff; transports: fixed RTO / \
           adaptive (Jacobson-Karn RTO, circuit breakers) / adaptive with in-flight \
           reroute\"" );
        ( "units",
          {|{"loss": "per-transmission probability", "crash_rate": "1/us per rank"}|} );
      ]
    cells
