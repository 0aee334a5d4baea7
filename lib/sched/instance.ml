module Grid = Gridb_topology.Grid
module Machines = Gridb_topology.Machines
module Params = Gridb_plogp.Params

type t = {
  n : int;
  root : int;
  lat_flat : float array;
  gap_flat : float array;
  intra : float array;
}

let latency t i j = t.lat_flat.((i * t.n) + j)
let gap t i j = t.gap_flat.((i * t.n) + j)

(* An entry every consumer can sum, compare and print. *)
let entry_ok x = Float.is_finite x && x >= 0.

(* Index of the first entry of [a] from [i] on that fails [entry_ok], or -1. *)
let rec first_bad a i =
  if i = Array.length a then -1 else if entry_ok a.(i) then first_bad a (i + 1) else i

(* Every constructor ends here, handing over row-major [n x n] arrays. *)
let make ~root ~lat_flat ~gap_flat ~intra =
  let n = Array.length intra in
  if n < 1 then invalid_arg "Instance.v: empty instance";
  if root < 0 || root >= n then invalid_arg "Instance.v: root out of range";
  let check name a =
    if first_bad a 0 >= 0 then invalid_arg ("Instance.v: bad " ^ name ^ " entry")
  in
  check "latency" lat_flat;
  check "gap" gap_flat;
  check "intra" intra;
  { n; root; lat_flat; gap_flat; intra }

let v ~root ~latency ~gap ~intra =
  let n = Array.length intra in
  (* Checks [m]'s shape and copies it row-major. *)
  let flatten name m =
    if Array.length m <> n then invalid_arg ("Instance.v: " ^ name ^ " height mismatch");
    if Array.exists (fun row -> Array.length row <> n) m then
      invalid_arg ("Instance.v: " ^ name ^ " width mismatch");
    Array.concat (Array.to_list m)
  in
  make ~root ~lat_flat:(flatten "latency" latency) ~gap_flat:(flatten "gap" gap)
    ~intra:(Array.copy intra)

(* Row-major [L] and [g(msg)] of every off-diagonal [link i j]. *)
let links n ~msg link =
  let lat = Array.make (n * n) 0. and gap = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let p = link i j in
        lat.((i * n) + j) <- Params.latency p;
        gap.((i * n) + j) <- Params.gap p msg
      end
    done
  done;
  (lat, gap)

let describe ~msg what x =
  Printf.sprintf "%s at message size %d bytes is %g us, not finite and >= 0" what msg x

(* [of_grid]'s arrays, and the first gap or [T_k] that fails [entry_ok] in
   one line ([Params.v] has checked every latency already). *)
let fill_grid ~shape ~msg grid =
  let n = Grid.size grid in
  let lat, gap = links n ~msg (Grid.link grid) in
  let intra = Array.make n 0. in
  for k = 0 to n - 1 do
    let c = Grid.cluster grid k in
    intra.(k) <-
      Gridb_collectives.Cost.broadcast_time ~shape ~params:c.Gridb_topology.Cluster.intra
        ~size:c.Gridb_topology.Cluster.size ~msg ()
  done;
  let bad what x = Some (describe ~msg what x) in
  let error =
    match (first_bad gap 0, first_bad intra 0) with
    | -1, -1 -> None
    | -1, k -> bad (Printf.sprintf "cluster %d: intra-cluster broadcast time" k) intra.(k)
    | k, _ -> bad (Printf.sprintf "link %d -> %d: gap" (k / n) (k mod n)) gap.(k)
  in
  (lat, gap, intra, error)

let check_grid ~msg grid =
  let _, _, _, error = fill_grid ~shape:Gridb_collectives.Tree.Binomial ~msg grid in
  (* The DES also replays every intra-cluster send at its cluster's gap. *)
  let own_gap k = Params.gap (Grid.cluster grid k).Gridb_topology.Cluster.intra msg in
  let clusters = List.init (Grid.size grid) Fun.id in
  match (error, List.find_opt (fun k -> not (entry_ok (own_gap k))) clusters) with
  | Some e, _ -> Error e
  | None, Some k ->
      Error (describe ~msg (Printf.sprintf "cluster %d: intra-cluster gap" k) (own_gap k))
  | None, None -> Ok ()

let of_grid ?(shape = Gridb_collectives.Tree.Binomial) ~root ~msg grid =
  match fill_grid ~shape ~msg grid with
  | _, _, _, Some e -> invalid_arg ("Instance.of_grid: " ^ e)
  | lat_flat, gap_flat, intra, None -> make ~root ~lat_flat ~gap_flat ~intra

let of_machines ~root ~msg machines =
  let n = Machines.count machines in
  let lat_flat, gap_flat = links n ~msg (Machines.link_params machines) in
  make ~root ~lat_flat ~gap_flat ~intra:(Array.make n 0.)

let rescale machines factor t =
  let coord = Machines.coordinator machines in
  let n = t.n in
  let lat_flat = Array.copy t.lat_flat and gap_flat = Array.copy t.gap_flat in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let k = (i * n) + j and f = factor ~src:(coord i) ~dst:(coord j) in
        lat_flat.(k) <- lat_flat.(k) *. f;
        gap_flat.(k) <- gap_flat.(k) *. f
      end
    done
  done;
  make ~root:t.root ~lat_flat ~gap_flat ~intra:(Array.copy t.intra)

let sub ?intra t ~root ids =
  let k = Array.length ids in
  let pick a = Array.init (k * k) (fun c -> a.((ids.(c / k) * t.n) + ids.(c mod k))) in
  let intra =
    match intra with
    | Some a when Array.length a <> k -> invalid_arg "Instance.sub: intra length mismatch"
    | Some a -> Array.copy a
    | None -> Array.map (fun c -> t.intra.(c)) ids
  in
  make ~root ~lat_flat:(pick t.lat_flat) ~gap_flat:(pick t.gap_flat) ~intra

let with_intra t intra = sub ~intra t ~root:t.root (Array.init t.n Fun.id)

type ranges = {
  latency_us : float * float;
  gap_us : float * float;
  intra_us : float * float;
}

let table2_ranges =
  {
    latency_us = (1_000., 15_000.);
    gap_us = (100_000., 600_000.);
    intra_us = (20_000., 3_000_000.);
  }

let random ~rng ~n ranges =
  if n < 1 then invalid_arg "Instance.random: n < 1";
  let draw (lo, hi) = Gridb_util.Rng.float_in rng lo hi in
  let lat_flat = Array.make (n * n) 0. and gap_flat = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let l = draw ranges.latency_us and g = draw ranges.gap_us in
      lat_flat.((i * n) + j) <- l;
      lat_flat.((j * n) + i) <- l;
      gap_flat.((i * n) + j) <- g;
      gap_flat.((j * n) + i) <- g
    done
  done;
  let intra = Array.init n (fun _ -> draw ranges.intra_us) in
  make ~root:0 ~lat_flat ~gap_flat ~intra

let send_time t i j = gap t i j +. latency t i j

let pp ppf t =
  Format.fprintf ppf "@[<v>instance: %d clusters, root %d@," t.n t.root;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "  T_%d = %.3g us@," i t.intra.(i)
  done;
  Format.fprintf ppf "@]"
