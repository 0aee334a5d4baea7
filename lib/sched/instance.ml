type t = {
  n : int;
  root : int;
  latency : float array array;
  gap : float array array;
  lat_flat : float array;
  gap_flat : float array;
  intra : float array;
}

let copy_matrix m = Array.map Array.copy m

(* Row-major copy: [flat.((i * n) + j) = m.(i).(j)].  The schedulers' hot
   paths index the flat mirrors (one bounds check and no pointer chase per
   entry); the nested matrices stay authoritative for everything else. *)
let flatten n m =
  let flat = Array.make (n * n) 0. in
  for i = 0 to n - 1 do
    Array.blit m.(i) 0 flat (i * n) n
  done;
  flat

let v ~root ~latency ~gap ~intra =
  let n = Array.length intra in
  if n < 1 then invalid_arg "Instance.v: empty instance";
  if root < 0 || root >= n then invalid_arg "Instance.v: root out of range";
  let check_matrix name m =
    if Array.length m <> n then invalid_arg ("Instance.v: " ^ name ^ " height mismatch");
    Array.iter
      (fun row ->
        if Array.length row <> n then invalid_arg ("Instance.v: " ^ name ^ " width mismatch");
        Array.iter
          (fun x -> if x < 0. || Float.is_nan x then invalid_arg ("Instance.v: bad " ^ name ^ " entry"))
          row)
      m
  in
  check_matrix "latency" latency;
  check_matrix "gap" gap;
  Array.iter (fun x -> if x < 0. || Float.is_nan x then invalid_arg "Instance.v: bad intra entry") intra;
  let latency = copy_matrix latency and gap = copy_matrix gap in
  {
    n;
    root;
    latency;
    gap;
    lat_flat = flatten n latency;
    gap_flat = flatten n gap;
    intra = Array.copy intra;
  }

let of_grid ?(shape = Gridb_collectives.Tree.Binomial) ~root ~msg grid =
  let module Grid = Gridb_topology.Grid in
  let module Cluster = Gridb_topology.Cluster in
  let n = Grid.size grid in
  let latency =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else Grid.latency grid i j))
  in
  let gap =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else Grid.gap grid i j msg))
  in
  let intra =
    Array.init n (fun k ->
        let c = Grid.cluster grid k in
        Gridb_collectives.Cost.broadcast_time ~shape ~params:c.Cluster.intra
          ~size:c.Cluster.size ~msg ())
  in
  v ~root ~latency ~gap ~intra

let of_machines ~root ~msg machines =
  let module Machines = Gridb_topology.Machines in
  let n = Machines.count machines in
  let params = Array.make_matrix n n None in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then params.(i).(j) <- Some (Machines.link_params machines i j)
    done
  done;
  let latency =
    Array.init n (fun i ->
        Array.init n (fun j ->
            match params.(i).(j) with
            | Some p -> Gridb_plogp.Params.latency p
            | None -> 0.))
  in
  let gap =
    Array.init n (fun i ->
        Array.init n (fun j ->
            match params.(i).(j) with
            | Some p -> Gridb_plogp.Params.gap p msg
            | None -> 0.))
  in
  v ~root ~latency ~gap ~intra:(Array.make n 0.)

let rescale machines factor t =
  let coord = Gridb_topology.Machines.coordinator machines in
  let scale m =
    Array.init t.n (fun i ->
        Array.init t.n (fun j ->
            if i = j then m.(i).(j) else m.(i).(j) *. factor ~src:(coord i) ~dst:(coord j)))
  in
  v ~root:t.root ~latency:(scale t.latency) ~gap:(scale t.gap) ~intra:t.intra

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
  let latency = Array.make_matrix n n 0. in
  let gap = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let l = draw ranges.latency_us and g = draw ranges.gap_us in
      latency.(i).(j) <- l;
      latency.(j).(i) <- l;
      gap.(i).(j) <- g;
      gap.(j).(i) <- g
    done
  done;
  let intra = Array.init n (fun _ -> draw ranges.intra_us) in
  v ~root:0 ~latency ~gap ~intra

let send_time t i j =
  let k = (i * t.n) + j in
  t.gap_flat.(k) +. t.lat_flat.(k)

let cluster_ids t = List.init t.n (fun i -> i)

let pp ppf t =
  Format.fprintf ppf "@[<v>instance: %d clusters, root %d@," t.n t.root;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "  T_%d = %.3g us@," i t.intra.(i)
  done;
  Format.fprintf ppf "@]"
