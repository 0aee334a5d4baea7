type machine = { rank : int; cluster : int; index_in_cluster : int }

type t = {
  grid : Grid.t;
  machines : machine array;
  clusters : int array;  (* each rank's cluster *)
  first_rank : int array;  (* first global rank of each cluster *)
}

let expand grid =
  let n = Grid.size grid in
  let first_rank = Array.make n 0 in
  let total = ref 0 in
  for c = 0 to n - 1 do
    first_rank.(c) <- !total;
    total := !total + (Grid.cluster grid c).Cluster.size
  done;
  let machines =
    Array.init !total (fun _ -> { rank = 0; cluster = 0; index_in_cluster = 0 })
  in
  for c = 0 to n - 1 do
    let size = (Grid.cluster grid c).Cluster.size in
    for i = 0 to size - 1 do
      let rank = first_rank.(c) + i in
      machines.(rank) <- { rank; cluster = c; index_in_cluster = i }
    done
  done;
  let clusters = Array.map (fun m -> m.cluster) machines in
  { grid; machines; clusters; first_rank }

let grid t = t.grid
let count t = Array.length t.machines

let machine t rank =
  if rank < 0 || rank >= count t then invalid_arg "Machines.machine: rank out of range";
  t.machines.(rank)

let clusters t = t.clusters

let coordinator t c =
  if c < 0 || c >= Grid.size t.grid then invalid_arg "Machines.coordinator: cluster out of range";
  t.first_rank.(c)

let rank_of t ~cluster ~index =
  if cluster < 0 || cluster >= Grid.size t.grid then
    invalid_arg "Machines.rank_of: cluster out of range";
  let size = (Grid.cluster t.grid cluster).Cluster.size in
  if index < 0 || index >= size then invalid_arg "Machines.rank_of: index out of range";
  t.first_rank.(cluster) + index

let link_params t r1 r2 =
  if r1 = r2 then invalid_arg "Machines.link_params: equal ranks";
  let m1 = machine t r1 and m2 = machine t r2 in
  if m1.cluster = m2.cluster then (Grid.cluster t.grid m1.cluster).Cluster.intra
  else Grid.link t.grid m1.cluster m2.cluster

let latency t r1 r2 = Gridb_plogp.Params.latency (link_params t r1 r2)

let latency_matrix ?rng ?(jitter_sigma = 0.05) t =
  let n = count t in
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let base = latency t i j in
      let value =
        match rng with
        | None -> base
        | Some rng -> base *. Gridb_util.Rng.lognormal ~mu:0. ~sigma:jitter_sigma rng
      in
      m.(i).(j) <- value;
      m.(j).(i) <- value
    done
  done;
  m
