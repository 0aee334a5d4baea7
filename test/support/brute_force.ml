(* Exhaustive depth-first search over the paper's schedule space.  Kept
   outside the library as an independent oracle: it shares no search code
   with Gridb_opt.Exact, so the tests can check the certified optimum
   against it. *)

module Instance = Gridb_sched.Instance
module State = Gridb_sched.State

let max_clusters = 8

let schedule_count n =
  let rec loop k acc = if k = n then acc else loop (k + 1) (acc * k * (n - k)) in
  if n <= 1 then 1 else loop 1 1

type search_result = { best : float; choices : (int * int) list }

let search inst =
  let n = inst.Instance.n in
  let root = inst.Instance.root in
  let gap = inst.Instance.gap_flat and lat = inst.Instance.lat_flat in
  let intra = inst.Instance.intra in
  let in_a = Array.make n false in
  let avail = Array.make n infinity in
  in_a.(root) <- true;
  avail.(root) <- 0.;
  let best = ref infinity in
  let best_choices = ref [] in
  let choices = Array.make (max 1 (n - 1)) (0, 0) in
  (* Cheapest possible final hop into j from anywhere, used by the bound. *)
  let min_in_edge =
    Array.init n (fun j ->
        let m = ref infinity in
        for k = 0 to n - 1 do
          if k <> j then m := Float.min !m (gap.((k * n) + j) +. lat.((k * n) + j))
        done;
        !m)
  in
  let lower_bound () =
    (* Clusters in A can only get busier; clusters in B must still receive a
       final hop that starts no earlier than the earliest available sender. *)
    let lb = ref 0. in
    let min_avail = ref infinity in
    for k = 0 to n - 1 do
      if in_a.(k) then begin
        lb := Float.max !lb (avail.(k) +. intra.(k));
        min_avail := Float.min !min_avail avail.(k)
      end
    done;
    for j = 0 to n - 1 do
      if not in_a.(j) then
        lb := Float.max !lb (!min_avail +. min_in_edge.(j) +. intra.(j))
    done;
    !lb
  in
  let rec dfs depth =
    if depth = n - 1 then begin
      let mk = ref 0. in
      for k = 0 to n - 1 do
        mk := Float.max !mk (avail.(k) +. intra.(k))
      done;
      if !mk < !best then begin
        best := !mk;
        best_choices := Array.to_list (Array.sub choices 0 depth)
      end
    end
    else if lower_bound () < !best then
      for i = 0 to n - 1 do
        if in_a.(i) then
          for j = 0 to n - 1 do
            if not in_a.(j) then begin
              let saved_avail_i = avail.(i) in
              let arrival = avail.(i) +. gap.((i * n) + j) +. lat.((i * n) + j) in
              avail.(i) <- avail.(i) +. gap.((i * n) + j);
              in_a.(j) <- true;
              avail.(j) <- arrival;
              choices.(depth) <- (i, j);
              dfs (depth + 1);
              in_a.(j) <- false;
              avail.(j) <- infinity;
              avail.(i) <- saved_avail_i
            end
          done
      done
  in
  dfs 0;
  { best = !best; choices = !best_choices }

let check_size inst =
  if inst.Instance.n > max_clusters then
    invalid_arg
      (Printf.sprintf "Brute_force: %d clusters exceeds the ceiling of %d" inst.Instance.n
         max_clusters)

let makespan inst =
  check_size inst;
  if inst.Instance.n = 1 then inst.Instance.intra.(inst.Instance.root)
  else (search inst).best

let schedule inst =
  check_size inst;
  let result = if inst.Instance.n = 1 then { best = 0.; choices = [] } else search inst in
  let state = State.create inst in
  List.iter (fun (src, dst) -> State.send state ~src ~dst) result.choices;
  State.to_schedule state
