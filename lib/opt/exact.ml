module Instance = Gridb_sched.Instance
module State = Gridb_sched.State
module Schedule = Gridb_sched.Schedule
module Policy = Gridb_sched.Policy
module Engine = Gridb_sched.Engine
module Bounds = Gridb_sched.Bounds

type stats = {
  expanded : int;
  pruned_bound : int;
  pruned_dominated : int;
  improved : int;
}

type certificate = {
  makespan : float;
  schedule : Schedule.t;
  lower_bound : float;
  incumbent : string;
  incumbent_makespan : float;
  optimal_by_heuristic : bool;
  stats : stats;
}

let default_max_clusters = 12

(* Dominance lists are an accelerator, not a correctness requirement:
   once a mask accumulates this many explored states, further ones are
   still checked against the list but no longer added. *)
let memo_cap = 512

let incumbent_of inst =
  let best = ref None in
  List.iter
    (fun p ->
      let s = Engine.run p inst in
      let mk = Schedule.makespan inst s in
      match !best with
      | Some (_, _, bmk) when bmk <= mk -> ()
      | _ -> best := Some (Policy.name p, s, mk))
    Policy.all;
  match !best with Some x -> x | None -> assert false

let choices_of (s : Schedule.t) =
  List.map (fun (e : Schedule.event) -> (e.Schedule.src, e.Schedule.dst)) s.Schedule.events

let solve inst =
  let n = inst.Instance.n in
  if n > default_max_clusters then
    invalid_arg
      (Printf.sprintf "Exact: %d clusters exceeds the ceiling of %d" n default_max_clusters);
  let root = inst.Instance.root in
  let gap = inst.Instance.gap_flat
  and lat = inst.Instance.lat_flat
  and intra = inst.Instance.intra in
  let inc_name, inc_sched, inc_mk = incumbent_of inst in
  let best = ref inc_mk in
  let best_choices = ref (choices_of inc_sched) in
  let improved = ref 0
  and expanded = ref 0
  and pruned_bound = ref 0
  and pruned_dominated = ref 0 in
  if n > 1 then begin
    (* Static tables: cheapest final hop into [j] from anywhere (read for
       [j] in B only, so the root's 0 never is), and the globally cheapest
       gap (for the source-multiplication bound). *)
    let min_in_edge = Array.init n (Bounds.reach inst) in
    let gmin = ref infinity in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then gmin := Float.min !gmin gap.((i * n) + j)
      done
    done;
    let gmin = !gmin in
    let in_a = Array.make n false in
    let avail = Array.make n infinity in
    in_a.(root) <- true;
    avail.(root) <- 0.;
    let mask = ref (1 lsl root) in
    let choices = Array.make (n - 1) (0, 0) in
    let memo : (int, float array list ref) Hashtbl.t = Hashtbl.create 1024 in
    let eb0 = Array.make n infinity in
    let lower_bound na =
      (* (1) every reached cluster still runs its internal broadcast *)
      let lb = ref 0. and min_avail = ref infinity in
      for k = 0 to n - 1 do
        if in_a.(k) then begin
          let c = avail.(k) +. intra.(k) in
          if c > !lb then lb := c;
          if avail.(k) < !min_avail then min_avail := avail.(k)
        end
      done;
      let ma = !min_avail in
      (* (2) every unreached cluster needs a final hop.  Direct hops start
         no earlier than the actual sender's [avail]; a hop relayed
         through another unreached cluster [k] starts no earlier than
         [k]'s own cheapest possible arrival — no event starts before the
         earliest sender, so [ma + min_in_edge k] bounds it. *)
      let min_intra_b = ref infinity in
      for j = 0 to n - 1 do
        if not in_a.(j) then begin
          eb0.(j) <- ma +. min_in_edge.(j);
          if intra.(j) < !min_intra_b then min_intra_b := intra.(j)
        end
      done;
      for j = 0 to n - 1 do
        if not in_a.(j) then begin
          let eb = ref infinity in
          for i = 0 to n - 1 do
            if in_a.(i) then begin
              let c = (avail.(i) +. gap.((i * n) + j)) +. lat.((i * n) + j) in
              if c < !eb then eb := c
            end
            else if i <> j then begin
              let c = (eb0.(i) +. gap.((i * n) + j)) +. lat.((i * n) + j) in
              if c < !eb then eb := c
            end
          done;
          let c = !eb +. intra.(j) in
          if c > !lb then lb := c
        end
      done;
      (* (3) the informed population at most doubles per [gmin]: the last
         of [n] clusters is reached no earlier than [ceil (log2 (n / na))]
         gap slots after the earliest sender (latency only delays this). *)
      let d = ref 0 and c = ref na in
      while !c < n do
        incr d;
        c := !c * 2
      done;
      let f = (ma +. (float_of_int !d *. gmin)) +. !min_intra_b in
      if f > !lb then lb := f;
      !lb
    in
    let dominates v =
      let ok = ref true in
      let k = ref 0 in
      while !ok && !k < n do
        if v.(!k) > avail.(!k) then ok := false;
        incr k
      done;
      !ok
    in
    (* Explored-state memo.  Sound to prune on: DFS finishes each
       same-mask state's subtree before the next one starts and the
       incumbent only decreases, so a pointwise-slower revisit cannot
       improve on what the stored state already proved. *)
    let dominated_or_remember () =
      let entry =
        match Hashtbl.find_opt memo !mask with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add memo !mask r;
            r
      in
      if List.exists dominates !entry then true
      else begin
        let mine = Array.copy avail in
        let kept =
          List.filter
            (fun v ->
              let dominated = ref true in
              let k = ref 0 in
              while !dominated && !k < n do
                if mine.(!k) > v.(!k) then dominated := false;
                incr k
              done;
              not !dominated)
            !entry
        in
        if List.length kept < memo_cap then entry := mine :: kept else entry := kept;
        false
      end
    in
    let rec dfs depth na =
      if depth = n - 1 then begin
        let mk = ref 0. in
        for k = 0 to n - 1 do
          let c = avail.(k) +. intra.(k) in
          if c > !mk then mk := c
        done;
        if !mk < !best then begin
          best := !mk;
          best_choices := Array.to_list (Array.sub choices 0 depth);
          incr improved
        end
      end
      else if lower_bound na >= !best then incr pruned_bound
      else if dominated_or_remember () then incr pruned_dominated
      else begin
        incr expanded;
        let cands = ref [] in
        for i = n - 1 downto 0 do
          if in_a.(i) then
            for j = n - 1 downto 0 do
              if not in_a.(j) then begin
                let sender_free = avail.(i) +. gap.((i * n) + j) in
                let arrival = sender_free +. lat.((i * n) + j) in
                cands := (arrival, i, j, sender_free) :: !cands
              end
            done
        done;
        (* Earliest-arrival-first: good completions early tighten the
           incumbent and let the bound cut the rest. *)
        let cands =
          List.sort
            (fun (a, i, j, _) (a', i', j', _) -> compare (a, i, j) (a', i', j'))
            !cands
        in
        List.iter
          (fun (arrival, i, j, sender_free) ->
            let saved = avail.(i) in
            avail.(i) <- sender_free;
            in_a.(j) <- true;
            avail.(j) <- arrival;
            mask := !mask lor (1 lsl j);
            choices.(depth) <- (i, j);
            dfs (depth + 1) (na + 1);
            mask := !mask land lnot (1 lsl j);
            in_a.(j) <- false;
            avail.(j) <- infinity;
            avail.(i) <- saved)
          cands
      end
    in
    dfs 0 1
  end;
  let state = State.create inst in
  List.iter (fun (src, dst) -> State.send state ~src ~dst) !best_choices;
  let schedule = State.to_schedule state in
  assert (Float.equal (Schedule.makespan inst schedule) !best);
  {
    makespan = !best;
    schedule;
    lower_bound = Bounds.combined inst;
    incumbent = inc_name;
    incumbent_makespan = inc_mk;
    optimal_by_heuristic = !improved = 0;
    stats =
      {
        expanded = !expanded;
        pruned_bound = !pruned_bound;
        pruned_dominated = !pruned_dominated;
        improved = !improved;
      };
  }

let makespan inst = (solve inst).makespan
let schedule inst = (solve inst).schedule
