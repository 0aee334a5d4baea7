module Rng = Gridb_util.Rng

type config = {
  population : int;
  generations : int;
  mutation_probability : float;
  seed : int;
}

let default_config =
  { population = 24; generations = 40; mutation_probability = 0.3; seed = 0 }

let random_schedule ~rng inst =
  let state = State.create inst in
  while not (State.finished state) do
    let members_a = Array.of_list (State.members_a state) in
    let members_b = Array.of_list (State.members_b state) in
    State.send state ~src:(Rng.pick rng members_a) ~dst:(Rng.pick rng members_b)
  done;
  State.to_schedule state

(* Crossover: keep a random-length prefix of parent A, then deliver parent
   B's remaining receivers in B's order; each such pick keeps B's sender if
   already valid, otherwise falls back to the receiver's earliest-arrival
   sender.  Always yields a valid complete sequence. *)
let crossover rng inst a_picks b_picks =
  let n = List.length a_picks in
  if n = 0 then []
  else begin
    let cut = Rng.int rng (n + 1) in
    let state = State.create inst in
    let prefix = List.filteri (fun i _ -> i < cut) a_picks in
    List.iter (fun (src, dst) -> State.send state ~src ~dst) prefix;
    let finish_pick (src, dst) =
      if State.finished state || State.in_a state dst then ()
      else begin
        let src =
          if State.in_a state src then src
          else begin
            (* earliest-arrival sender for this receiver *)
            let best = ref (-1) and best_a = ref infinity in
            State.iter_a state (fun i ->
                let a = State.score_arrival state i dst in
                if a < !best_a then begin
                  best_a := a;
                  best := i
                end);
            !best
          end
        in
        State.send state ~src ~dst
      end
    in
    List.iter finish_pick b_picks;
    (* Receivers possibly still missing (prefix covered picks B lacks are
       impossible since both are permutations of the same receiver set, but
       be defensive): serve them greedily. *)
    while not (State.finished state) do
      match (State.members_a state, State.members_b state) with
      | src :: _, dst :: _ -> State.send state ~src ~dst
      | _ -> assert false
    done;
    Refine.picks_of_schedule (State.to_schedule state)
  end

let mutate rng inst picks =
  let arr = Array.of_list picks in
  let len = Array.length arr in
  if len < 2 then picks
  else begin
    let candidate =
      if Rng.bool rng then begin
        let i = Rng.int rng (len - 1) in
        let copy = Array.copy arr in
        let tmp = copy.(i) in
        copy.(i) <- copy.(i + 1);
        copy.(i + 1) <- tmp;
        Array.to_list copy
      end
      else begin
        let i = Rng.int rng len in
        let _, dst = arr.(i) in
        let earlier =
          inst.Instance.root :: (Array.to_list (Array.sub arr 0 i) |> List.map snd)
        in
        let copy = Array.copy arr in
        copy.(i) <- (List.nth earlier (Rng.int rng (List.length earlier)), dst);
        Array.to_list copy
      end
    in
    match Refine.replay inst candidate with Some _ -> candidate | None -> picks
  end

let search ?(config = default_config) ?model ?seeds inst =
  if config.population < 2 then invalid_arg "Genetic.search: population < 2";
  if config.generations < 0 then invalid_arg "Genetic.search: negative generations";
  if config.mutation_probability < 0. || config.mutation_probability > 1. then
    invalid_arg "Genetic.search: mutation probability outside [0, 1]";
  let rng = Rng.create config.seed in
  let seeds =
    match seeds with
    | Some s -> s
    | None -> List.map (fun h -> Engine.run h inst) Policy.all
  in
  let fitness picks =
    match Refine.replay inst picks with
    | Some s -> Some (Schedule.makespan ?model inst s)
    | None -> None
  in
  let seed_individuals =
    List.map
      (fun s ->
        let picks = Refine.picks_of_schedule s in
        match fitness picks with
        | Some m -> (picks, m)
        | None -> invalid_arg "Genetic.search: invalid seed schedule")
      seeds
  in
  let filler () =
    let picks = Refine.picks_of_schedule (random_schedule ~rng inst) in
    match fitness picks with Some m -> (picks, m) | None -> assert false
  in
  let initial =
    let missing = max 0 (config.population - List.length seed_individuals) in
    seed_individuals @ List.init missing (fun _ -> filler ())
  in
  let sort_pop = List.sort (fun (_, a) (_, b) -> Float.compare a b) in
  let population = ref (sort_pop initial) in
  for _ = 1 to config.generations do
    let pop = Array.of_list !population in
    let size = Array.length pop in
    (* Tournament selection of 2, biased to the fitter half. *)
    let pick_parent () =
      let i = Rng.int rng size and j = Rng.int rng size in
      let (pi, mi) = pop.(i) and (pj, mj) = pop.(j) in
      if mi <= mj then pi else pj
    in
    let offspring =
      List.init size (fun _ ->
          let child = crossover rng inst (pick_parent ()) (pick_parent ()) in
          let child =
            if Rng.float rng 1. < config.mutation_probability then mutate rng inst child
            else child
          in
          match fitness child with Some m -> (child, m) | None -> filler ())
    in
    (* Elitist survival: best [population] of parents + offspring. *)
    let merged = sort_pop (!population @ offspring) in
    population := List.filteri (fun i _ -> i < config.population) merged
  done;
  match !population with
  | (best, _) :: _ -> (
      match Refine.replay inst best with
      | Some s -> s
      | None -> assert false)
  | [] -> invalid_arg "Genetic.search: empty population"
