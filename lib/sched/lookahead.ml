type shape =
  | Zero
  | Fold of { order : [ `Min | `Max ]; term : Instance.t -> int -> int -> float }
  | Dynamic

type t = { name : string; eval : State.t -> j:int -> float; shape : shape }

(* [Instance.send_time], inlined by hand: a cross-module call boxes. *)
let edge (inst : Instance.t) j k =
  let jk = (j * inst.n) + k in
  inst.gap_flat.(jk) +. inst.lat_flat.(jk)

(* Fold [term] over k in B \ {j}; 0. when j is the last member of B. *)
let fold_edges ~combine ~init ~term state j =
  let inst = State.instance state in
  let acc = ref init and seen = ref false in
  State.iter_b state (fun k ->
      if k <> j then begin
        seen := true;
        acc := combine !acc (term inst j k)
      end);
  if !seen then !acc else 0.

let none = { name = "none"; eval = (fun _ ~j:_ -> 0.); shape = Zero }

let min_edge =
  {
    name = "min-edge";
    eval = (fun state ~j -> fold_edges ~combine:Float.min ~init:infinity ~term:edge state j);
    shape = Fold { order = `Min; term = edge };
  }

let edge_plus_t inst j k = edge inst j k +. inst.Instance.intra.(k)

let min_edge_plus_t =
  {
    name = "min-edge+T";
    eval =
      (fun state ~j ->
        fold_edges ~combine:Float.min ~init:infinity ~term:edge_plus_t state j);
    shape = Fold { order = `Min; term = edge_plus_t };
  }

let max_edge_plus_t =
  {
    name = "max-edge+T";
    eval =
      (fun state ~j ->
        fold_edges ~combine:Float.max ~init:neg_infinity ~term:edge_plus_t state j);
    shape = Fold { order = `Max; term = edge_plus_t };
  }

let avg_latency_to_b =
  {
    name = "avg-latency-B";
    eval =
      (fun state ~j ->
        let inst = State.instance state in
        let sum = ref 0. and count = ref 0 in
        State.iter_b state (fun k ->
            if k <> j then begin
              sum := !sum +. inst.Instance.lat_flat.((j * inst.Instance.n) + k);
              incr count
            end);
        if !count = 0 then 0. else !sum /. float_of_int !count);
    shape = Dynamic;
  }

let avg_edge_a_b =
  {
    name = "avg-edge-AB";
    eval =
      (fun state ~j ->
        let inst = State.instance state in
        let sum = ref 0. and count = ref 0 in
        let accumulate a =
          State.iter_b state (fun k ->
              if k <> j then begin
                sum := !sum +. edge inst a k;
                incr count
              end)
        in
        State.iter_a state accumulate;
        accumulate j;
        if !count = 0 then 0. else !sum /. float_of_int !count);
    shape = Dynamic;
  }

let all =
  [ none; min_edge; min_edge_plus_t; max_edge_plus_t; avg_latency_to_b; avg_edge_a_b ]

let by_name name = List.find_opt (fun t -> t.name = name) all
