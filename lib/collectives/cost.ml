module Params = Gridb_plogp.Params

let per_node_arrival ~params ~msg tree =
  let g = Params.gap params msg and l = Params.latency params in
  let acc = ref [] in
  (* [visit t at]: node [t.node] holds the message at [at]; its i-th child
     (1-based) receives at [at + i*g + L]. *)
  let rec visit t at =
    acc := (t.Tree.node, at) :: !acc;
    List.iteri
      (fun i child -> visit child (at +. (float_of_int (i + 1) *. g) +. l))
      t.Tree.children
  in
  visit tree 0.;
  List.rev !acc

let tree_completion ~params ~msg tree =
  List.fold_left (fun acc (_, t) -> Float.max acc t) 0. (per_node_arrival ~params ~msg tree)

(* Node [j]'s position among its parent's children in [Tree.binomial
   size].  The parent [q] clears [j]'s lowest set bit [p]; [q]'s subtree
   spans [q, q + len) and lists its children largest offset first, so [j]
   comes after every power of two in (p, len). *)
let binomial_index size j =
  let p = j land -j in
  let q = j - p in
  let len = if q = 0 then size else min (q land -q) (size - q) in
  let index = ref 0 and x = ref (2 * p) in
  while !x < len do
    incr index;
    x := 2 * !x
  done;
  !index

let broadcast_time ?(shape = Tree.Binomial) ~params ~size ~msg () =
  if size <= 1 then 0.
  else begin
    (* Walk the implicit [Tree.build shape size], where a parent precedes
       its children: level-order [k]-ary covers Flat ([k = size - 1]),
       Chain and Binary; [k = 0] is Binomial. *)
    let k =
      match shape with
      | Tree.Binomial -> 0
      | Tree.Flat -> size - 1
      | Tree.Chain -> 1
      | Tree.Binary -> 2
      | Tree.Kary k -> if k < 1 then invalid_arg "Tree.kary: k < 1" else k
    in
    let g = Params.gap params msg and l = Params.latency params in
    (* [tree_completion]'s float expression and max: bit-identical. *)
    let arrival = Array.make size 0. and completion = ref 0. in
    for j = 1 to size - 1 do
      let parent = if k = 0 then j land (j - 1) else (j - 1) / k in
      let i = if k = 0 then binomial_index size j else (j - 1) mod k in
      let at = arrival.(parent) +. (float_of_int (i + 1) *. g) +. l in
      arrival.(j) <- at;
      completion := Float.max !completion at
    done;
    !completion
  end

let scatter_time ~params ~size ~msg =
  if size <= 1 then 0.
  else (float_of_int (size - 1) *. Params.gap params msg) +. Params.latency params

let gather_time ~params ~size ~msg = scatter_time ~params ~size ~msg

let allgather_ring_time ~params ~size ~msg =
  if size <= 1 then 0.
  else float_of_int (size - 1) *. (Params.gap params msg +. Params.latency params)

let barrier_time ~params ~size =
  if size <= 1 then 0.
  else begin
    let rounds = int_of_float (Float.ceil (Float.log2 (float_of_int size))) in
    float_of_int rounds *. (Params.gap params 0 +. Params.latency params)
  end
