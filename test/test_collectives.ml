(* Tests for gridb_collectives: tree shapes, pLogP cost models, pipelining. *)

module Tree = Gridb_collectives.Tree
module Cost = Gridb_collectives.Cost
module Pipeline = Gridb_collectives.Pipeline
module Params = Gridb_plogp.Params

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let params = Params.linear ~latency:50. ~g0:20. ~bandwidth_mb_s:100.

(* --- Tree shapes -------------------------------------------------------- *)

let test_trees_spanning =
  QCheck.Test.make ~name:"every shape spans 0..n-1 exactly once" ~count:(Testutil.count 100)
    QCheck.(int_range 1 200)
    (fun n ->
      List.for_all (fun shape -> Tree.is_spanning ~n (Tree.build shape n)) Tree.all_shapes)

let test_binomial_depth () =
  (* Classic binomial structure: the child at offset 2^i owns the range
     [2^i, 2^(i+1)) clamped to n.  Depth is floor(log2) of the largest
     fully-populated subtree — e.g. n=3 has both non-roots as direct
     children (depth 1) even though dissemination takes 2 rounds. *)
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "depth n=%d" n) expected
        (Tree.depth (Tree.binomial n)))
    [ (1, 0); (2, 1); (3, 1); (4, 2); (5, 2); (8, 3); (9, 3); (16, 4); (17, 4); (88, 6) ]

let test_binomial_root_children () =
  (* Root children at offsets 16, 8, 4, 2, 1 for n in (16, 32]. *)
  let t = Tree.binomial 20 in
  Alcotest.(check (list int)) "root children descending powers" [ 16; 8; 4; 2; 1 ]
    (List.map (fun (c : Tree.t) -> c.Tree.node) t.Tree.children)

let test_flat_shape () =
  let t = Tree.flat 5 in
  Alcotest.(check int) "depth 1" 1 (Tree.depth t);
  Alcotest.(check int) "out degree 4" 4 (Tree.max_out_degree t)

let test_chain_shape () =
  let t = Tree.chain 6 in
  Alcotest.(check int) "depth n-1" 5 (Tree.depth t);
  Alcotest.(check int) "out degree 1" 1 (Tree.max_out_degree t)

let test_binary_shape () =
  let t = Tree.binary 7 in
  Alcotest.(check int) "depth" 2 (Tree.depth t);
  Alcotest.(check int) "out degree" 2 (Tree.max_out_degree t)

let test_kary_rejects () =
  Alcotest.check_raises "k=0" (Invalid_argument "Tree.kary: k < 1") (fun () ->
      ignore (Tree.kary ~k:0 3));
  Alcotest.check_raises "n=0" (Invalid_argument "Tree.binomial: n < 1") (fun () ->
      ignore (Tree.binomial 0))

let test_tree_size_nodes () =
  let t = Tree.binomial 13 in
  Alcotest.(check int) "size" 13 (Tree.size t);
  Alcotest.(check (list int)) "nodes sorted" (List.init 13 Fun.id)
    (List.sort compare (Tree.nodes t))

(* --- Cost models ---------------------------------------------------------- *)

let test_cost_two_nodes () =
  (* One transmission: g + L. *)
  let t = Tree.binomial 2 in
  check_feq "g+L" (Params.gap params 1000 +. 50.) (Cost.tree_completion ~params ~msg:1000 t)

let test_cost_flat_tree () =
  (* Flat over n: last of n-1 sequential sends: (n-1) g + L. *)
  let n = 6 in
  let expected = (5. *. Params.gap params 1000) +. 50. in
  check_feq "flat" expected (Cost.tree_completion ~params ~msg:1000 (Tree.flat n))

let test_cost_chain () =
  (* Chain: (n-1)(g + L). *)
  let n = 5 in
  let expected = 4. *. (Params.gap params 1000 +. 50.) in
  check_feq "chain" expected (Cost.tree_completion ~params ~msg:1000 (Tree.chain n))

let test_cost_binomial_power_of_two () =
  (* For n = 2^k with gap-dominated model, completion = k*g + L when g >= L
     is not generally closed-form; instead verify the recursive structure by
     direct simulation over arrivals. *)
  let t = Tree.binomial 8 in
  let arrivals = Cost.per_node_arrival ~params ~msg:1000 t in
  Alcotest.(check int) "8 arrivals" 8 (List.length arrivals);
  let root_time = List.assoc 0 arrivals in
  check_feq "root at 0" 0. root_time;
  (* node 4 is the root's first child: receives at g + L *)
  check_feq "first child" (Params.gap params 1000 +. 50.) (List.assoc 4 arrivals)

let test_cost_monotone_in_size =
  QCheck.Test.make ~name:"broadcast time monotone in cluster size" ~count:(Testutil.count 50)
    QCheck.(int_range 1 100)
    (fun n ->
      Cost.broadcast_time ~params ~size:n ~msg:10_000 ()
      <= Cost.broadcast_time ~params ~size:(n + 1) ~msg:10_000 () +. 1e-9)

let test_cost_binomial_beats_flat_and_chain =
  QCheck.Test.make ~name:"binomial <= flat and <= chain for n >= 3" ~count:(Testutil.count 50)
    QCheck.(int_range 3 150)
    (fun n ->
      let b = Cost.broadcast_time ~shape:Tree.Binomial ~params ~size:n ~msg:100_000 () in
      let f = Cost.broadcast_time ~shape:Tree.Flat ~params ~size:n ~msg:100_000 () in
      let c = Cost.broadcast_time ~shape:Tree.Chain ~params ~size:n ~msg:100_000 () in
      b <= f +. 1e-6 && b <= c +. 1e-6)

(* [broadcast_time] walks the implicit tree; [tree_completion] folds over
   the built one.  Both must give the same float, bit for bit, on linear
   and on three-point tables, at sizes inside and beyond the table. *)
let test_cost_walk_matches_tree =
  let params_gen =
    QCheck.Gen.(
      let linear =
        map3
          (fun latency g0 bw -> Params.linear ~latency ~g0 ~bandwidth_mb_s:bw)
          (float_range 0. 1e4) (float_range 0. 1e3) (float_range 1. 1e4)
      in
      let piecewise =
        map3
          (fun latency (s1, s2) (v0, v1, v2) ->
            Params.v ~latency
              ~gap:(Gridb_plogp.Piecewise.of_points [ (0, v0); (s1, v1); (s1 + s2, v2) ])
              ())
          (float_range 0. 1e4)
          (pair (int_range 1 100_000) (int_range 1 1_000_000))
          (triple (float_range 0. 1e3) (float_range 0. 1e5) (float_range 0. 1e6))
      in
      oneof [ linear; piecewise ])
  in
  let gen = QCheck.Gen.(triple params_gen (int_range 1 300) (int_range 0 3_000_000)) in
  let print (p, size, msg) = Format.asprintf "%a size=%d msg=%d" Params.pp p size msg in
  QCheck.Test.make ~name:"broadcast_time = tree_completion of the built tree, bit for bit"
    ~count:(Testutil.count 200) (QCheck.make ~print gen)
    (fun (params, size, msg) ->
      List.for_all
        (fun shape ->
          Float.equal
            (Cost.broadcast_time ~shape ~params ~size ~msg ())
            (Cost.tree_completion ~params ~msg (Tree.build shape size)))
        (Tree.all_shapes @ [ Tree.Kary 3; Tree.Kary 7 ]))

let test_cost_trivial_sizes () =
  check_feq "size 1 is free" 0. (Cost.broadcast_time ~params ~size:1 ~msg:1_000_000 ());
  check_feq "scatter size 1" 0. (Cost.scatter_time ~params ~size:1 ~msg:1000);
  check_feq "allgather size 1" 0. (Cost.allgather_ring_time ~params ~size:1 ~msg:1000);
  check_feq "barrier size 1" 0. (Cost.barrier_time ~params ~size:1)

let test_cost_scatter_formula () =
  check_feq "scatter"
    ((4. *. Params.gap params 2048) +. 50.)
    (Cost.scatter_time ~params ~size:5 ~msg:2048);
  check_feq "gather mirror" (Cost.scatter_time ~params ~size:5 ~msg:2048)
    (Cost.gather_time ~params ~size:5 ~msg:2048)

let test_cost_allgather_formula () =
  check_feq "ring"
    (7. *. (Params.gap params 4096 +. 50.))
    (Cost.allgather_ring_time ~params ~size:8 ~msg:4096)

let test_cost_barrier_formula () =
  check_feq "barrier 8 = 3 rounds"
    (3. *. (Params.gap params 0 +. 50.))
    (Cost.barrier_time ~params ~size:8);
  check_feq "barrier 9 = 4 rounds"
    (4. *. (Params.gap params 0 +. 50.))
    (Cost.barrier_time ~params ~size:9)

(* --- Pipeline -------------------------------------------------------------- *)

let test_pipeline_one_segment_is_chain () =
  let n = 6 and msg = 100_000 in
  check_feq "1 segment = chain cost"
    (Cost.tree_completion ~params ~msg (Tree.chain n))
    (Pipeline.chain_time ~params ~size:n ~msg ~segments:1)

let test_pipeline_formula () =
  (* (s + n - 2) * g(m/s) + (n-1) L *)
  let n = 4 and msg = 100_000 and s = 4 in
  let seg = msg / s in
  let expected =
    (float_of_int (s + n - 2) *. Params.gap params seg) +. (3. *. 50.)
  in
  check_feq "segmented chain" expected (Pipeline.chain_time ~params ~size:n ~msg ~segments:s)

let test_pipeline_best_segments () =
  let segments, time = Pipeline.best_segments ~params ~size:16 ~msg:1_000_000 () in
  Alcotest.(check bool) "found candidate" true (segments >= 1);
  (* best must be no worse than either extreme candidate *)
  Alcotest.(check bool) "beats 1 segment" true
    (time <= Pipeline.chain_time ~params ~size:16 ~msg:1_000_000 ~segments:1 +. 1e-9);
  Alcotest.(check bool) "beats 256 segments" true
    (time <= Pipeline.chain_time ~params ~size:16 ~msg:1_000_000 ~segments:256 +. 1e-9)

let test_pipeline_beats_binomial_large_messages () =
  (* With high per-message cost amortised, pipelining wins for large
     messages on long chains. *)
  let _, t = Pipeline.best_segments ~params ~size:32 ~msg:4_000_000 () in
  let b = Cost.broadcast_time ~params ~size:32 ~msg:4_000_000 () in
  Alcotest.(check bool) "pipeline faster" true (t < b)

let test_pipeline_rejects () =
  Alcotest.check_raises "segments < 1" (Invalid_argument "Pipeline.chain_time: segments < 1")
    (fun () -> ignore (Pipeline.chain_time ~params ~size:4 ~msg:100 ~segments:0))

(* --- Auto-tuning -------------------------------------------------------------- *)

module Tuned = Gridb_collectives.Tuned

let test_tuned_never_worse_than_binomial =
  QCheck.Test.make ~name:"tuned time <= binomial time" ~count:(Testutil.count 100)
    QCheck.(pair (int_range 1 64) (int_range 1 22))
    (fun (size, msg_exp) ->
      let msg = 1 lsl msg_exp in
      let t = Tuned.broadcast_time ~params ~size ~msg () in
      t <= Cost.broadcast_time ~params ~size ~msg () +. 1e-9)

let test_tuned_small_message_prefers_tree () =
  (* tiny message: per-message cost dominates, a tree must win *)
  match Tuned.best ~params ~size:32 ~msg:64 () with
  | Tuned.Tree_shape _, _ -> ()
  | Tuned.Segmented_chain _, _ -> Alcotest.fail "expected a tree for 64 B"

let test_tuned_large_message_prefers_pipeline () =
  match Tuned.best ~params ~size:32 ~msg:8_000_000 () with
  | Tuned.Segmented_chain s, _ ->
      Alcotest.(check bool) "several segments" true (s > 1)
  | Tuned.Tree_shape _, _ -> Alcotest.fail "expected the pipeline for 8 MB over 32 nodes"

let test_tuned_crossover () =
  match Tuned.crossover_size ~params ~size:32 () with
  | Some m ->
      Alcotest.(check bool) "crossover in a sensible band" true
        (m > 1_000 && m <= 16 * 1024 * 1024);
      (* below the crossover a tree wins, at it the pipeline does *)
      (match Tuned.best ~params ~size:32 ~msg:(m / 2) () with
      | Tuned.Tree_shape _, _ -> ()
      | _ -> Alcotest.fail "tree expected below crossover")
  | None -> Alcotest.fail "expected a crossover for this cluster"

let test_tuned_singleton () =
  let choice, t = Tuned.best ~params ~size:1 ~msg:1_000_000 () in
  Alcotest.(check string) "binomial placeholder" "binomial" (Tuned.choice_name choice);
  check_feq "free" 0. t

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "collectives"
    [
      ( "trees",
        [
          QCheck_alcotest.to_alcotest test_trees_spanning;
          quick "binomial depth" test_binomial_depth;
          quick "binomial root children" test_binomial_root_children;
          quick "flat" test_flat_shape;
          quick "chain" test_chain_shape;
          quick "binary" test_binary_shape;
          quick "rejects" test_kary_rejects;
          quick "size/nodes" test_tree_size_nodes;
        ] );
      ( "cost",
        [
          quick "two nodes" test_cost_two_nodes;
          quick "flat formula" test_cost_flat_tree;
          quick "chain formula" test_cost_chain;
          quick "binomial arrivals" test_cost_binomial_power_of_two;
          QCheck_alcotest.to_alcotest test_cost_walk_matches_tree;
          QCheck_alcotest.to_alcotest test_cost_monotone_in_size;
          QCheck_alcotest.to_alcotest test_cost_binomial_beats_flat_and_chain;
          quick "trivial sizes" test_cost_trivial_sizes;
          quick "scatter formula" test_cost_scatter_formula;
          quick "allgather formula" test_cost_allgather_formula;
          quick "barrier formula" test_cost_barrier_formula;
        ] );
      ( "pipeline",
        [
          quick "one segment = chain" test_pipeline_one_segment_is_chain;
          quick "formula" test_pipeline_formula;
          quick "best segments" test_pipeline_best_segments;
          quick "beats binomial on large msgs" test_pipeline_beats_binomial_large_messages;
          quick "rejects" test_pipeline_rejects;
        ] );
      ( "tuned",
        [
          QCheck_alcotest.to_alcotest test_tuned_never_worse_than_binomial;
          quick "small msg -> tree" test_tuned_small_message_prefers_tree;
          quick "large msg -> pipeline" test_tuned_large_message_prefers_pipeline;
          quick "crossover" test_tuned_crossover;
          quick "singleton" test_tuned_singleton;
        ] );
    ]
