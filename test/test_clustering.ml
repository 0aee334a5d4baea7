(* Tests for gridb_clustering: partitions, Lowekamp detection (including the
   Table 3 recovery), matrix-to-grid abstraction. *)

module Partition = Gridb_clustering.Partition
module Lowekamp = Gridb_clustering.Lowekamp
module Abstraction = Gridb_clustering.Abstraction
module Machines = Gridb_topology.Machines
module Grid = Gridb_topology.Grid
module Grid5000 = Gridb_topology.Grid5000
module Rng = Gridb_util.Rng

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- Partition -------------------------------------------------------------- *)

let test_partition_normalisation () =
  let p = Partition.of_assignment [| 7; 3; 7; 9; 3 |] in
  Alcotest.(check int) "3 clusters" 3 (Partition.count p);
  Alcotest.(check int) "first label is 0" 0 (Partition.cluster_of p 0);
  Alcotest.(check (list int)) "members of 0" [ 0; 2 ] (Partition.members p 0);
  Alcotest.(check (list int)) "members of 1" [ 1; 4 ] (Partition.members p 1);
  Alcotest.(check (array int)) "sizes" [| 2; 2; 1 |] (Partition.sizes p)

let test_partition_trivial_and_one () =
  Alcotest.(check int) "trivial" 5 (Partition.count (Partition.trivial 5));
  Alcotest.(check int) "all in one" 1 (Partition.count (Partition.all_in_one 5))

let test_partition_equal_up_to_labels () =
  let a = Partition.of_assignment [| 0; 0; 1; 1 |] in
  let b = Partition.of_assignment [| 5; 5; 2; 2 |] in
  Alcotest.(check bool) "same blocks" true (Partition.equal a b)

let test_rand_index () =
  let a = Partition.of_assignment [| 0; 0; 1; 1 |] in
  check_feq "identical" 1. (Partition.rand_index a a);
  let b = Partition.of_assignment [| 0; 1; 2; 3 |] in
  (* agreements: pairs separated in both: a separates (0,2)(0,3)(1,2)(1,3) =
     4 of 6 pairs. *)
  check_feq "partial" (4. /. 6.) (Partition.rand_index a b);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Partition.rand_index: size mismatch") (fun () ->
      ignore (Partition.rand_index a (Partition.trivial 3)))

let test_partition_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Partition.of_assignment: empty input")
    (fun () -> ignore (Partition.of_assignment [||]))

(* --- Lowekamp ----------------------------------------------------------------- *)

(* Two clear clusters: {0,1,2} at ~10 us internally, {3,4} at ~12 us, 5000 us
   across. *)
let two_cluster_matrix () =
  let n = 5 in
  let m = Array.make_matrix n n 0. in
  let set i j v =
    m.(i).(j) <- v;
    m.(j).(i) <- v
  in
  set 0 1 10.;
  set 0 2 11.;
  set 1 2 10.5;
  set 3 4 12.;
  List.iter
    (fun (i, j) -> set i j 5_000.)
    [ (0, 3); (0, 4); (1, 3); (1, 4); (2, 3); (2, 4) ];
  m

let test_lowekamp_two_clusters () =
  let p = Lowekamp.detect (two_cluster_matrix ()) in
  Alcotest.(check int) "2 clusters" 2 (Partition.count p);
  Alcotest.(check (list int)) "first block" [ 0; 1; 2 ] (Partition.members p 0)

let test_lowekamp_zero_tolerance_shatters_heterogeneity () =
  (* rho = 0 merges only exactly-equal latencies: the {0,1,2} block has
     10/10.5/11 and must shatter. *)
  let p = Lowekamp.detect ~rho:0. (two_cluster_matrix ()) in
  Alcotest.(check bool) "more than 2 clusters" true (Partition.count p > 2)

let test_lowekamp_huge_tolerance_single_cluster () =
  let p = Lowekamp.detect ~rho:1_000_000. ~require_locality:false (two_cluster_matrix ()) in
  Alcotest.(check int) "everything merges" 1 (Partition.count p)

let test_lowekamp_recovers_table3 () =
  let machines = Machines.expand (Grid5000.grid ()) in
  let matrix = Machines.latency_matrix machines in
  let p = Lowekamp.detect ~rho:0.30 matrix in
  Alcotest.(check int) "6 clusters" 6 (Partition.count p);
  let sizes = List.sort compare (Array.to_list (Partition.sizes p)) in
  Alcotest.(check (list int)) "sizes as Table 3" [ 1; 1; 6; 20; 29; 31 ] sizes;
  let truth =
    Partition.of_assignment
      (Array.init (Machines.count machines) (fun r ->
           (Machines.machine machines r).Machines.cluster))
  in
  check_feq "perfect recovery" 1. (Partition.rand_index p truth)

let test_lowekamp_recovers_table3_under_noise () =
  let machines = Machines.expand (Grid5000.grid ()) in
  let rng = Rng.create 99 in
  let matrix = Machines.latency_matrix ~rng ~jitter_sigma:0.03 machines in
  let p = Lowekamp.detect ~rho:0.30 matrix in
  let truth =
    Partition.of_assignment
      (Array.init (Machines.count machines) (fun r ->
           (Machines.machine machines r).Machines.cluster))
  in
  Alcotest.(check bool) "Rand >= 0.99" true (Partition.rand_index p truth >= 0.99)

let test_lowekamp_locality_keeps_remote_singletons_apart () =
  (* Two machines 242 us apart, both 60 us from a third: without locality
     they merge; with it they stay separate (the IDPOT-B/C case). *)
  let m = Array.make_matrix 3 3 0. in
  let set i j v =
    m.(i).(j) <- v;
    m.(j).(i) <- v
  in
  set 0 1 60.;
  set 0 2 60.;
  set 1 2 242.;
  let with_locality = Lowekamp.detect ~rho:0.30 m in
  Alcotest.(check bool) "1 and 2 apart" true
    (Partition.cluster_of with_locality 1 <> Partition.cluster_of with_locality 2);
  let without = Lowekamp.detect ~rho:0.30 ~require_locality:false m in
  Alcotest.(check bool) "without locality they may merge" true
    (Partition.count without <= Partition.count with_locality)

let test_lowekamp_is_homogeneous () =
  let m = two_cluster_matrix () in
  Alcotest.(check bool) "block ok" true (Lowekamp.is_homogeneous m [ 0; 1; 2 ]);
  Alcotest.(check bool) "pair trivially ok" true (Lowekamp.is_homogeneous m [ 0; 3 ]);
  Alcotest.(check bool) "mixed triple not ok" false (Lowekamp.is_homogeneous m [ 0; 1; 3 ]);
  Alcotest.(check bool) "singleton ok" true (Lowekamp.is_homogeneous m [ 4 ]);
  Alcotest.(check bool) "empty ok" true (Lowekamp.is_homogeneous m [])

let test_lowekamp_quality () =
  let m = two_cluster_matrix () in
  let p = Lowekamp.detect m in
  let q = Lowekamp.partition_quality m p in
  Alcotest.(check bool) "quality within tolerance band" true (q >= 1. && q <= 1.3);
  check_feq "trivial partition is perfect" 1.
    (Lowekamp.partition_quality m (Partition.trivial 5))

let test_lowekamp_rejects () =
  Alcotest.check_raises "negative rho" (Invalid_argument "Lowekamp.detect: negative rho")
    (fun () -> ignore (Lowekamp.detect ~rho:(-0.1) (two_cluster_matrix ())));
  Alcotest.check_raises "empty" (Invalid_argument "Lowekamp: empty matrix") (fun () ->
      ignore (Lowekamp.detect [||]))

let lowekamp_partition_sound =
  QCheck.Test.make ~name:"detected non-singleton blocks are homogeneous" ~count:(Testutil.count 40)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      (* small clusters keep the O(machines^2) matrix cheap in this property *)
      let spec =
        { Gridb_topology.Generators.default_random_spec with cluster_size = (2, 10) }
      in
      let grid = Gridb_topology.Generators.uniform_random ~rng ~n:4 spec in
      let machines = Machines.expand grid in
      let matrix = Machines.latency_matrix ~rng ~jitter_sigma:0.02 machines in
      let p = Lowekamp.detect matrix in
      List.for_all
        (fun c -> Lowekamp.is_homogeneous matrix (Partition.members p c))
        (List.init (Partition.count p) Fun.id))

(* --- Matrix IO ----------------------------------------------------------------- *)

module Matrix_io = Gridb_clustering.Matrix_io

let test_matrix_io_roundtrip () =
  let matrix = two_cluster_matrix () in
  let path = Filename.temp_file "gridb" ".csv" in
  Matrix_io.save path matrix;
  (match Matrix_io.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      Alcotest.(check int) "size" (Array.length matrix) (Array.length loaded);
      Array.iteri
        (fun i row ->
          Array.iteri (fun j v -> check_feq (Printf.sprintf "(%d,%d)" i j) v loaded.(i).(j)) row)
        matrix);
  Sys.remove path

let test_matrix_io_parsing () =
  (match Matrix_io.of_string "0,10\n10,0\n" with
  | Ok m -> check_feq "cell" 10. m.(0).(1)
  | Error e -> Alcotest.failf "parse: %s" e);
  (* blank/dash diagonal, comments, blank lines *)
  (match Matrix_io.of_string "# two machines\n-,5\n\n5,-\n" with
  | Ok m ->
      check_feq "dash diagonal" 0. m.(0).(0);
      check_feq "value" 5. m.(1).(0)
  | Error e -> Alcotest.failf "parse: %s" e);
  Alcotest.(check bool) "ragged rejected" true
    (Result.is_error (Matrix_io.of_string "0,1\n1\n"));
  Alcotest.(check bool) "non-numeric rejected" true
    (Result.is_error (Matrix_io.of_string "0,x\ny,0\n"));
  Alcotest.(check bool) "empty rejected" true (Result.is_error (Matrix_io.of_string ""));
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Matrix_io.load "/nonexistent/file.csv"))

let test_matrix_io_validate () =
  Alcotest.(check bool) "symmetric ok" true
    (Result.is_ok (Matrix_io.validate (two_cluster_matrix ())));
  let asym = [| [| 0.; 10. |]; [| 20.; 0. |] |] in
  Alcotest.(check bool) "asymmetry detected" true
    (Result.is_error (Matrix_io.validate asym));
  Alcotest.(check bool) "asymmetry tolerated when disabled" true
    (Result.is_ok (Matrix_io.validate ~require_symmetric:false asym));
  Alcotest.(check bool) "negative rejected" true
    (Result.is_error (Matrix_io.validate [| [| 0.; -1. |]; [| -1.; 0. |] |]))

let test_matrix_io_non_finite () =
  (* Every spelling float_of_string accepts for a non-finite value is a
     typed error naming the line, not a matrix that poisons detection. *)
  List.iter
    (fun cell ->
      match Matrix_io.of_string (Printf.sprintf "# header\n0,5\n%s,0\n" cell) with
      | Ok _ -> Alcotest.failf "%S accepted" cell
      | Error e ->
          Alcotest.(check string)
            (Printf.sprintf "%S error" cell)
            (Printf.sprintf "line 3: not a finite number: %S" cell)
            e)
    [ "nan"; "NaN"; "-nan"; "inf"; "-inf"; "infinity"; "Infinity"; "1e400"; "-1e400" ];
  List.iter
    (fun (label, x) ->
      match Matrix_io.validate ~require_symmetric:false [| [| 0.; 1. |]; [| x; 0. |] |] with
      | Ok () -> Alcotest.failf "%s accepted by validate" label
      | Error e -> Alcotest.(check string) label "non-finite latency at (1, 0)" e)
    [ ("nan", Float.nan); ("infinity", Float.infinity); ("-infinity", Float.neg_infinity) ]

let test_matrix_io_pipeline () =
  (* CSV -> detect -> grid: the full user path. *)
  let path = Filename.temp_file "gridb" ".csv" in
  Matrix_io.save path (two_cluster_matrix ());
  (match Matrix_io.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok matrix ->
      let p = Lowekamp.detect matrix in
      let grid = Abstraction.grid_of_matrix matrix p in
      Alcotest.(check int) "2 clusters" 2 (Grid.size grid));
  Sys.remove path

(* --- Abstraction ----------------------------------------------------------------- *)

let test_abstraction_builds_grid () =
  let m = two_cluster_matrix () in
  let p = Lowekamp.detect m in
  let grid = Abstraction.grid_of_matrix m p in
  Alcotest.(check int) "2 clusters" 2 (Grid.size grid);
  Alcotest.(check int) "5 machines" 5 (Grid.total_processes grid);
  check_feq "inter latency = median cross" 5_000. (Grid.latency grid 0 1);
  (* intra latency of block {0,1,2} is the median of {10,10.5,11} *)
  let c0 = Grid.cluster grid 0 in
  check_feq "intra median" 10.5 (Gridb_plogp.Params.latency c0.Gridb_topology.Cluster.intra)

let test_abstraction_median_cross () =
  let m = two_cluster_matrix () in
  check_feq "cross median" 5_000. (Abstraction.median_cross_latency m [ 0; 1 ] [ 3; 4 ]);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Abstraction.median_cross_latency: overlap") (fun () ->
      ignore (Abstraction.median_cross_latency m [ 0 ] [ 0; 1 ]))

let test_abstraction_grid5000_roundtrip () =
  (* matrix -> partition -> grid should reproduce the cluster structure and
     the latency classes of the original grid. *)
  let machines = Machines.expand (Grid5000.grid ()) in
  let matrix = Machines.latency_matrix machines in
  let p = Lowekamp.detect ~rho:0.30 matrix in
  let grid = Abstraction.grid_of_matrix matrix p in
  Alcotest.(check int) "6 clusters" 6 (Grid.size grid);
  Alcotest.(check int) "88 processes" 88 (Grid.total_processes grid);
  (* Orsay <-> IDPOT class survives the abstraction *)
  let found_wan = ref false in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j && Grid.latency grid i j > 10_000. then found_wan := true
    done
  done;
  Alcotest.(check bool) "wan links preserved" true !found_wan

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "clustering"
    [
      ( "partition",
        [
          quick "normalisation" test_partition_normalisation;
          quick "trivial/one" test_partition_trivial_and_one;
          quick "equal up to labels" test_partition_equal_up_to_labels;
          quick "rand index" test_rand_index;
          quick "rejects empty" test_partition_rejects_empty;
        ] );
      ( "lowekamp",
        [
          quick "two clusters" test_lowekamp_two_clusters;
          quick "zero tolerance" test_lowekamp_zero_tolerance_shatters_heterogeneity;
          quick "huge tolerance" test_lowekamp_huge_tolerance_single_cluster;
          quick "recovers Table 3" test_lowekamp_recovers_table3;
          quick "recovers Table 3 under noise" test_lowekamp_recovers_table3_under_noise;
          quick "locality condition" test_lowekamp_locality_keeps_remote_singletons_apart;
          quick "is_homogeneous" test_lowekamp_is_homogeneous;
          quick "quality" test_lowekamp_quality;
          quick "rejects" test_lowekamp_rejects;
          QCheck_alcotest.to_alcotest lowekamp_partition_sound;
        ] );
      ( "matrix-io",
        [
          quick "roundtrip" test_matrix_io_roundtrip;
          quick "parsing" test_matrix_io_parsing;
          quick "validate" test_matrix_io_validate;
          quick "non-finite cells" test_matrix_io_non_finite;
          quick "csv pipeline" test_matrix_io_pipeline;
        ] );
      ( "abstraction",
        [
          quick "builds grid" test_abstraction_builds_grid;
          quick "median cross" test_abstraction_median_cross;
          quick "grid5000 roundtrip" test_abstraction_grid5000_roundtrip;
        ] );
    ]
