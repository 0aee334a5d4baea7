(* Tests for gridb_topology: clusters, grids, levels, GRID5000 data,
   generators, machine views, serialization. *)

module Cluster = Gridb_topology.Cluster
module Grid = Gridb_topology.Grid
module Levels = Gridb_topology.Levels
module Grid5000 = Gridb_topology.Grid5000
module Generators = Gridb_topology.Generators
module Machines = Gridb_topology.Machines
module Serialize = Gridb_topology.Serialize
module Params = Gridb_plogp.Params

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

let sample_params = Params.linear ~latency:100. ~g0:10. ~bandwidth_mb_s:10.

let small_grid () =
  Generators.homogeneous ~n:3 ~cluster_size:4 ~inter:sample_params
    ~intra:(Params.linear ~latency:10. ~g0:5. ~bandwidth_mb_s:100.)

(* --- Cluster ------------------------------------------------------------ *)

let test_cluster_v () =
  let c = Cluster.v ~id:2 ~name:"x" ~size:5 ~intra:sample_params in
  Alcotest.(check int) "id" 2 c.Cluster.id;
  Alcotest.(check int) "size" 5 c.Cluster.size;
  Alcotest.(check bool) "not singleton" false (Cluster.is_singleton c);
  Alcotest.(check bool) "singleton" true
    (Cluster.is_singleton (Cluster.v ~id:0 ~name:"s" ~size:1 ~intra:sample_params));
  Alcotest.check_raises "size 0" (Invalid_argument "Cluster.v: size < 1") (fun () ->
      ignore (Cluster.v ~id:0 ~name:"bad" ~size:0 ~intra:sample_params));
  Alcotest.(check int) "with_id" 7 (Cluster.with_id 7 c).Cluster.id

(* --- Grid ----------------------------------------------------------------- *)

let test_grid_accessors () =
  let g = small_grid () in
  Alcotest.(check int) "size" 3 (Grid.size g);
  Alcotest.(check int) "total processes" 12 (Grid.total_processes g);
  check_feq "latency" 100. (Grid.latency g 0 1);
  check_feq "gap" (10. +. 100_000.) (Grid.gap g 0 1 1_000_000);
  check_feq "send = g+L" (Grid.gap g 0 2 64 +. 100.) (Grid.send_time g 0 2 64)

let test_grid_rejects () =
  let g = small_grid () in
  Alcotest.check_raises "self link" (Invalid_argument "Grid.link: i = j") (fun () ->
      ignore (Grid.link g 1 1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Grid.cluster: index out of range") (fun () ->
      ignore (Grid.cluster g 3))

let test_grid_validate_symmetric () =
  let g = small_grid () in
  Alcotest.(check bool) "symmetric ok" true (Result.is_ok (Grid.validate g))

let test_grid_validate_asymmetric () =
  let clusters =
    List.init 2 (fun i -> Cluster.v ~id:i ~name:"c" ~size:1 ~intra:sample_params)
  in
  let a = Params.linear ~latency:10. ~g0:1. ~bandwidth_mb_s:1. in
  let b = Params.linear ~latency:99. ~g0:1. ~bandwidth_mb_s:1. in
  let g = Grid.v ~clusters ~inter:[| [| a; a |]; [| b; b |] |] in
  Alcotest.(check bool) "asymmetry detected" true (Result.is_error (Grid.validate g))

let test_grid_map_links () =
  let g = small_grid () in
  let doubled = Grid.map_links (fun _ _ p -> Params.scale_noise ~factor:2. p) g in
  check_feq "latency doubled" 200. (Grid.latency doubled 0 1);
  check_feq "original untouched" 100. (Grid.latency g 0 1)

let test_grid_bad_ids () =
  let c0 = Cluster.v ~id:1 ~name:"c" ~size:1 ~intra:sample_params in
  Alcotest.check_raises "ids must be ordered"
    (Invalid_argument "Grid.v: cluster ids must be 0..n-1 in order") (fun () ->
      ignore (Grid.v ~clusters:[ c0 ] ~inter:[| [| sample_params |] |]))

(* --- Levels ----------------------------------------------------------------- *)

let test_levels_classification () =
  Alcotest.(check int) "wan" 0 (Levels.level_number (Levels.of_latency 12_181.));
  Alcotest.(check int) "lan" 1 (Levels.level_number (Levels.of_latency 242.));
  Alcotest.(check int) "localhost" 2 (Levels.level_number (Levels.of_latency 47.5));
  Alcotest.(check int) "shm" 3 (Levels.level_number (Levels.of_latency 2.))

let test_levels_order () =
  let sorted = List.sort Levels.compare_slower_first Levels.all in
  Alcotest.(check (list int)) "slowest first" [ 0; 1; 2; 3 ]
    (List.map Levels.level_number sorted)

(* --- Grid5000 ----------------------------------------------------------------- *)

let test_grid5000_structure () =
  let g = Grid5000.grid () in
  Alcotest.(check int) "6 clusters" 6 (Grid.size g);
  Alcotest.(check int) "88 machines" 88 (Grid.total_processes g);
  Alcotest.(check bool) "validates" true (Result.is_ok (Grid.validate g))

let test_grid5000_latencies_match_table3 () =
  let g = Grid5000.grid () in
  check_feq "0-1" 62.10 (Grid.latency g 0 1);
  check_feq "0-2" 12_181.52 (Grid.latency g 0 2);
  check_feq "2-5" 5_388.49 (Grid.latency g 2 5);
  check_feq "3-4" 242.47 (Grid.latency g 3 4);
  (* symmetry of the published matrix *)
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      check_feq (Printf.sprintf "sym %d-%d" i j) (Grid.latency g i j) (Grid.latency g j i)
    done
  done

let test_grid5000_bandwidth_classes () =
  check_feq "far wan" 1.3 (Grid5000.inter_bandwidth_mb_s 12_181.);
  check_feq "medium" 4. (Grid5000.inter_bandwidth_mb_s 5_211.);
  check_feq "same site" 50. (Grid5000.inter_bandwidth_mb_s 62.)

(* --- Generators ----------------------------------------------------------------- *)

let test_random_grid_within_spec () =
  let rng = Gridb_util.Rng.create 3 in
  let spec = Generators.default_random_spec in
  let g = Generators.uniform_random ~rng ~n:8 spec in
  Alcotest.(check int) "8 clusters" 8 (Grid.size g);
  Alcotest.(check bool) "validates" true (Result.is_ok (Grid.validate g));
  for i = 0 to 7 do
    let c = Grid.cluster g i in
    let lo, hi = spec.Generators.cluster_size in
    Alcotest.(check bool) "size in range" true (c.Cluster.size >= lo && c.Cluster.size <= hi);
    for j = 0 to 7 do
      if i <> j then begin
        let lat = Grid.latency g i j in
        let llo, lhi = spec.Generators.inter_latency_us in
        Alcotest.(check bool) "latency in range" true (lat >= llo && lat <= lhi)
      end
    done
  done

let test_random_grid_symmetric () =
  let rng = Gridb_util.Rng.create 4 in
  let g = Generators.uniform_random ~rng ~n:6 Generators.default_random_spec in
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      check_feq "latency symmetric" (Grid.latency g i j) (Grid.latency g j i);
      check_feq "gap symmetric" (Grid.gap g i j 1_000_000) (Grid.gap g j i 1_000_000)
    done
  done

let test_multilevel_structure () =
  let rng = Gridb_util.Rng.create 5 in
  let spec = { Generators.default_multilevel_spec with sites = 2; clusters_per_site = 3 } in
  let g = Generators.multilevel ~rng spec in
  Alcotest.(check int) "6 clusters" 6 (Grid.size g);
  (* same-site links are LAN class, cross-site WAN class *)
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j then begin
        let same = Generators.site_of_cluster spec i = Generators.site_of_cluster spec j in
        let lat = Grid.latency g i j in
        if same then
          Alcotest.(check bool) "lan latency" true (lat < 1_000.)
        else Alcotest.(check bool) "wan latency" true (lat >= 1_000.)
      end
    done
  done

(* --- Machines ----------------------------------------------------------------- *)

let test_machines_expand () =
  let g = Grid5000.grid () in
  let m = Machines.expand g in
  Alcotest.(check int) "count" 88 (Machines.count m);
  Alcotest.(check int) "coordinator 0" 0 (Machines.coordinator m 0);
  Alcotest.(check int) "coordinator 1" 31 (Machines.coordinator m 1);
  Alcotest.(check int) "coordinator 5" 68 (Machines.coordinator m 5);
  let mm = Machines.machine m 31 in
  Alcotest.(check int) "cluster of 31" 1 mm.Machines.cluster;
  Alcotest.(check int) "index of 31" 0 mm.Machines.index_in_cluster;
  Alcotest.(check int) "rank_of inverse" 31 (Machines.rank_of m ~cluster:1 ~index:0)

let test_machines_latency () =
  let g = Grid5000.grid () in
  let m = Machines.expand g in
  (* same cluster -> intra latency; different cluster -> inter *)
  check_feq "intra orsay" 47.56 (Machines.latency m 0 1);
  check_feq "inter orsay-orsayB" 62.10 (Machines.latency m 0 31);
  check_feq "inter orsay-idpot" 12_181.52 (Machines.latency m 0 61);
  Alcotest.check_raises "self" (Invalid_argument "Machines.link_params: equal ranks")
    (fun () -> ignore (Machines.latency m 3 3))

let test_machines_matrix_symmetric () =
  let g = small_grid () in
  let m = Machines.expand g in
  let matrix = Machines.latency_matrix m in
  let n = Machines.count m in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "zero diagonal" true (matrix.(i).(i) = 0.);
    for j = i + 1 to n - 1 do
      check_feq "symmetric" matrix.(i).(j) matrix.(j).(i)
    done
  done

(* --- Serialize ----------------------------------------------------------------- *)

let test_serialize_roundtrip () =
  let g = Grid5000.grid () in
  let text = Serialize.to_string g in
  match Serialize.of_string text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok g2 ->
      Alcotest.(check int) "same size" (Grid.size g) (Grid.size g2);
      Alcotest.(check int) "same processes" (Grid.total_processes g)
        (Grid.total_processes g2);
      for i = 0 to Grid.size g - 1 do
        let a = Grid.cluster g i and b = Grid.cluster g2 i in
        Alcotest.(check string) "name" a.Cluster.name b.Cluster.name;
        Alcotest.(check int) "cluster size" a.Cluster.size b.Cluster.size;
        for j = 0 to Grid.size g - 1 do
          if i <> j then begin
            check_feq "latency" (Grid.latency g i j) (Grid.latency g2 i j);
            check_feq "gap 1MB" (Grid.gap g i j 1_000_000) (Grid.gap g2 i j 1_000_000);
            check_feq "gap 12345" (Grid.gap g i j 12_345) (Grid.gap g2 i j 12_345)
          end
        done
      done

let test_serialize_random_roundtrip =
  QCheck.Test.make ~name:"serialize roundtrip preserves random grids" ~count:(Testutil.count 20)
    QCheck.(int_range 1 9)
    (fun n ->
      let rng = Gridb_util.Rng.create (n * 17) in
      let g = Generators.uniform_random ~rng ~n Generators.default_random_spec in
      match Serialize.of_string (Serialize.to_string g) with
      | Error _ -> false
      | Ok g2 ->
          let ok = ref (Grid.size g = Grid.size g2) in
          for i = 0 to Grid.size g - 1 do
            for j = 0 to Grid.size g - 1 do
              if i <> j then
                ok :=
                  !ok
                  && feq (Grid.latency g i j) (Grid.latency g2 i j)
                  && feq (Grid.gap g i j 500_000) (Grid.gap g2 i j 500_000)
            done
          done;
          !ok)

let test_serialize_print_fixpoint =
  (* print . parse . print = print: the textual form itself round-trips, a
     stronger check than comparing sampled link parameters. *)
  QCheck.Test.make ~name:"serialize text is a fixpoint" ~count:(Testutil.count 20)
    QCheck.(int_range 1 9)
    (fun n ->
      let g = Testutil.random_grid ~n (n * 31) in
      let text = Serialize.to_string g in
      match Serialize.of_string text with
      | Error _ -> false
      | Ok g2 -> String.equal text (Serialize.to_string g2))

(* Values the per-send link tables of a DES session trust: each must be a
   typed parse error, on a cluster line and on a link line alike, never
   [Ok] or an escaping [Invalid_argument]. *)
let test_serialize_rejects_bad_values () =
  let text ~intra ~link =
    Printf.sprintf
      "grid 2\ncluster 0 a 2 %s\ncluster 1 b 2 L 1 G 0:1\nlink 0 1 %s\nlink 1 0 L 5 G 0:2\n"
      intra link
  in
  let good = "L 5 G 0:2,1000:3" in
  Alcotest.(check bool) "valid text parses" true
    (Result.is_ok (Serialize.of_string (text ~intra:good ~link:good)));
  List.iter
    (fun (name, bad) ->
      List.iter
        (fun (where, t) ->
          match Serialize.of_string t with
          | Ok _ -> Alcotest.failf "%s on the %s line parsed" name where
          | Error _ -> ()
          | exception e ->
              Alcotest.failf "%s on the %s line raised %s" name where (Printexc.to_string e))
        [ ("cluster", text ~intra:bad ~link:good); ("link", text ~intra:good ~link:bad) ])
    [
      ("NaN latency", "L nan G 0:1");
      ("infinite latency", "L inf G 0:1");
      ("NaN gap", "L 1 G 0:nan");
      ("negative latency", "L -5 G 0:1");
      ("negative size", "L 1 G -1:1,0:2");
    ]

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Result.is_error (Serialize.of_string ""));
  Alcotest.(check bool) "bad header" true
    (Result.is_error (Serialize.of_string "grid x\n"));
  Alcotest.(check bool) "missing link" true
    (Result.is_error
       (Serialize.of_string
          "grid 2\ncluster 0 a 1 L 1 G 0:1\ncluster 1 b 1 L 1 G 0:1\n"));
  Alcotest.(check bool) "comments ok" true
    (Result.is_error (Serialize.of_string "# only a comment\n"))

(* --- Dot ---------------------------------------------------------------- *)

let dot_grid () =
  Generators.homogeneous ~n:3 ~cluster_size:2
    ~inter:(Params.linear ~latency:5000. ~g0:100. ~bandwidth_mb_s:5.)
    ~intra:(Params.linear ~latency:50. ~g0:10. ~bandwidth_mb_s:500.)

let test_dot_golden () =
  let expected =
    String.concat "\n"
      [ "graph grid {";
        "  node [shape=box, fontname=\"sans-serif\"];";
        "  c0 [label=\"homog-0\\n2 machines\"];";
        "  c1 [label=\"homog-1\\n2 machines\"];";
        "  c2 [label=\"homog-2\\n2 machines\"];";
        "  c0 -- c1 [label=\"5 ms\", style=bold, color=red];";
        "  c0 -- c2 [label=\"5 ms\", style=bold, color=red];";
        "  c1 -- c2 [label=\"5 ms\", style=bold, color=red];";
        "}";
        "" ]
  in
  Alcotest.(check string) "exact dot" expected (Gridb_topology.Dot.to_dot (dot_grid ()))

let test_dot_name_and_structure () =
  let g = dot_grid () in
  let named = Gridb_topology.Dot.to_dot ~name:"mygrid" g in
  Alcotest.(check bool) "graph identifier" true
    (String.length named > 14 && String.sub named 0 14 = "graph mygrid {");
  (* one node line per cluster, one edge line per unordered pair *)
  let lines = String.split_on_char '\n' named in
  let count p = List.length (List.filter p lines) in
  let has_sub sub line =
    let ls = String.length sub and ll = String.length line in
    let rec go i = i + ls <= ll && (String.sub line i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check int) "node lines" 3 (count (has_sub "machines"));
  Alcotest.(check int) "edge lines" 3 (count (has_sub " -- "))

let test_dot_save () =
  let path = Filename.temp_file "gridb_dot" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gridb_topology.Dot.save path (dot_grid ());
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "save writes to_dot" (Gridb_topology.Dot.to_dot (dot_grid ())) text)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "topology"
    [
      ("cluster", [ quick "constructor" test_cluster_v ]);
      ( "grid",
        [
          quick "accessors" test_grid_accessors;
          quick "rejects" test_grid_rejects;
          quick "validate symmetric" test_grid_validate_symmetric;
          quick "validate asymmetric" test_grid_validate_asymmetric;
          quick "map links" test_grid_map_links;
          quick "bad ids" test_grid_bad_ids;
        ] );
      ( "levels",
        [ quick "classification" test_levels_classification; quick "order" test_levels_order ]
      );
      ( "grid5000",
        [
          quick "structure" test_grid5000_structure;
          quick "table3 latencies" test_grid5000_latencies_match_table3;
          quick "bandwidth classes" test_grid5000_bandwidth_classes;
        ] );
      ( "generators",
        [
          quick "random within spec" test_random_grid_within_spec;
          quick "random symmetric" test_random_grid_symmetric;
          quick "multilevel structure" test_multilevel_structure;
        ] );
      ( "machines",
        [
          quick "expand" test_machines_expand;
          quick "latency" test_machines_latency;
          quick "matrix symmetric" test_machines_matrix_symmetric;
        ] );
      ( "serialize",
        [
          quick "grid5000 roundtrip" test_serialize_roundtrip;
          QCheck_alcotest.to_alcotest test_serialize_random_roundtrip;
          QCheck_alcotest.to_alcotest test_serialize_print_fixpoint;
          quick "rejects garbage" test_serialize_rejects_garbage;
          quick "rejects bad values" test_serialize_rejects_bad_values;
        ] );
      ( "dot",
        [
          quick "golden" test_dot_golden;
          quick "name and structure" test_dot_name_and_structure;
          quick "save" test_dot_save;
        ] );
    ]
