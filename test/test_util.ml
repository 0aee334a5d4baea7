(* Tests for gridb_util: RNG, statistics, score heap, tables, plots, CSV, units. *)

module Rng = Gridb_util.Rng
module Stats = Gridb_util.Stats
module Units = Gridb_util.Units

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- Rng ------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy preserves state" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_bits64_ahead () =
  let a = Rng.create 2006 in
  ignore (Rng.bits64 a);
  let ahead = List.init 50 (Rng.bits64_ahead a) in
  let drawn = List.init 50 (fun _ -> Rng.bits64 a) in
  Alcotest.(check (list int64)) "k-th output in closed form" drawn ahead;
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Rng.bits64_ahead: negative offset") (fun () ->
      ignore (Rng.bits64_ahead a (-1)))

(* [unit_float_at seed k] is the (k+1)-th draw of [create seed]: k outputs
   skipped, then the one [float r 1.] scales to [0, 1) (exactly, as the
   scale is 1). *)
let test_rng_unit_float_at () =
  let stepped seed k =
    let r = Rng.create seed in
    for _ = 1 to k do ignore (Rng.bits64 r) done;
    Rng.float r 1.
  in
  let g = Rng.create 42 in
  let random = List.init 4 (fun _ -> Int64.to_int (Rng.bits64 g)) in
  List.iter
    (fun seed ->
      List.iter
        (fun k ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "seed %d, draw %d" seed k)
            (stepped seed k) (Rng.unit_float_at seed k))
        [ 0; 1; 1 lsl 20 ])
    ([ 0; -1; min_int; max_int ] @ random);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.unit_float_at: negative index") (fun () ->
      ignore (Rng.unit_float_at 7 (-1)))

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a 0 in
  Alcotest.(check bool) "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_pure () =
  (* Deriving a stream must not advance the base generator: the pool hands
     [split base i] to task [i] on whatever domain claims it, so any hidden
     mutation of [base] would make results depend on claim order. *)
  let a = Rng.create 31 and b = Rng.create 31 in
  for i = 0 to 99 do
    ignore (Rng.split a i)
  done;
  Alcotest.(check int64) "base state untouched" (Rng.bits64 b) (Rng.bits64 a)

let test_rng_split_deterministic () =
  let draw seed i = Rng.bits64 (Rng.split (Rng.create seed) i) in
  for i = 0 to 49 do
    Alcotest.(check int64)
      (Printf.sprintf "stream %d reproducible" i)
      (draw 7 i) (draw 7 i)
  done;
  Alcotest.(check bool) "base state enters the derivation" false
    (draw 7 3 = draw 8 3)

let test_rng_split_collision_free () =
  (* Distinct indices from one base must give distinct streams — the
     repetition fan-out depends on it.  Check the first draw of 4096
     consecutive streams plus a spread of large indices: all distinct. *)
  let base = Rng.create 2006 in
  let seen = Hashtbl.create 8192 in
  let check i =
    let first = Rng.bits64 (Rng.split base i) in
    (match Hashtbl.find_opt seen first with
    | Some j -> Alcotest.failf "streams %d and %d share their first draw" j i
    | None -> ());
    Hashtbl.add seen first i
  in
  for i = 0 to 4095 do
    check i
  done;
  List.iter check [ 10_000; 100_000; 1_000_000; 12_345_678; max_int ]

let test_rng_split_rejects_negative () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split: negative stream index") (fun () ->
      ignore (Rng.split (Rng.create 1) (-1)))

(* --- Pool -------------------------------------------------------------- *)

module Pool = Gridb_util.Pool

(* A task heavy enough to make domains interleave, deterministic per index. *)
let pool_task i =
  let rng = Rng.split (Rng.create 99) i in
  let acc = ref 0L in
  for _ = 1 to 50 do
    acc := Int64.add !acc (Rng.bits64 rng)
  done;
  !acc

let test_pool_map_matches_sequential () =
  let items = Array.init 97 (fun i -> i) in
  let expected = Array.map pool_task items in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int64))
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        expected
        (Pool.map ~jobs pool_task items))
    [ 1; 2; 4; 8 ]

let test_pool_mapi_passes_index () =
  let items = Array.make 23 "x" in
  let got = Pool.mapi ~jobs:4 (fun i s -> Printf.sprintf "%s%d" s i) items in
  Alcotest.(check (array string)) "indices in order"
    (Array.init 23 (Printf.sprintf "x%d"))
    got

let test_pool_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:8 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 6 |]
    (Pool.map ~jobs:8 (fun x -> 2 * x) [| 3 |]);
  Alcotest.(check (list int)) "map_list" [ 2; 4; 6 ]
    (Pool.map_list ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_find_first_matches_scan =
  QCheck.Test.make ~name:"pool find_first = sequential scan"
    ~count:(Testutil.count 200)
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.int_bound 40) bool))
    (fun (jobs, flags) ->
      let items = Array.of_list flags in
      let f _ hit = if hit then Some () else None in
      let expected =
        let rec scan i =
          if i >= Array.length items then None
          else if items.(i) then Some (i, ())
          else scan (i + 1)
        in
        scan 0
      in
      Pool.find_first ~jobs f items = expected)

let test_pool_find_first_early_match () =
  (* Match at index 0 with heavy tails: the parallel scan must still
     return index 0, whatever workers did speculatively. *)
  let items = Array.init 64 (fun i -> i) in
  let f _ v =
    if v = 0 then Some "first"
    else begin
      ignore (pool_task v);
      if v mod 3 = 0 then Some "later" else None
    end
  in
  Alcotest.(check (option (pair int string)))
    "first index wins" (Some (0, "first"))
    (Pool.find_first ~jobs:4 f items)

exception Boom of int

let test_pool_raises_lowest_index () =
  let items = Array.init 40 (fun i -> i) in
  let f v = if v = 31 || v = 17 then raise (Boom v) else pool_task v in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f items with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom v ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d lowest failing index" jobs)
            17 v)
    [ 1; 4 ]

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_rng_int_rejects () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: hi < lo") (fun () ->
      ignore (Rng.int_in rng 2 1))

let test_rng_float_in () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.float_in rng 1.5 2.5 in
    Alcotest.(check bool) "in [1.5,2.5)" true (v >= 1.5 && v < 2.5)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 10000 draws, each bucket within
     3 sigma of the expectation. *)
  let rng = Rng.create 123 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 10. in
  let sigma = sqrt (expected *. 0.9) in
  Array.iteri
    (fun i count ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d within 4 sigma" i count)
        true
        (Float.abs (float_of_int count -. expected) < 4. *. sigma))
    buckets

let test_rng_gaussian_moments () =
  let rng = Rng.create 77 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian ~mu:3. ~sigma:2. rng) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.06);
  Alcotest.(check bool) "sd near 2" true (Float.abs (sd -. 2.) < 0.06)

let test_rng_lognormal_positive () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "lognormal > 0" true (Rng.lognormal ~sigma:0.5 rng > 0.)
  done

let test_rng_exponential () =
  let rng = Rng.create 3 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng 2.) in
  Alcotest.(check bool) "all nonneg" true (Array.for_all (fun x -> x >= 0.) xs);
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (Stats.mean xs -. 0.5) < 0.02);
  Alcotest.check_raises "lambda <= 0"
    (Invalid_argument "Rng.exponential: lambda must be positive") (fun () ->
      ignore (Rng.exponential rng 0.))

let test_rng_shuffle_permutes () =
  let rng = Rng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_permutation () =
  let rng = Rng.create 13 in
  let p = Rng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "bijection" (Array.init 20 (fun i -> i)) sorted

let test_rng_pick () =
  let rng = Rng.create 14 in
  let a = [| 5; 6; 7 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* --- Stats ----------------------------------------------------------- *)

let test_stats_mean () = check_feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_variance () =
  check_feq "variance" (5. /. 3.) (Stats.variance [| 1.; 2.; 3.; 4. |]);
  check_feq "singleton" 0. (Stats.variance [| 42. |])

let test_stats_median () =
  check_feq "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  check_feq "even interpolates" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_feq "p0" 10. (Stats.percentile xs 0.);
  check_feq "p100" 50. (Stats.percentile xs 1.);
  check_feq "p25" 20. (Stats.percentile xs 0.25);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p outside [0,1]") (fun () ->
      ignore (Stats.percentile xs 1.5))

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_summary () =
  let s = Stats.summarize [| 4.; 1.; 3.; 2. |] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  check_feq "min" 1. s.Stats.min;
  check_feq "max" 4. s.Stats.max;
  check_feq "mean" 2.5 s.Stats.mean

let test_stats_online_matches_batch () =
  let rng = Rng.create 55 in
  let xs = Array.init 500 (fun _ -> Rng.float_in rng (-10.) 10.) in
  let online = Stats.Online.create () in
  Array.iter (Stats.Online.add online) xs;
  check_feq ~eps:1e-9 "mean" (Stats.mean xs) (Stats.Online.mean online);
  check_feq ~eps:1e-9 "variance" (Stats.variance xs) (Stats.Online.variance online);
  check_feq "min" (Array.fold_left Float.min infinity xs) (Stats.Online.min online);
  check_feq "max" (Array.fold_left Float.max neg_infinity xs) (Stats.Online.max online)

let test_stats_online_merge () =
  let rng = Rng.create 56 in
  let xs = Array.init 400 (fun _ -> Rng.float_in rng 0. 1.) in
  let a = Stats.Online.create () and b = Stats.Online.create () in
  Array.iteri (fun i x -> Stats.Online.add (if i mod 2 = 0 then a else b) x) xs;
  let merged = Stats.Online.merge a b in
  check_feq "merged mean" (Stats.mean xs) (Stats.Online.mean merged);
  check_feq "merged variance" (Stats.variance xs) (Stats.Online.variance merged);
  Alcotest.(check int) "merged count" 400 (Stats.Online.count merged)

(* --- Score heap ------------------------------------------------------- *)

module Score_heap = Gridb_util.Score_heap

let drain h =
  let rec go acc =
    match Score_heap.pop h with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let test_score_heap_orders () =
  let h = Score_heap.create ~order:Score_heap.Min () in
  List.iter (fun (s, id) -> Score_heap.push h s id) [ (3., 1); (1., 2); (2., 0) ];
  Alcotest.(check (list (pair (float 0.) int)))
    "min drains ascending"
    [ (1., 2); (2., 0); (3., 1) ]
    (drain h);
  let h = Score_heap.create ~order:Score_heap.Max () in
  List.iter (fun (s, id) -> Score_heap.push h s id) [ (3., 1); (1., 2); (2., 0) ];
  Alcotest.(check (list (pair (float 0.) int)))
    "max drains descending"
    [ (3., 1); (2., 0); (1., 2) ]
    (drain h)

let test_score_heap_ties_to_smaller_id () =
  (* Both orders break score ties towards the smaller id — the engine
     depends on this to reproduce the naive scan's ascending-i choice. *)
  List.iter
    (fun order ->
      let h = Score_heap.create ~order () in
      List.iter (fun id -> Score_heap.push h 5. id) [ 9; 3; 7; 1; 8 ];
      Alcotest.(check (list int)) "tied ids ascend" [ 1; 3; 7; 8; 9 ]
        (List.map snd (drain h)))
    [ Score_heap.Min; Score_heap.Max ]

let test_score_heap_top_and_drop () =
  let h = Score_heap.create ~capacity:2 ~order:Score_heap.Min () in
  Alcotest.(check bool) "starts empty" true (Score_heap.is_empty h);
  for id = 0 to 9 do
    Score_heap.push h (float_of_int (10 - id)) id
  done;
  Alcotest.(check int) "grows past capacity" 10 (Score_heap.length h);
  Alcotest.(check (float 0.)) "top score" 1. (Score_heap.top_score h);
  Alcotest.(check int) "top id" 9 (Score_heap.top_id h);
  Score_heap.drop_top h;
  Alcotest.(check int) "next top id" 8 (Score_heap.top_id h);
  Score_heap.clear h;
  Alcotest.(check bool) "cleared" true (Score_heap.is_empty h)

let test_score_heap_invariant_random =
  QCheck.Test.make ~name:"score heap invariant after random ops" ~count:(Testutil.count 200)
    QCheck.(list (pair (int_bound 100) (int_bound 50)))
    (fun ops ->
      let h = Score_heap.create ~order:Score_heap.Min () in
      List.iteri
        (fun i (s, id) ->
          if i mod 3 = 2 then ignore (Score_heap.pop h)
          else Score_heap.push h (float_of_int s) id)
        ops;
      Score_heap.check_invariant h)

(* --- Score_heap.Bank --------------------------------------------------- *)

(* The engine reads second_score straight out of a Bank row's slots, so a
   row must hold the bit-identical slot layout a standalone heap would —
   not merely the same multiset.  Replay random push/drop sequences into
   both and compare every observation after every operation. *)
let test_bank_matches_standalone =
  QCheck.Test.make ~name:"bank row = standalone score heap"
    ~count:(Testutil.count 200)
    QCheck.(
      pair (oneofl [ Score_heap.Min; Score_heap.Max ])
        (list_of_size (Gen.int_bound 60) (pair (int_bound 40) (int_bound 20))))
    (fun (order, ops) ->
      let bank = Score_heap.Bank.create ~rows:3 ~cap:64 ~order in
      let row = 1 in
      let h = Score_heap.create ~order () in
      let same () =
        let n = Score_heap.length h in
        Score_heap.Bank.size bank row = n
        && Score_heap.Bank.check_invariant bank row
        && (n = 0
           || Score_heap.Bank.top_score bank row = Score_heap.top_score h
              && Score_heap.Bank.top_id bank row = Score_heap.top_id h
              && Score_heap.Bank.second_score bank row = Score_heap.second_score h)
      in
      List.for_all
        (fun (s, id) ->
          if s mod 3 = 2 && Score_heap.length h > 0 then begin
            Score_heap.drop_top h;
            Score_heap.Bank.drop_top bank row
          end
          else begin
            Score_heap.push h (float_of_int s) id;
            Score_heap.Bank.push bank row (float_of_int s) id
          end;
          same ())
        ops)

let test_bank_rows_independent () =
  let bank = Score_heap.Bank.create ~rows:3 ~cap:4 ~order:Score_heap.Min in
  Score_heap.Bank.push bank 0 5. 1;
  Score_heap.Bank.push bank 2 3. 9;
  Score_heap.Bank.push bank 2 1. 4;
  Alcotest.(check int) "row 0 size" 1 (Score_heap.Bank.size bank 0);
  Alcotest.(check bool) "row 1 empty" true (Score_heap.Bank.is_empty bank 1);
  Alcotest.(check int) "row 2 top id" 4 (Score_heap.Bank.top_id bank 2);
  Score_heap.Bank.reset bank 2;
  Alcotest.(check bool) "row 2 reset" true (Score_heap.Bank.is_empty bank 2);
  Alcotest.(check int) "row 0 survives reset of row 2" 1
    (Score_heap.Bank.size bank 0)

let test_bank_bounds () =
  let bank = Score_heap.Bank.create ~rows:2 ~cap:2 ~order:Score_heap.Min in
  Score_heap.Bank.push bank 0 1. 0;
  Score_heap.Bank.push bank 0 2. 1;
  Alcotest.check_raises "row full"
    (Invalid_argument "Score_heap.Bank.push: row full") (fun () ->
      Score_heap.Bank.push bank 0 3. 2);
  Alcotest.check_raises "bad cap" (Invalid_argument "Score_heap.Bank.create: cap < 1")
    (fun () -> ignore (Score_heap.Bank.create ~rows:1 ~cap:0 ~order:Score_heap.Min));
  Alcotest.check_raises "bad row" (Invalid_argument "Score_heap.Bank.push: bad row")
    (fun () -> Score_heap.Bank.push bank 2 1. 0)

(* --- Units ------------------------------------------------------------ *)

let test_units_conversions () =
  check_feq "ms" 1_000. (Units.ms 1.);
  check_feq "s" 1_000_000. (Units.seconds 1.);
  check_feq "roundtrip" 2.5 (Units.to_seconds (Units.seconds 2.5));
  Alcotest.(check int) "mb" 4_000_000 (Units.mb 4);
  Alcotest.(check int) "kib" 2048 (Units.kib 2)

let test_units_pp () =
  Alcotest.(check string) "seconds" "2.5 s" (Units.time_to_string 2_500_000.);
  Alcotest.(check string) "ms" "340 ms" (Units.time_to_string 340_000.);
  Alcotest.(check string) "us" "47.6 us" (Units.time_to_string 47.56);
  Alcotest.(check string) "MB" "4 MB" (Units.bytes_to_string 4_000_000);
  Alcotest.(check string) "B" "37 B" (Units.bytes_to_string 37)

(* --- Text table / plot / CSV ------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_renders () =
  let t = Gridb_util.Text_table.create [ "name"; "value" ] in
  Gridb_util.Text_table.add_row t [ "alpha"; "1" ];
  Gridb_util.Text_table.add_float_row t "beta" [ 2.5 ];
  let s = Gridb_util.Text_table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check bool) "mentions alpha" true (contains s "alpha")

and test_table_rejects_bad_row () =
  let t = Gridb_util.Text_table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad width" (Invalid_argument "Text_table.add_row: row width mismatch")
    (fun () -> Gridb_util.Text_table.add_row t [ "only-one" ])

let test_plot_renders () =
  let s =
    Gridb_util.Ascii_plot.plot ~title:"t"
      [ { Gridb_util.Ascii_plot.label = "x"; points = [ (0., 0.); (1., 1.) ] } ]
  in
  Alcotest.(check bool) "non-empty" true (String.length s > 100);
  let empty = Gridb_util.Ascii_plot.plot ~title:"none" [] in
  Alcotest.(check bool) "no data marker" true (contains empty "no data")

let test_plot_golden () =
  (* Exact frame: two series sharing two points ('*' marks the overlap),
     auto-scaled y axis, legend glyph assignment in series order.  Body
     rows are padded to the full frame width, hence the trailing spaces. *)
  let rendered =
    Gridb_util.Ascii_plot.plot ~width:30 ~height:8 ~x_label:"x" ~y_label:"y" ~title:"t"
      [ { Gridb_util.Ascii_plot.label = "lin"; points = [ (0., 0.); (1., 1.); (2., 2.) ] };
        { Gridb_util.Ascii_plot.label = "sq"; points = [ (0., 0.); (1., 1.); (2., 4.) ] } ]
  in
  let expected =
    String.concat "\n"
      [ "t";
        "y";
        "       4 |                             b";
        "         |                              ";
        "         |                              ";
        "         |                             a";
        "   1.714 |                              ";
        "         |               *              ";
        "         |                              ";
        "       0 |*                             ";
        "         +------------------------------";
        "          0                            2";
        "          x";
        "legend: a=lin b=sq";
        "" ]
  in
  Alcotest.(check string) "exact plot" expected rendered

let test_testutil_count () =
  (* QCHECK_COUNT is a multiplier (>= 1); recompute it here so the test
     also holds when CI scales the suite up. *)
  let m =
    match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
    | Some m when m >= 1 -> m
    | _ -> 1
  in
  Alcotest.(check int) "scales linearly" (40 * m) (Testutil.count 40);
  Alcotest.(check int) "clamped to 1" 1 (Testutil.count 0)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Gridb_util.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Gridb_util.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Gridb_util.Csv.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d"
    (Gridb_util.Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_parse () =
  let rows = Alcotest.(check (list (list string))) in
  rows "empty" [] (Gridb_util.Csv.parse "");
  rows "plain" [ [ "a"; "b" ]; [ "c"; "d" ] ] (Gridb_util.Csv.parse "a,b\nc,d\n");
  rows "crlf" [ [ "a"; "b" ]; [ "c" ] ] (Gridb_util.Csv.parse "a,b\r\nc");
  rows "quoted comma, newline, doubled quote"
    [ [ "a,b"; "c\nd"; "e\"f" ] ]
    (Gridb_util.Csv.parse "\"a,b\",\"c\nd\",\"e\"\"f\"");
  rows "trailing empty field" [ [ "a"; "" ] ] (Gridb_util.Csv.parse "a,")

let csv_field_gen =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_bound 12) (oneofl [ 'a'; 'b'; ','; '\"'; '\n'; '\r'; ' '; 'z' ])))

let test_csv_roundtrip =
  (* parse . row_to_string = singleton, on fields stuffed with commas,
     quotes and newlines.  The one exception is [ "" ]: a lone empty field
     serialises to the empty string, which parses as zero records. *)
  QCheck.Test.make ~name:"csv escape/parse round trip" ~count:(Testutil.count 500)
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) csv_field_gen))
    (fun row ->
      QCheck.assume (row <> [ "" ]);
      Gridb_util.Csv.parse (Gridb_util.Csv.row_to_string row) = [ row ])

let test_csv_write_read () =
  let path = Filename.temp_file "gridb" ".csv" in
  Gridb_util.Csv.write path [ [ "h1"; "h2" ]; [ "1"; "2" ] ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header line" "h1,h2" line

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "rng",
        [
          quick "determinism" test_rng_determinism;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "copy" test_rng_copy;
          quick "bits64_ahead" test_rng_bits64_ahead;
          quick "unit_float_at" test_rng_unit_float_at;
          quick "split" test_rng_split_independent;
          quick "split pure" test_rng_split_pure;
          quick "split deterministic" test_rng_split_deterministic;
          quick "split collision-free" test_rng_split_collision_free;
          quick "split rejects negative" test_rng_split_rejects_negative;
          quick "int bounds" test_rng_int_bounds;
          quick "int_in bounds" test_rng_int_in_bounds;
          quick "int rejects" test_rng_int_rejects;
          quick "float_in" test_rng_float_in;
          quick "uniformity" test_rng_uniformity;
          quick "gaussian moments" test_rng_gaussian_moments;
          quick "lognormal positive" test_rng_lognormal_positive;
          quick "exponential" test_rng_exponential;
          quick "shuffle permutes" test_rng_shuffle_permutes;
          quick "permutation" test_rng_permutation;
          quick "pick" test_rng_pick;
        ] );
      ( "stats",
        [
          quick "mean" test_stats_mean;
          quick "variance" test_stats_variance;
          quick "median" test_stats_median;
          quick "percentile" test_stats_percentile;
          quick "empty input" test_stats_empty;
          quick "summary" test_stats_summary;
          quick "online matches batch" test_stats_online_matches_batch;
          quick "online merge" test_stats_online_merge;
        ] );
      ( "pool",
        [
          quick "map matches sequential" test_pool_map_matches_sequential;
          quick "mapi passes index" test_pool_mapi_passes_index;
          quick "empty/singleton/list" test_pool_empty_and_singleton;
          QCheck_alcotest.to_alcotest test_pool_find_first_matches_scan;
          quick "find_first early match" test_pool_find_first_early_match;
          quick "raises lowest index" test_pool_raises_lowest_index;
        ] );
      ( "score-heap",
        [
          quick "orders" test_score_heap_orders;
          quick "ties to smaller id" test_score_heap_ties_to_smaller_id;
          quick "top/drop/grow" test_score_heap_top_and_drop;
          QCheck_alcotest.to_alcotest test_score_heap_invariant_random;
          QCheck_alcotest.to_alcotest test_bank_matches_standalone;
          quick "bank rows independent" test_bank_rows_independent;
          quick "bank bounds" test_bank_bounds;
        ] );
      ( "units",
        [ quick "conversions" test_units_conversions; quick "pretty" test_units_pp ] );
      ( "render",
        [
          quick "table renders" test_table_renders;
          quick "table rejects bad row" test_table_rejects_bad_row;
          quick "plot renders" test_plot_renders;
          quick "plot golden" test_plot_golden;
          quick "testutil count" test_testutil_count;
          quick "csv escape" test_csv_escape;
          quick "csv parse" test_csv_parse;
          QCheck_alcotest.to_alcotest test_csv_roundtrip;
          quick "csv write" test_csv_write_read;
        ] );
    ]
