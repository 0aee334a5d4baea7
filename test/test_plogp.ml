(* Tests for gridb_plogp: piecewise functions, parameter sets, fitting. *)

module Piecewise = Gridb_plogp.Piecewise
module Params = Gridb_plogp.Params
module Fitting = Gridb_plogp.Fitting

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- Piecewise --------------------------------------------------------- *)

let test_pw_exact_at_samples () =
  let f = Piecewise.of_points [ (0, 10.); (100, 20.); (1000, 110.) ] in
  check_feq "at 0" 10. (Piecewise.eval f 0);
  check_feq "at 100" 20. (Piecewise.eval f 100);
  check_feq "at 1000" 110. (Piecewise.eval f 1000)

let test_pw_interpolates () =
  let f = Piecewise.of_points [ (0, 0.); (100, 100.) ] in
  check_feq "midpoint" 50. (Piecewise.eval f 50);
  check_feq "quarter" 25. (Piecewise.eval f 25)

let test_pw_extrapolates_last_slope () =
  let f = Piecewise.of_points [ (0, 0.); (100, 100.) ] in
  check_feq "beyond" 250. (Piecewise.eval f 250)

let test_pw_constant_below_first () =
  let f = Piecewise.of_points [ (100, 7.); (200, 9.) ] in
  check_feq "below" 7. (Piecewise.eval f 10)

let test_pw_single_point_constant () =
  let f = Piecewise.of_points [ (64, 5.) ] in
  check_feq "anywhere" 5. (Piecewise.eval f 0);
  check_feq "anywhere2" 5. (Piecewise.eval f 1_000_000)

let test_pw_duplicate_keeps_last () =
  let f = Piecewise.of_points [ (10, 1.); (10, 2.) ] in
  check_feq "last wins" 2. (Piecewise.eval f 10)

let test_pw_unsorted_input () =
  let f = Piecewise.of_points [ (100, 20.); (0, 10.) ] in
  check_feq "sorted internally" 15. (Piecewise.eval f 50)

let test_pw_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Piecewise.of_points: empty list")
    (fun () -> ignore (Piecewise.of_points []));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Piecewise.of_points: negative size") (fun () ->
      ignore (Piecewise.of_points [ (-1, 0.) ]));
  let f = Piecewise.of_points [ (0, 0.) ] in
  Alcotest.check_raises "negative eval" (Invalid_argument "Piecewise.eval: negative size")
    (fun () -> ignore (Piecewise.eval f (-5)))

let test_pw_linear_matches_closed_form () =
  let f = Piecewise.linear ~intercept:3. ~slope:0.5 in
  List.iter
    (fun m -> check_feq (Printf.sprintf "linear at %d" m) (3. +. (0.5 *. float_of_int m)) (Piecewise.eval f m))
    [ 0; 1; 1000; 123_456; 10_000_000 ]

let test_pw_add_scale_map () =
  let f = Piecewise.of_points [ (0, 1.); (10, 2.) ] in
  let g = Piecewise.of_points [ (5, 10.) ] in
  check_feq "add" (1.5 +. 10.) (Piecewise.eval (Piecewise.add f g) 5);
  check_feq "scale" 4. (Piecewise.eval (Piecewise.scale 2. f) 10);
  check_feq "map" 3. (Piecewise.eval (Piecewise.map (fun v -> v +. 1.) f) 10)

let test_pw_monotonic () =
  Alcotest.(check bool) "increasing" true
    (Piecewise.is_monotonic (Piecewise.of_points [ (0, 1.); (10, 2.) ]));
  Alcotest.(check bool) "decreasing" false
    (Piecewise.is_monotonic (Piecewise.of_points [ (0, 2.); (10, 1.) ]))

let test_pw_interpolation_bounds =
  QCheck.Test.make ~name:"interpolation stays within segment bounds" ~count:(Testutil.count 300)
    QCheck.(pair (int_bound 500) (int_bound 500))
    (fun (a, b) ->
      let lo = min a b and hi = max a b + 1 in
      let f = Piecewise.of_points [ (lo, 1.); (hi, 3.) ] in
      let mid = lo + ((hi - lo) / 2) in
      let v = Piecewise.eval f mid in
      v >= 1. -. 1e-9 && v <= 3. +. 1e-9)

(* Linear-scan reference for [Piecewise.eval], written from its contract
   with the same float expressions, so the two agree bit for bit. *)
let reference_eval pts m =
  let sizes = Array.of_list (List.map fst pts) and values = Array.of_list (List.map snd pts) in
  let n = Array.length sizes in
  let segment i =
    let s0 = sizes.(i) and s1 = sizes.(i + 1) in
    let v0 = values.(i) and v1 = values.(i + 1) in
    (s0, s1, v0, v1)
  in
  if n = 1 || m <= sizes.(0) then values.(0)
  else if m >= sizes.(n - 1) then begin
    let s0, s1, v0, v1 = segment (n - 2) in
    v1 +. ((v1 -. v0) /. float_of_int (s1 - s0) *. float_of_int (m - s1))
  end
  else begin
    let i = ref 0 in
    while sizes.(!i + 1) <= m do
      incr i
    done;
    let s0, s1, v0, v1 = segment !i in
    v0 +. (float_of_int (m - s0) /. float_of_int (s1 - s0) *. (v1 -. v0))
  end

let test_pw_eval_matches_scan =
  let table =
    QCheck.Gen.(list_size (int_range 1 8) (pair (int_bound 100_000) (float_bound_inclusive 1e6)))
  in
  let gen = QCheck.Gen.(pair table (int_bound 300_000)) in
  let print (pts, m) =
    Printf.sprintf "%s at %d"
      (String.concat "; " (List.map (fun (s, v) -> Printf.sprintf "%d->%h" s v) pts))
      m
  in
  QCheck.Test.make ~name:"eval = linear-scan reference, bit for bit" ~count:(Testutil.count 500)
    (QCheck.make ~print gen)
    (fun (pts, m) ->
      let f = Piecewise.of_points pts in
      let pts = Piecewise.points f in
      let sizes = List.map fst pts in
      let first = List.hd sizes and last = List.nth sizes (List.length sizes - 1) in
      (* the drawn size, every sample, and sizes past both ends *)
      List.for_all
        (fun m -> Float.equal (Piecewise.eval f m) (reference_eval pts m))
        ([ m; max 0 (first - 1); last + 1; last + m ] @ sizes))

(* --- Params ------------------------------------------------------------ *)

let test_params_linear () =
  (* 10 MB/s = 10 bytes/us. *)
  let p = Params.linear ~latency:100. ~g0:5. ~bandwidth_mb_s:10. in
  check_feq "latency" 100. (Params.latency p);
  check_feq "gap 0" 5. (Params.gap p 0);
  check_feq "gap 1MB" (5. +. 100_000.) (Params.gap p 1_000_000);
  check_feq "send = g + L" (Params.gap p 4096 +. 100.) (Params.send_time p 4096);
  check_feq "sender busy" (Params.gap p 4096) (Params.sender_busy p 4096)

let test_params_overheads_default () =
  let p = Params.linear ~latency:10. ~g0:100. ~bandwidth_mb_s:1. in
  check_feq "os fraction" (Params.overhead_fraction *. Params.gap p 1000)
    (Params.send_overhead p 1000);
  check_feq "or fraction" (Params.overhead_fraction *. Params.gap p 1000)
    (Params.recv_overhead p 1000)

let test_params_rtt () =
  let p = Params.linear ~latency:50. ~g0:10. ~bandwidth_mb_s:100. in
  check_feq "rtt" ((2. *. 50.) +. Params.gap p 256 +. Params.gap p 0) (Params.rtt p 256)

let test_params_scale_noise () =
  let p = Params.linear ~latency:50. ~g0:10. ~bandwidth_mb_s:100. in
  let q = Params.scale_noise ~factor:2. p in
  check_feq "latency doubled" 100. (Params.latency q);
  check_feq "gap doubled" (2. *. Params.gap p 777) (Params.gap q 777);
  Alcotest.check_raises "factor <= 0"
    (Invalid_argument "Params.scale_noise: non-positive factor") (fun () ->
      ignore (Params.scale_noise ~factor:0. p))

let test_params_rejects () =
  Alcotest.check_raises "negative latency" (Invalid_argument "Params.v: negative latency")
    (fun () ->
      ignore (Params.v ~latency:(-1.) ~gap:(Piecewise.of_points [ (0, 1.) ]) ()));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Params.linear: non-positive bandwidth") (fun () ->
      ignore (Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:0.));
  let gap = Piecewise.of_points [ (0, 1.) ] in
  Alcotest.check_raises "NaN latency" (Invalid_argument "Params.v: non-finite latency")
    (fun () -> ignore (Params.v ~latency:nan ~gap ()));
  Alcotest.check_raises "infinite latency" (Invalid_argument "Params.v: non-finite latency")
    (fun () -> ignore (Params.v ~latency:infinity ~gap ()));
  Alcotest.check_raises "NaN gap value" (Invalid_argument "Piecewise.of_points: non-finite value")
    (fun () -> ignore (Piecewise.of_points [ (0, nan) ]));
  Alcotest.check_raises "negative gap value" (Invalid_argument "Piecewise.of_points: negative value")
    (fun () -> ignore (Piecewise.of_points [ (0, -1.) ]));
  Alcotest.check_raises "scaled table"
    (Invalid_argument "Params.v: gap table value not finite and non-negative") (fun () ->
      ignore (Params.v ~latency:1. ~gap:(Piecewise.scale nan gap) ()));
  Alcotest.check_raises "infinite g0" (Invalid_argument "Params.linear: non-finite g0")
    (fun () -> ignore (Params.linear ~latency:1. ~g0:infinity ~bandwidth_mb_s:1.));
  Alcotest.check_raises "NaN bandwidth" (Invalid_argument "Params.linear: non-finite bandwidth")
    (fun () -> ignore (Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:nan));
  let p = Params.v ~latency:1. ~gap () in
  Alcotest.check_raises "NaN noise factor"
    (Invalid_argument "Params.scale_noise: non-finite factor") (fun () ->
      ignore (Params.scale_noise ~factor:nan p));
  Alcotest.check_raises "infinite rescale" (Invalid_argument "Params.rescale: non-finite factor")
    (fun () -> ignore (Params.rescale ~gap_factor:infinity p))

let test_params_equal () =
  let p = Params.linear ~latency:1. ~g0:2. ~bandwidth_mb_s:3. in
  let q = Params.linear ~latency:1. ~g0:2. ~bandwidth_mb_s:3. in
  Alcotest.(check bool) "equal" true (Params.equal p q);
  let r = Params.linear ~latency:1.5 ~g0:2. ~bandwidth_mb_s:3. in
  Alcotest.(check bool) "different" false (Params.equal p r)

let test_gap_monotonic_in_size =
  QCheck.Test.make ~name:"linear gap is monotone in message size" ~count:(Testutil.count 200)
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let p = Params.linear ~latency:10. ~g0:50. ~bandwidth_mb_s:4. in
      let lo = min a b and hi = max a b in
      Params.gap p lo <= Params.gap p hi +. 1e-9)

(* --- Fitting ------------------------------------------------------------ *)

let test_fit_linear_exact () =
  let samples =
    List.map
      (fun size -> { Fitting.size; time = 7. +. (0.25 *. float_of_int size) })
      [ 0; 100; 500; 1000; 5000 ]
  in
  let fit = Fitting.fit_linear samples in
  check_feq ~eps:1e-6 "intercept" 7. fit.Fitting.intercept;
  check_feq ~eps:1e-6 "slope" 0.25 fit.Fitting.slope;
  Alcotest.(check bool) "rmse ~ 0" true (fit.Fitting.rmse < 1e-6)

let test_fit_linear_single_size () =
  let samples = [ { Fitting.size = 100; time = 3. }; { Fitting.size = 100; time = 5. } ] in
  let fit = Fitting.fit_linear samples in
  check_feq "slope 0" 0. fit.Fitting.slope;
  check_feq "intercept mean" 4. fit.Fitting.intercept

let test_fit_table_min_reduction () =
  let samples =
    [
      { Fitting.size = 10; time = 5. };
      { Fitting.size = 10; time = 4. };
      { Fitting.size = 20; time = 9. };
    ]
  in
  let table = Fitting.fit_table samples in
  check_feq "min kept" 4. (Piecewise.eval table 10);
  check_feq "other size" 9. (Piecewise.eval table 20);
  let mean_table = Fitting.fit_table ~per_size_reduce:`Mean samples in
  check_feq "mean kept" 4.5 (Piecewise.eval mean_table 10)

let test_measurement_recovers_exactly_without_noise () =
  let truth = Params.linear ~latency:5_000. ~g0:100. ~bandwidth_mb_s:2. in
  let config = { Fitting.Measurement.default_config with noise_sigma = 0. } in
  let recovered = Fitting.Measurement.run config truth in
  List.iter
    (fun m ->
      check_feq ~eps:1e-6
        (Printf.sprintf "gap at %d" m)
        (Params.gap truth m) (Params.gap recovered m))
    [ 1; 1024; 65_536; 1_000_000 ];
  check_feq ~eps:1e-6 "latency" (Params.latency truth) (Params.latency recovered)

let test_measurement_recovers_with_noise () =
  let truth = Params.linear ~latency:5_000. ~g0:100. ~bandwidth_mb_s:2. in
  let config = { Fitting.Measurement.default_config with noise_sigma = 0.05 } in
  let recovered = Fitting.Measurement.run ~seed:9 config truth in
  List.iter
    (fun m ->
      let t = Params.gap truth m and r = Params.gap recovered m in
      Alcotest.(check bool)
        (Printf.sprintf "gap at %d within 15%%" m)
        true
        (Float.abs (r -. t) /. t < 0.15))
    [ 1024; 65_536; 1_000_000 ];
  let lt = Params.latency truth and lr = Params.latency recovered in
  Alcotest.(check bool) "latency within 15%" true (Float.abs (lr -. lt) /. lt < 0.15)

let test_fitting_rejects_empty () =
  Alcotest.check_raises "empty linear" (Invalid_argument "Fitting.fit_linear: empty input")
    (fun () -> ignore (Fitting.fit_linear []));
  Alcotest.check_raises "empty table" (Invalid_argument "Fitting.fit_table: empty input")
    (fun () -> ignore (Fitting.fit_table []))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "plogp"
    [
      ( "piecewise",
        [
          quick "exact at samples" test_pw_exact_at_samples;
          quick "interpolates" test_pw_interpolates;
          quick "extrapolates" test_pw_extrapolates_last_slope;
          quick "constant below first" test_pw_constant_below_first;
          quick "single point" test_pw_single_point_constant;
          quick "duplicate keeps last" test_pw_duplicate_keeps_last;
          quick "unsorted input" test_pw_unsorted_input;
          quick "rejects" test_pw_rejects;
          quick "linear closed form" test_pw_linear_matches_closed_form;
          quick "add/scale/map" test_pw_add_scale_map;
          quick "monotonic check" test_pw_monotonic;
          QCheck_alcotest.to_alcotest test_pw_interpolation_bounds;
          QCheck_alcotest.to_alcotest test_pw_eval_matches_scan;
        ] );
      ( "params",
        [
          quick "linear" test_params_linear;
          quick "default overheads" test_params_overheads_default;
          quick "rtt" test_params_rtt;
          quick "scale noise" test_params_scale_noise;
          quick "rejects" test_params_rejects;
          quick "equality" test_params_equal;
          QCheck_alcotest.to_alcotest test_gap_monotonic_in_size;
        ] );
      ( "fitting",
        [
          quick "exact linear fit" test_fit_linear_exact;
          quick "single size" test_fit_linear_single_size;
          quick "table min reduction" test_fit_table_min_reduction;
          quick "noiseless recovery" test_measurement_recovers_exactly_without_noise;
          quick "noisy recovery" test_measurement_recovers_with_noise;
          quick "rejects empty" test_fitting_rejects_empty;
        ] );
    ]
