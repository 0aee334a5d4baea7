(* Tests for the adaptive transport state: Jacobson/Karn RTT estimation,
   RTO convergence and re-inflation, circuit-breaker transitions, and the
   estimated-parameter export.  The estimator is pure bookkeeping, so every
   test drives it directly with synthetic samples/timeouts. *)

module Adaptive = Gridb_des.Adaptive
module Params = Gridb_plogp.Params

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let check_feq ?eps name expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" name expected actual) true
    (feq ?eps expected actual)

(* --- config validation --------------------------------------------------- *)

let test_config_validation () =
  Alcotest.check_raises "alpha > 1" (Invalid_argument "Adaptive.v: alpha outside (0, 1]")
    (fun () -> ignore (Adaptive.v ~alpha:1.5 ()));
  Alcotest.check_raises "beta = 0" (Invalid_argument "Adaptive.v: beta outside (0, 1]")
    (fun () -> ignore (Adaptive.v ~beta:0. ()));
  Alcotest.check_raises "rto_max < rto_min" (Invalid_argument "Adaptive.v: rto_max < rto_min")
    (fun () -> ignore (Adaptive.v ~rto_min:10. ~rto_max:5. ()));
  Alcotest.check_raises "threshold 0"
    (Invalid_argument "Adaptive.v: breaker_threshold < 1") (fun () ->
      ignore (Adaptive.v ~breaker_threshold:0 ()));
  Alcotest.check_raises "blowup 1" (Invalid_argument "Adaptive.v: blowup_factor <= 1")
    (fun () -> ignore (Adaptive.v ~blowup_factor:1. ()));
  Alcotest.check_raises "negative reroutes"
    (Invalid_argument "Adaptive.v: negative max_reroutes") (fun () ->
      ignore (Adaptive.v ~max_reroutes:(-1) ()));
  Alcotest.check_raises "create re-validates" (Invalid_argument "Adaptive.v: rto_max < rto_min")
    (fun () ->
      let bad = { Adaptive.default with Adaptive.rto_max = 0.5 } in
      ignore (Adaptive.create ~config:bad ~n:2 ()));
  Alcotest.check_raises "n < 1" (Invalid_argument "Adaptive.create: n < 1") (fun () ->
      ignore (Adaptive.create ~n:0 ()))

(* --- estimator seeding and fallback -------------------------------------- *)

let test_first_sample_seeds_rfc6298 () =
  let t = Adaptive.create ~n:4 () in
  check_feq ~eps:0. "fallback before any sample" 500.
    (Adaptive.rto t ~src:0 ~dst:1 ~nominal:250. ~fallback:500.);
  Alcotest.(check (option (float 0.))) "no srtt yet" None (Adaptive.srtt t ~src:0 ~dst:1);
  (match Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false ~now:100. with
  | `No_change -> ()
  | _ -> Alcotest.fail "closed circuit must stay closed");
  check_feq ~eps:0. "SRTT = R" 100. (Option.get (Adaptive.srtt t ~src:0 ~dst:1));
  check_feq ~eps:0. "RTTVAR = R/2" 50. (Option.get (Adaptive.rttvar t ~src:0 ~dst:1));
  (* RTO = SRTT + 4 RTTVAR = 300, fallback no longer consulted. *)
  check_feq ~eps:0. "RTO from estimator" 300.
    (Adaptive.rto t ~src:0 ~dst:1 ~nominal:250. ~fallback:500.);
  Alcotest.(check int) "one sample" 1 (Adaptive.samples t ~src:0 ~dst:1);
  (* Other links are untouched. *)
  Alcotest.(check int) "links independent" 0 (Adaptive.samples t ~src:1 ~dst:0)

let test_rto_clamped () =
  let t = Adaptive.create ~config:(Adaptive.v ~rto_min:10. ~rto_max:250. ()) ~n:2 () in
  check_feq ~eps:0. "fallback floored" 10.
    (Adaptive.rto t ~src:0 ~dst:1 ~nominal:1. ~fallback:1.);
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false ~now:0.);
  (* SRTT + 4 RTTVAR = 300 > cap. *)
  check_feq ~eps:0. "estimator capped" 250.
    (Adaptive.rto t ~src:0 ~dst:1 ~nominal:1. ~fallback:1.)

(* --- Karn's rule ---------------------------------------------------------- *)

let test_karn_exclusion () =
  let t = Adaptive.create ~n:2 () in
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false ~now:0.);
  (* An ambiguous (retransmitted-edge) sample must not move the estimator,
     however extreme. *)
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:1e7 ~retransmitted:true ~now:1.);
  check_feq ~eps:0. "SRTT unmoved" 100. (Option.get (Adaptive.srtt t ~src:0 ~dst:1));
  check_feq ~eps:0. "RTTVAR unmoved" 50. (Option.get (Adaptive.rttvar t ~src:0 ~dst:1));
  Alcotest.(check int) "sample not counted" 1 (Adaptive.samples t ~src:0 ~dst:1)

(* Property: the estimator state after any mixed sample sequence equals the
   state after the subsequence of clean samples — retransmitted ones are
   invisible to SRTT/RTTVAR/samples (they only touch the breaker). *)
let karn_exclusion_property =
  let sample = QCheck.(pair (float_range 1. 1e6) bool) in
  QCheck.Test.make ~name:"Karn: retransmitted samples never enter the estimator" ~count:(Testutil.count 200)
    QCheck.(list_of_size Gen.(int_range 0 40) sample)
    (fun samples ->
      let full = Adaptive.create ~n:2 () in
      let clean = Adaptive.create ~n:2 () in
      List.iteri
        (fun i (rtt, retransmitted) ->
          let now = float_of_int i in
          ignore (Adaptive.on_sample full ~src:0 ~dst:1 ~rtt ~retransmitted ~now);
          if not retransmitted then
            ignore (Adaptive.on_sample clean ~src:0 ~dst:1 ~rtt ~retransmitted:false ~now))
        samples;
      Adaptive.srtt full ~src:0 ~dst:1 = Adaptive.srtt clean ~src:0 ~dst:1
      && Adaptive.rttvar full ~src:0 ~dst:1 = Adaptive.rttvar clean ~src:0 ~dst:1
      && Adaptive.samples full ~src:0 ~dst:1 = Adaptive.samples clean ~src:0 ~dst:1)

(* --- RTO convergence and re-inflation ------------------------------------- *)

(* Property: on a stable link (constant round trip R) the RTO contracts to
   R: RTTVAR decays geometrically from R/2, so after 64 samples
   RTO = R + 4 * (R/2) * 0.75^63 is R to within a fraction of a percent. *)
let rto_convergence_property =
  QCheck.Test.make ~name:"RTO converges to R on a stable link" ~count:(Testutil.count 50)
    QCheck.(float_range 10. 1e6)
    (fun r ->
      let t = Adaptive.create ~n:2 () in
      for i = 1 to 64 do
        ignore
          (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:r ~retransmitted:false
             ~now:(float_of_int i))
      done;
      let rto = Adaptive.rto t ~src:0 ~dst:1 ~nominal:r ~fallback:1e9 in
      rto >= r && rto <= 1.01 *. r)

let test_rto_reinflates_on_degradation () =
  let t = Adaptive.create ~n:2 () in
  (* The first call latches the link's nominal round trip. *)
  ignore (Adaptive.rto t ~src:0 ~dst:1 ~nominal:100. ~fallback:100.);
  for i = 1 to 64 do
    ignore
      (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false
         ~now:(float_of_int i))
  done;
  let converged = Adaptive.rto t ~src:0 ~dst:1 ~nominal:100. ~fallback:1e9 in
  Alcotest.(check bool) "converged near 100" true (converged < 101.);
  (* The link degrades 3x: valid samples re-inflate the RTO past the new
     round trip within a handful of observations (RTTVAR spikes first). *)
  for i = 65 to 72 do
    ignore
      (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:300. ~retransmitted:false
         ~now:(float_of_int i))
  done;
  let reinflated = Adaptive.rto t ~src:0 ~dst:1 ~nominal:100. ~fallback:1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "re-inflated %g > 300" reinflated)
    true (reinflated > 300.);
  Alcotest.(check bool) "quality reflects the drift" true
    (Adaptive.quality t ~src:0 ~dst:1 > 1.)

(* Regression: the fallback RTO carries the executor's rto_mult/rto_min on
   top of the raw round trip.  Only the fallback may drive the pre-sample
   RTO; only the un-inflated nominal may drive quality — a healthy link
   (SRTT = raw round trip) must read exactly 1, not 1/rto_mult. *)
let test_nominal_separate_from_fallback () =
  let t = Adaptive.create ~n:2 () in
  check_feq ~eps:0. "pre-sample RTO is the fallback" 200.
    (Adaptive.rto t ~src:0 ~dst:1 ~nominal:100. ~fallback:200.);
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false ~now:0.);
  check_feq ~eps:0. "healthy link has quality 1" 1. (Adaptive.quality t ~src:0 ~dst:1)

(* --- circuit breaker ------------------------------------------------------ *)

let test_breaker_timeout_transitions () =
  let t = Adaptive.create ~n:2 () in
  ignore (Adaptive.rto t ~src:0 ~dst:1 ~nominal:50. ~fallback:100.);
  Alcotest.(check bool) "1st strike stays closed" false
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:10.);
  Alcotest.(check bool) "2nd strike stays closed" false
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:20.);
  Alcotest.(check bool) "3rd strike opens" true
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:30.);
  Alcotest.(check bool) "open circuit" true (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  (* Cooldown = cooldown_mult * fallback RTO (not the raw nominal) = 400
     from t=30. *)
  Alcotest.(check bool) "unusable during cooldown" false
    (Adaptive.usable t ~src:0 ~dst:1 ~now:100.);
  Alcotest.(check bool) "still open" true (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  Alcotest.(check bool) "usable after cooldown (probe)" true
    (Adaptive.usable t ~src:0 ~dst:1 ~now:500.);
  Alcotest.(check bool) "half-open now" true
    (Adaptive.circuit t ~src:0 ~dst:1 = `Half_open);
  (* A failed probe re-opens (restarts the cooldown), without re-reporting
     the open transition. *)
  Alcotest.(check bool) "failed probe is not a fresh open" false
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:600.);
  Alcotest.(check bool) "back to open" true (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  (* A successful probe closes; even an ambiguous (Karn-excluded) success
     counts for the breaker. *)
  Alcotest.(check bool) "usable again" true (Adaptive.usable t ~src:0 ~dst:1 ~now:2000.);
  (match Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:true ~now:2000. with
  | `Closed -> ()
  | _ -> Alcotest.fail "successful probe must close the circuit");
  Alcotest.(check bool) "closed" true (Adaptive.circuit t ~src:0 ~dst:1 = `Closed);
  Alcotest.(check int) "Karn still excluded the probe sample" 0
    (Adaptive.samples t ~src:0 ~dst:1)

let test_breaker_strikes_reset_on_success () =
  let t = Adaptive.create ~n:2 () in
  ignore (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:1.);
  ignore (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:2.);
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:50. ~retransmitted:false ~now:3.);
  (* The success reset the streak: two more timeouts are strikes 1 and 2,
     not 3 and 4. *)
  Alcotest.(check bool) "strike 1 after reset" false
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:4.);
  Alcotest.(check bool) "strike 2 after reset" false
    (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:5.);
  Alcotest.(check bool) "strike 3 opens" true (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:6.)

let test_breaker_blowup_opens () =
  let t = Adaptive.create ~n:2 () in
  ignore (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:100. ~retransmitted:false ~now:0.);
  (* 8x SRTT is the default blow-up threshold; 900 > 800 opens at once. *)
  (match Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:900. ~retransmitted:false ~now:1. with
  | `Opened -> ()
  | _ -> Alcotest.fail "blow-up sample must open the circuit");
  Alcotest.(check bool) "open after blow-up" true (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  (* The blow-up sample itself still entered the estimator (it was not
     ambiguous). *)
  Alcotest.(check int) "two samples" 2 (Adaptive.samples t ~src:0 ~dst:1)

let test_usable_now_is_pure () =
  let t = Adaptive.create ~n:2 () in
  ignore (Adaptive.rto t ~src:0 ~dst:1 ~nominal:50. ~fallback:100.);
  for i = 1 to 3 do
    ignore (Adaptive.on_timeout t ~src:0 ~dst:1 ~now:(float_of_int (10 * i)))
  done;
  Alcotest.(check bool) "open" true (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  Alcotest.(check bool) "unusable during cooldown" false
    (Adaptive.usable_now t ~src:0 ~dst:1 ~now:100.);
  (* Cooldown (400 from t=30) elapsed: the pure read answers true but the
     circuit must stay open — scoring a candidate is not probing it, so
     only [usable] may half-open the breaker. *)
  Alcotest.(check bool) "usable after cooldown" true
    (Adaptive.usable_now t ~src:0 ~dst:1 ~now:500.);
  Alcotest.(check bool) "still open (no transition)" true
    (Adaptive.circuit t ~src:0 ~dst:1 = `Open);
  Alcotest.(check bool) "usable applies it" true (Adaptive.usable t ~src:0 ~dst:1 ~now:500.);
  Alcotest.(check bool) "half-open now" true (Adaptive.circuit t ~src:0 ~dst:1 = `Half_open)

(* --- estimated parameters -------------------------------------------------- *)

let test_estimated_params_rescale () =
  let nominal = Params.linear ~latency:50. ~g0:10. ~bandwidth_mb_s:100. in
  let t = Adaptive.create ~n:2 () in
  (* Nominal round trip 200; observed SRTT settles at 400 -> quality 2.
     The fallback RTO is deliberately inflated (2x nominal, as the
     executor's rto_mult would): it must not leak into the quality
     denominator. *)
  ignore (Adaptive.rto t ~src:0 ~dst:1 ~nominal:200. ~fallback:400.);
  for i = 1 to 64 do
    ignore
      (Adaptive.on_sample t ~src:0 ~dst:1 ~rtt:400. ~retransmitted:false
         ~now:(float_of_int i))
  done;
  check_feq "quality 2" 2. (Adaptive.quality t ~src:0 ~dst:1);
  let est = Adaptive.estimated_params t ~src:0 ~dst:1 nominal in
  check_feq "latency rescaled" (2. *. Params.latency nominal) (Params.latency est);
  check_feq "gap rescaled" (2. *. Params.gap nominal 1_000_000) (Params.gap est 1_000_000);
  (* Links without samples export the nominal view unchanged. *)
  let un = Adaptive.estimated_params t ~src:1 ~dst:0 nominal in
  check_feq ~eps:0. "no samples, no rescale" (Params.latency nominal) (Params.latency un)

(* --- sparse storage vs a dense reference ---------------------------------- *)

(* The estimator's semantics over a dense [n * n] array of links, every
   link materialised up front: the reference the sparse table must answer
   identically to, whichever links an operation sequence touches. *)
module Dense = struct
  type circuit = Closed | Open of float | Half_open

  type link = {
    mutable srtt : float;
    mutable rttvar : float;
    mutable nominal : float;
    mutable fallback_rto : float;
    mutable strikes : int;
    mutable state : circuit;
    mutable samples : int;
  }

  type t = { c : Adaptive.config; n : int; links : link array }

  let create c n =
    {
      c;
      n;
      links =
        Array.init (n * n) (fun _ ->
            {
              srtt = nan;
              rttvar = nan;
              nominal = nan;
              fallback_rto = nan;
              strikes = 0;
              state = Closed;
              samples = 0;
            });
    }

  let link t src dst = t.links.((src * t.n) + dst)
  let clamp t x = Float.min t.c.Adaptive.rto_max (Float.max t.c.Adaptive.rto_min x)
  let raw_rto t l = l.srtt +. (t.c.Adaptive.var_mult *. l.rttvar)

  let rto t src dst ~nominal ~fallback =
    let l = link t src dst in
    if Float.is_nan l.nominal then l.nominal <- nominal;
    if Float.is_nan l.fallback_rto then l.fallback_rto <- fallback;
    if l.samples = 0 then clamp t fallback else clamp t (raw_rto t l)

  let on_sample t src dst ~rtt ~retransmitted ~now =
    let l = link t src dst in
    let c = t.c in
    let blowup =
      (not retransmitted) && l.samples > 0 && rtt > c.Adaptive.blowup_factor *. l.srtt
    in
    if not retransmitted then begin
      if l.samples = 0 then begin
        l.srtt <- rtt;
        l.rttvar <- rtt /. 2.
      end
      else begin
        l.rttvar <-
          ((1. -. c.Adaptive.beta) *. l.rttvar)
          +. (c.Adaptive.beta *. Float.abs (l.srtt -. rtt));
        l.srtt <- ((1. -. c.Adaptive.alpha) *. l.srtt) +. (c.Adaptive.alpha *. rtt)
      end;
      l.samples <- l.samples + 1
    end;
    l.strikes <- 0;
    let was = l.state in
    if blowup then begin
      l.state <- Open (now +. (c.Adaptive.cooldown_mult *. clamp t (raw_rto t l)));
      match was with Open _ -> `No_change | Closed | Half_open -> `Opened
    end
    else
      match was with
      | Closed -> `No_change
      | Open _ | Half_open ->
          l.state <- Closed;
          `Closed

  let on_timeout t src dst ~now =
    let l = link t src dst in
    l.strikes <- l.strikes + 1;
    let cooldown =
      let base = if l.samples > 0 then raw_rto t l else l.fallback_rto in
      let base = if Float.is_nan base then t.c.Adaptive.rto_min else base in
      t.c.Adaptive.cooldown_mult *. clamp t base
    in
    match l.state with
    | Closed when l.strikes >= t.c.Adaptive.breaker_threshold ->
        l.state <- Open (now +. cooldown);
        true
    | Closed -> false
    | Open _ | Half_open ->
        l.state <- Open (now +. cooldown);
        false

  let usable t src dst ~now =
    let l = link t src dst in
    match l.state with
    | Closed | Half_open -> true
    | Open until ->
        if now >= until then begin
          l.state <- Half_open;
          true
        end
        else false

  let usable_now t src dst ~now =
    match (link t src dst).state with
    | Closed | Half_open -> true
    | Open until -> now >= until

  let circuit t src dst =
    match (link t src dst).state with
    | Closed -> `Closed
    | Open _ -> `Open
    | Half_open -> `Half_open

  let srtt t src dst =
    let l = link t src dst in
    if l.samples = 0 then None else Some l.srtt

  let rttvar t src dst =
    let l = link t src dst in
    if l.samples = 0 then None else Some l.rttvar

  let samples t src dst = (link t src dst).samples

  let quality t src dst =
    let l = link t src dst in
    if l.samples = 0 || Float.is_nan l.nominal || l.nominal <= 0. then 1.
    else l.srtt /. l.nominal
end

type est_op =
  | Rto of float * float
  | Sample of float * bool
  | Timeout
  | Usable
  | Usable_now
  | Circuit
  | Srtt
  | Rttvar
  | Samples
  | Quality
  | Params_of

let est_op_gen =
  QCheck.Gen.(
    let pos = map (fun x -> 1. +. float_of_int x) (int_bound 400) in
    let op =
      frequency
        [
          (3, map2 (fun a b -> Rto (a, b)) pos pos);
          (4, map2 (fun r k -> Sample (r, k)) pos (map (fun x -> x = 0) (int_bound 3)));
          (3, return Timeout);
          (2, return Usable);
          (1, return Usable_now);
          (1, return Circuit);
          (1, return Srtt);
          (1, return Rttvar);
          (1, return Samples);
          (1, return Quality);
          (1, return Params_of);
        ]
    in
    (* (src, dst, clock advance, operation) over 4 ranks *)
    quad (int_bound 3) (int_bound 3) (int_bound 300) op)

let sparse_matches_dense =
  QCheck.Test.make ~name:"sparse links answer like a dense reference"
    ~count:(Testutil.count 300)
    (QCheck.make QCheck.Gen.(list_size (0 -- 200) est_op_gen))
    (fun ops ->
      let n = 4 in
      let config = Adaptive.v ~breaker_threshold:2 ~blowup_factor:3. () in
      let sparse = Adaptive.create ~config ~n () in
      let dense = Dense.create config n in
      let nominal = Params.linear ~latency:50. ~g0:10. ~bandwidth_mb_s:100. in
      let now = ref 0. in
      let same_float a b = Float.equal a b in
      List.for_all
        (fun (src, dst, dt, op) ->
          now := !now +. float_of_int dt;
          let now = !now in
          match op with
          | Rto (nom, fallback) ->
              same_float
                (Adaptive.rto sparse ~src ~dst ~nominal:nom ~fallback)
                (Dense.rto dense src dst ~nominal:nom ~fallback)
          | Sample (rtt, retransmitted) ->
              Adaptive.on_sample sparse ~src ~dst ~rtt ~retransmitted ~now
              = Dense.on_sample dense src dst ~rtt ~retransmitted ~now
          | Timeout ->
              Adaptive.on_timeout sparse ~src ~dst ~now
              = Dense.on_timeout dense src dst ~now
          | Usable -> Adaptive.usable sparse ~src ~dst ~now = Dense.usable dense src dst ~now
          | Usable_now ->
              Adaptive.usable_now sparse ~src ~dst ~now
              = Dense.usable_now dense src dst ~now
          | Circuit -> Adaptive.circuit sparse ~src ~dst = Dense.circuit dense src dst
          | Srtt ->
              Option.equal same_float (Adaptive.srtt sparse ~src ~dst)
                (Dense.srtt dense src dst)
          | Rttvar ->
              Option.equal same_float (Adaptive.rttvar sparse ~src ~dst)
                (Dense.rttvar dense src dst)
          | Samples -> Adaptive.samples sparse ~src ~dst = Dense.samples dense src dst
          | Quality ->
              same_float (Adaptive.quality sparse ~src ~dst) (Dense.quality dense src dst)
          | Params_of ->
              let q = Dense.quality dense src dst in
              let p = Adaptive.estimated_params sparse ~src ~dst nominal in
              let r =
                if q = 1. then nominal
                else Params.rescale ~gap_factor:q ~latency_factor:q nominal
              in
              same_float (Params.latency p) (Params.latency r)
              && same_float (Params.gap p 65536) (Params.gap r 65536))
        ops
      &&
      let nominal ~src ~dst = float_of_int (1 + src + (10 * dst)) in
      Adaptive.estimated_latency_matrix sparse ~nominal
      = Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 0. else Dense.quality dense i j *. nominal ~src:i ~dst:j)))

let test_reads_store_nothing () =
  (* Reads of untouched links answer with the defaults and store nothing:
     an estimator over 200 ranks stays as small after n² reads as fresh. *)
  let n = 200 in
  let t = Adaptive.create ~n () in
  let fresh_words = Obj.reachable_words (Obj.repr t) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      ignore (Adaptive.quality t ~src ~dst : float);
      ignore (Adaptive.circuit t ~src ~dst);
      ignore (Adaptive.usable t ~src ~dst ~now:0. : bool);
      ignore (Adaptive.usable_now t ~src ~dst ~now:0. : bool);
      ignore (Adaptive.srtt t ~src ~dst : float option)
    done
  done;
  Alcotest.(check int) "no link stored by reads" fresh_words
    (Obj.reachable_words (Obj.repr t));
  ignore (Adaptive.rto t ~src:0 ~dst:1 ~nominal:50. ~fallback:100. : float);
  Alcotest.(check bool) "a write stores its link" true
    (Obj.reachable_words (Obj.repr t) > fresh_words)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "adaptive"
    [
      ("config", [ quick "validation" test_config_validation ]);
      ( "estimator",
        [
          quick "first sample seeds RFC 6298" test_first_sample_seeds_rfc6298;
          quick "rto clamped" test_rto_clamped;
          quick "karn exclusion" test_karn_exclusion;
          QCheck_alcotest.to_alcotest karn_exclusion_property;
          QCheck_alcotest.to_alcotest rto_convergence_property;
          quick "re-inflates on degradation" test_rto_reinflates_on_degradation;
          quick "nominal separate from fallback" test_nominal_separate_from_fallback;
        ] );
      ( "breaker",
        [
          quick "timeout transitions" test_breaker_timeout_transitions;
          quick "strikes reset on success" test_breaker_strikes_reset_on_success;
          quick "blow-up opens" test_breaker_blowup_opens;
          quick "usable_now is pure" test_usable_now_is_pure;
        ] );
      ("estimated params", [ quick "rescale" test_estimated_params_rescale ]);
      ( "storage",
        [
          QCheck_alcotest.to_alcotest sparse_matches_dense;
          quick "reads store nothing" test_reads_store_nothing;
        ] );
    ]
