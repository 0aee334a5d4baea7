module Rng = Gridb_util.Rng
module Kv_spec = Gridb_util.Kv_spec

type spec = {
  drift_rate : float;
  drift_sigma : float;
  drift_max : float;
  load_on_mean : float;
  load_off_mean : float;
  leave_rate : float;
  join_rate : float;
  join_max : int;
  recluster_every : float;
}

let none =
  {
    drift_rate = 0.;
    drift_sigma = 0.25;
    drift_max = 4.;
    load_on_mean = 2e5;
    load_off_mean = 2e5;
    leave_rate = 0.;
    join_rate = 0.;
    join_max = 4;
    recluster_every = 0.;
  }

(* [v]'s checks, also run by [create] so hand-built records cannot smuggle
   invalid parameters in. *)
let validate s =
  let finite name x =
    if not (Float.is_finite x) then invalid_arg ("Dynamics.v: " ^ name ^ " must be finite")
  in
  finite "drift_rate" s.drift_rate;
  finite "drift_sigma" s.drift_sigma;
  finite "drift_max" s.drift_max;
  finite "load_on_mean" s.load_on_mean;
  finite "load_off_mean" s.load_off_mean;
  finite "leave_rate" s.leave_rate;
  finite "join_rate" s.join_rate;
  finite "recluster_every" s.recluster_every;
  if s.drift_rate < 0. then invalid_arg "Dynamics.v: negative drift_rate";
  if s.drift_sigma <= 0. then invalid_arg "Dynamics.v: drift_sigma must be positive";
  if s.drift_max < 1. then invalid_arg "Dynamics.v: drift_max < 1";
  if s.load_on_mean <= 0. then invalid_arg "Dynamics.v: load_on_mean must be positive";
  if s.load_off_mean < 0. then invalid_arg "Dynamics.v: negative load_off_mean";
  if s.leave_rate < 0. then invalid_arg "Dynamics.v: negative leave_rate";
  if s.join_rate < 0. then invalid_arg "Dynamics.v: negative join_rate";
  if s.join_max < 0 then invalid_arg "Dynamics.v: negative join_max";
  if s.join_max > 1 lsl 53 then invalid_arg "Dynamics.v: join_max beyond 2^53";
  if s.recluster_every < 0. then invalid_arg "Dynamics.v: negative recluster_every";
  s

let v ?(drift_rate = 0.) ?(drift_sigma = none.drift_sigma) ?(drift_max = none.drift_max)
    ?(load_on_mean = none.load_on_mean) ?(load_off_mean = none.load_off_mean)
    ?(leave_rate = 0.) ?(join_rate = 0.) ?(join_max = none.join_max)
    ?(recluster_every = 0.) () =
  validate
    { drift_rate; drift_sigma; drift_max; load_on_mean; load_off_mean; leave_rate;
      join_rate; join_max; recluster_every }

let is_none s =
  s.drift_rate = 0. && s.leave_rate = 0. && s.join_rate = 0. && s.recluster_every = 0.

(* The CLI keys, with [v]'s range checks stated per key (the
   Faults.of_string contract: errors name the key as typed). *)
let non_negative name invalid get set =
  Kv_spec.key name ~ok:(fun f -> f >= 0.) ~invalid ~get ~set

let positive name get set =
  Kv_spec.key name ~ok:(fun f -> f > 0.) ~invalid:"must be positive" ~get ~set

let drift =
  non_negative "drift" "negative rate"
    (fun s -> s.drift_rate) (fun s f -> { s with drift_rate = f })

let drift_sigma =
  positive "drift-sigma" (fun s -> s.drift_sigma) (fun s f -> { s with drift_sigma = f })

let drift_max =
  Kv_spec.key "drift-max" ~ok:(fun f -> f >= 1.) ~invalid:"must be >= 1"
    ~get:(fun s -> s.drift_max) ~set:(fun s f -> { s with drift_max = f })

let load_on =
  positive "load-on" (fun s -> s.load_on_mean) (fun s f -> { s with load_on_mean = f })

let load_off =
  non_negative "load-off" "negative duration"
    (fun s -> s.load_off_mean) (fun s f -> { s with load_off_mean = f })

let leave =
  non_negative "leave" "negative rate"
    (fun s -> s.leave_rate) (fun s f -> { s with leave_rate = f })

let join =
  non_negative "join" "negative rate"
    (fun s -> s.join_rate) (fun s f -> { s with join_rate = f })

(* Shorthand: symmetric churn sets both rates; never printed back, so
   round-trips stay fixpoints. *)
let churn =
  non_negative "churn" "negative rate" (fun s -> s.leave_rate)
    (fun s f -> { s with leave_rate = f; join_rate = f })

let join_max =
  Kv_spec.int_key "join-max" ~ok:(fun f -> f >= 0.) ~invalid:"must be a non-negative integer"
    ~get:(fun s -> s.join_max) ~set:(fun s j -> { s with join_max = j })

let recluster =
  non_negative "recluster" "negative period"
    (fun s -> s.recluster_every) (fun s f -> { s with recluster_every = f })

let of_string =
  Kv_spec.of_string
    [ drift; drift_sigma; drift_max; load_on; load_off; leave; join; join_max; churn; recluster ]
    ~none

let to_string =
  Kv_spec.to_string
    [ drift; drift_sigma; drift_max; load_on; load_off; leave; join; join_max; recluster ]
    ~none

(* One directed link's drift process.  Two merged Poisson-ish event streams
   — phase toggles and walk steps — are materialised lazily in time order
   up to the latest query, so draws happen in a fixed order no matter when
   (or whether) the executor asks.  The full segment history is kept
   because query times are not monotone across call sites (a send's start
   can sit past [now] while a later ACK queries an earlier time). *)
type drift_stream = {
  drng : Rng.t;
  mutable next_toggle : float;  (* next ON<->OFF boundary; infinity = always ON *)
  mutable next_step : float;  (* next walk-step arrival *)
  mutable on : bool;  (* load phase after the last materialised event *)
  mutable w : float;  (* clamped walk value (survives OFF phases) *)
  mutable segs : (float * float) list;  (* (since, factor), descending *)
}

type join = { rank : int; cluster : int; at : float }

type t = {
  spec : spec;
  n : int;
  t0 : float;  (* time origin; drawn times are offsets from it *)
  leave : float array;  (* per planning-time rank; infinity = never *)
  join_events : join array;
  drift_streams : drift_stream array;  (* n * n; [||] when drift_rate = 0 *)
}

let create ?(seed = 0) ?(t0 = 0.) ~n ~clusters spec =
  if n < 1 then invalid_arg "Dynamics.create: n < 1";
  if clusters < 1 then invalid_arg "Dynamics.create: clusters < 1";
  if not (Float.is_finite t0) then invalid_arg "Dynamics.create: t0 must be finite";
  let spec = validate spec in
  let master = Rng.create seed in
  let leave =
    if spec.leave_rate > 0. then
      Array.init n (fun _ -> Rng.exponential master spec.leave_rate)
    else Array.make n infinity
  in
  let join_events =
    if spec.join_rate > 0. && spec.join_max > 0 then begin
      let jrng = Rng.create (Int64.to_int (Rng.bits64 master)) in
      let events = ref [] in
      let t = ref 0. in
      (* Joins are drawn to a generous horizon; consumers see only those
         with [at] inside their own run. *)
      for k = 0 to spec.join_max - 1 do
        t := !t +. Rng.exponential jrng spec.join_rate;
        let cluster = Rng.int jrng clusters in
        events := { rank = n + k; cluster; at = t0 +. !t } :: !events
      done;
      Array.of_list (List.rev !events)
    end
    else [||]
  in
  let drift_streams =
    if spec.drift_rate > 0. then
      Array.init (n * n) (fun _ ->
          let drng = Rng.create (Int64.to_int (Rng.bits64 master)) in
          let always_on = spec.load_off_mean = 0. in
          {
            drng;
            next_toggle =
              (if always_on then infinity
               else Rng.exponential drng (1. /. spec.load_off_mean));
            next_step = Rng.exponential drng spec.drift_rate;
            on = always_on;
            w = 1.;
            segs = [ (0., 1.) ];
          })
    else [||]
  in
  { spec; n; t0; leave; join_events; drift_streams }

let spec t = t.spec
let size t = t.n
let total t = t.n + Array.length t.join_events
let joins t = t.join_events

let check_rank t i name =
  if i < 0 || i >= total t then invalid_arg ("Dynamics." ^ name ^ ": rank out of range")

let leave_time t i =
  check_rank t i "leave_time";
  if i >= t.n then infinity else t.t0 +. t.leave.(i)

let left t i ~at = leave_time t i <= at

let clamp spec w = Float.min spec.drift_max (Float.max (1. /. spec.drift_max) w)

let materialize t s ~at =
  let spec = t.spec in
  while Float.min s.next_toggle s.next_step <= at do
    (* Toggles win ties so a step landing exactly on a boundary applies to
       the phase it opens — an arbitrary but fixed convention. *)
    if s.next_toggle <= s.next_step then begin
      let time = s.next_toggle in
      s.on <- not s.on;
      s.next_toggle <-
        time
        +. Rng.exponential s.drng
             (1. /. (if s.on then spec.load_on_mean else spec.load_off_mean));
      s.segs <- (time, if s.on then s.w else 1.) :: s.segs
    end
    else begin
      let time = s.next_step in
      s.w <- clamp spec (s.w *. Rng.lognormal ~sigma:spec.drift_sigma s.drng);
      s.next_step <- time +. Rng.exponential s.drng spec.drift_rate;
      if s.on then s.segs <- (time, s.w) :: s.segs
    end
  done

let factor t ~src ~dst ~at =
  check_rank t src "factor";
  check_rank t dst "factor";
  if
    Array.length t.drift_streams = 0
    || src = dst
    || src >= t.n (* join links are fresh and undrifted *)
    || dst >= t.n
  then 1.
  else begin
    let s = t.drift_streams.((src * t.n) + dst) in
    let at = at -. t.t0 in
    materialize t s ~at;
    match List.find_opt (fun (since, _) -> since <= at) s.segs with
    | Some (_, f) -> f
    | None -> 1.
  end
