module Params = Gridb_plogp.Params

type config = {
  alpha : float;
  beta : float;
  var_mult : float;
  rto_min : float;
  rto_max : float;
  breaker_threshold : int;
  blowup_factor : float;
  cooldown_mult : float;
  max_reroutes : int;
}

let default =
  {
    alpha = 0.125;
    beta = 0.25;
    var_mult = 4.;
    rto_min = 1.;
    rto_max = 1e9;
    breaker_threshold = 3;
    blowup_factor = 8.;
    cooldown_mult = 4.;
    max_reroutes = 0;
  }

let v ?(alpha = default.alpha) ?(beta = default.beta) ?(var_mult = default.var_mult)
    ?(rto_min = default.rto_min) ?(rto_max = default.rto_max)
    ?(breaker_threshold = default.breaker_threshold)
    ?(blowup_factor = default.blowup_factor) ?(cooldown_mult = default.cooldown_mult)
    ?(max_reroutes = default.max_reroutes) () =
  if not (alpha > 0. && alpha <= 1.) then invalid_arg "Adaptive.v: alpha outside (0, 1]";
  if not (beta > 0. && beta <= 1.) then invalid_arg "Adaptive.v: beta outside (0, 1]";
  if not (var_mult > 0.) then invalid_arg "Adaptive.v: var_mult must be positive";
  if not (rto_min > 0.) then invalid_arg "Adaptive.v: rto_min must be positive";
  if rto_max < rto_min then invalid_arg "Adaptive.v: rto_max < rto_min";
  if breaker_threshold < 1 then invalid_arg "Adaptive.v: breaker_threshold < 1";
  if not (blowup_factor > 1.) then invalid_arg "Adaptive.v: blowup_factor <= 1";
  if not (cooldown_mult > 0.) then invalid_arg "Adaptive.v: cooldown_mult must be positive";
  if max_reroutes < 0 then invalid_arg "Adaptive.v: negative max_reroutes";
  {
    alpha;
    beta;
    var_mult;
    rto_min;
    rto_max;
    breaker_threshold;
    blowup_factor;
    cooldown_mult;
    max_reroutes;
  }

type circuit = Closed | Open of { until : float } | Half_open

type link = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable nominal : float;
      (* un-inflated model round trip (quality denominator); nan until first
         rto query *)
  mutable fallback_rto : float;
      (* model-derived RTO (multipliers and floors included), latched at the
         first rto query; nan before *)
  mutable strikes : int;  (* consecutive timeouts since the last success *)
  mutable state : circuit;
  mutable samples : int;
}

module Links = Hashtbl.Make (Int)

(* Only links a write ([rto], [on_sample], [on_timeout], an [usable]
   transition) has touched are stored, keyed [src * n + dst]: a session
   crosses a few of its n² links, and every estimator outlives its session
   in the session's result. *)
type t = { config : config; n : int; links : link Links.t }

let create ?(config = default) ~n () =
  if n < 1 then invalid_arg "Adaptive.create: n < 1";
  (* Re-run the smart constructor so hand-built records cannot smuggle
     invalid knobs in (the Faults.create discipline). *)
  let config =
    v ~alpha:config.alpha ~beta:config.beta ~var_mult:config.var_mult
      ~rto_min:config.rto_min ~rto_max:config.rto_max
      ~breaker_threshold:config.breaker_threshold ~blowup_factor:config.blowup_factor
      ~cooldown_mult:config.cooldown_mult ~max_reroutes:config.max_reroutes ()
  in
  { config; n; links = Links.create 16 }

let config t = t.config
let size t = t.n

let fresh () =
  {
    srtt = nan;
    rttvar = nan;
    nominal = nan;
    fallback_rto = nan;
    strikes = 0;
    state = Closed;
    samples = 0;
  }

(* What every read of a link no write has touched sees.  Never stored and
   never written: writers go through [link]. *)
let untouched = fresh ()

let index t ~src ~dst name =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg ("Adaptive." ^ name ^ ": rank out of range");
  (src * t.n) + dst

(* Read-only view: an untouched link reads as the defaults, not stored. *)
let peek t ~src ~dst name =
  match Links.find t.links (index t ~src ~dst name) with
  | l -> l
  | exception Not_found -> untouched

(* Writable link, stored on first use. *)
let link t ~src ~dst name =
  let idx = index t ~src ~dst name in
  match Links.find t.links idx with
  | l -> l
  | exception Not_found ->
      let l = fresh () in
      Links.add t.links idx l;
      l

let clamp t x = Float.min t.config.rto_max (Float.max t.config.rto_min x)

let raw_rto t l = l.srtt +. (t.config.var_mult *. l.rttvar)

let rto t ~src ~dst ~nominal ~fallback =
  let l = link t ~src ~dst "rto" in
  (* [nominal] must stay un-inflated (no rto_mult/rto_min): it is the
     denominator of [quality], so folding the RTO multiplier in would make
     a healthy link's SRTT converge to a fraction of it and every
     estimated parameter read proportionally too fast. *)
  if Float.is_nan l.nominal then l.nominal <- nominal;
  if Float.is_nan l.fallback_rto then l.fallback_rto <- fallback;
  if l.samples = 0 then clamp t fallback else clamp t (raw_rto t l)

let on_sample t ~src ~dst ~rtt ~retransmitted ~now =
  if rtt < 0. then invalid_arg "Adaptive.on_sample: negative rtt";
  let l = link t ~src ~dst "on_sample" in
  let blowup =
    (* Judged against the pre-sample SRTT: one sample worth several
       smoothed round trips is a degradation signal, not jitter. *)
    (not retransmitted) && l.samples > 0 && rtt > t.config.blowup_factor *. l.srtt
  in
  if not retransmitted then begin
    (* Jacobson/Karn (RFC 6298): first valid sample seeds SRTT = R,
       RTTVAR = R/2; later ones are exponentially smoothed. *)
    if l.samples = 0 then begin
      l.srtt <- rtt;
      l.rttvar <- rtt /. 2.
    end
    else begin
      l.rttvar <-
        ((1. -. t.config.beta) *. l.rttvar) +. (t.config.beta *. Float.abs (l.srtt -. rtt));
      l.srtt <- ((1. -. t.config.alpha) *. l.srtt) +. (t.config.alpha *. rtt)
    end;
    l.samples <- l.samples + 1
  end;
  l.strikes <- 0;
  let was = l.state in
  if blowup then begin
    l.state <- Open { until = now +. (t.config.cooldown_mult *. clamp t (raw_rto t l)) };
    match was with Open _ -> `No_change | Closed | Half_open -> `Opened
  end
  else
    match was with
    | Closed -> `No_change
    | Open _ | Half_open ->
        l.state <- Closed;
        `Closed

let on_timeout t ~src ~dst ~now =
  let l = link t ~src ~dst "on_timeout" in
  l.strikes <- l.strikes + 1;
  let cooldown =
    let base = if l.samples > 0 then raw_rto t l else l.fallback_rto in
    let base = if Float.is_nan base then t.config.rto_min else base in
    t.config.cooldown_mult *. clamp t base
  in
  match l.state with
  | Closed when l.strikes >= t.config.breaker_threshold ->
      l.state <- Open { until = now +. cooldown };
      true
  | Closed -> false
  | Open _ | Half_open ->
      (* Restart the cooldown: a timeout while open/half-open (a failed
         probe) pushes recovery further out. *)
      l.state <- Open { until = now +. cooldown };
      false

let usable t ~src ~dst ~now =
  (* An untouched link is closed: only a stored link can take the
     cooldown-expiry transition below. *)
  let l = peek t ~src ~dst "usable" in
  match l.state with
  | Closed | Half_open -> true
  | Open { until } ->
      if now >= until then begin
        l.state <- Half_open;
        true
      end
      else false

let usable_now t ~src ~dst ~now =
  let l = peek t ~src ~dst "usable_now" in
  match l.state with
  | Closed | Half_open -> true
  | Open { until } -> now >= until

let circuit t ~src ~dst =
  let l = peek t ~src ~dst "circuit" in
  match l.state with Closed -> `Closed | Open _ -> `Open | Half_open -> `Half_open

let srtt t ~src ~dst =
  let l = peek t ~src ~dst "srtt" in
  if l.samples = 0 then None else Some l.srtt

let rttvar t ~src ~dst =
  let l = peek t ~src ~dst "rttvar" in
  if l.samples = 0 then None else Some l.rttvar

let samples t ~src ~dst = (peek t ~src ~dst "samples").samples

let quality t ~src ~dst =
  let l = peek t ~src ~dst "quality" in
  if l.samples = 0 || Float.is_nan l.nominal || l.nominal <= 0. then 1.
  else l.srtt /. l.nominal

let estimated_params t ~src ~dst nominal =
  let q = quality t ~src ~dst in
  if q = 1. then nominal else Params.rescale ~gap_factor:q ~latency_factor:q nominal

let estimated_latency_matrix ?(symmetric = false) t ~nominal =
  let e i j = if i = j then 0. else quality t ~src:i ~dst:j *. nominal ~src:i ~dst:j in
  Array.init t.n (fun i ->
      Array.init t.n (fun j ->
          if symmetric && i <> j then Float.max (e i j) (e j i) else e i j))
