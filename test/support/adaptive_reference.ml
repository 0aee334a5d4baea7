type config = Gridb_des.Adaptive.config

let closed = 0.
let opened = 1.
let half_open = 2.

type link = {
  mutable srtt : float;
  mutable rttvar : float;
  mutable nominal : float;
  mutable fallback_rto : float;
  mutable strikes : float;
  mutable state : float;
  mutable until : float;
  mutable samples : float;
}

module Links = Hashtbl.Make (Int)

type t = { config : config; n : int; links : link Links.t }

let create ~config ~n = { config; n; links = Links.create 16 }

let fresh () =
  {
    srtt = nan;
    rttvar = nan;
    nominal = nan;
    fallback_rto = nan;
    strikes = 0.;
    state = closed;
    until = nan;
    samples = 0.;
  }

let untouched = fresh ()

let index t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then invalid_arg "rank out of range";
  (src * t.n) + dst

let peek t ~src ~dst =
  match Links.find t.links (index t ~src ~dst) with l -> l | exception Not_found -> untouched

let link t ~src ~dst =
  let idx = index t ~src ~dst in
  match Links.find t.links idx with
  | l -> l
  | exception Not_found ->
      let l = fresh () in
      Links.add t.links idx l;
      l

let clamp t x = Float.min t.config.rto_max (Float.max t.config.rto_min x)
let raw_rto t l = l.srtt +. (t.config.var_mult *. l.rttvar)

let rto t ~src ~dst ~nominal ~fallback =
  let l = link t ~src ~dst in
  if Float.is_nan l.nominal then l.nominal <- nominal;
  if Float.is_nan l.fallback_rto then l.fallback_rto <- fallback;
  if l.samples = 0. then clamp t fallback else clamp t (raw_rto t l)

let on_sample t ~src ~dst ~rtt ~retransmitted ~now =
  if rtt < 0. then invalid_arg "negative rtt";
  let l = link t ~src ~dst in
  let blowup =
    (not retransmitted) && l.samples > 0. && rtt > t.config.blowup_factor *. l.srtt
  in
  if not retransmitted then begin
    if l.samples = 0. then begin
      l.srtt <- rtt;
      l.rttvar <- rtt /. 2.
    end
    else begin
      l.rttvar <-
        ((1. -. t.config.beta) *. l.rttvar) +. (t.config.beta *. Float.abs (l.srtt -. rtt));
      l.srtt <- ((1. -. t.config.alpha) *. l.srtt) +. (t.config.alpha *. rtt)
    end;
    l.samples <- l.samples +. 1.
  end;
  l.strikes <- 0.;
  let was = l.state in
  if blowup then begin
    l.state <- opened;
    l.until <- now +. (t.config.cooldown_mult *. clamp t (raw_rto t l));
    if was = opened then `No_change else `Opened
  end
  else if was = closed then `No_change
  else begin
    l.state <- closed;
    `Closed
  end

let on_timeout t ~src ~dst ~now =
  let l = link t ~src ~dst in
  l.strikes <- l.strikes +. 1.;
  let cooldown =
    let base = if l.samples > 0. then raw_rto t l else l.fallback_rto in
    let base = if Float.is_nan base then t.config.rto_min else base in
    t.config.cooldown_mult *. clamp t base
  in
  if l.state = closed then begin
    let trips = l.strikes >= float_of_int t.config.breaker_threshold in
    if trips then begin
      l.state <- opened;
      l.until <- now +. cooldown
    end;
    trips
  end
  else begin
    l.state <- opened;
    l.until <- now +. cooldown;
    false
  end

let usable t ~src ~dst ~now =
  let l = peek t ~src ~dst in
  if l.state <> opened then true
  else if now >= l.until then begin
    l.state <- half_open;
    true
  end
  else false

let usable_now t ~src ~dst ~now =
  let l = peek t ~src ~dst in
  l.state <> opened || now >= l.until

let circuit t ~src ~dst =
  let l = peek t ~src ~dst in
  if l.state = closed then `Closed else if l.state = opened then `Open else `Half_open

let srtt t ~src ~dst =
  let l = peek t ~src ~dst in
  if l.samples = 0. then None else Some l.srtt

let rttvar t ~src ~dst =
  let l = peek t ~src ~dst in
  if l.samples = 0. then None else Some l.rttvar

let samples t ~src ~dst = int_of_float (peek t ~src ~dst).samples

let quality t ~src ~dst =
  let l = peek t ~src ~dst in
  if l.samples = 0. || Float.is_nan l.nominal || l.nominal <= 0. then 1.
  else l.srtt /. l.nominal
