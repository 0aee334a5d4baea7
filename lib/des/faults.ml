module Rng = Gridb_util.Rng
module Kv_spec = Gridb_util.Kv_spec

type spec = {
  loss : float;
  cut_rate : float;
  degrade_rate : float;
  degrade_mean : float;
  degrade_factor : float;
  crash_rate : float;
}

let none =
  {
    loss = 0.;
    cut_rate = 0.;
    degrade_rate = 0.;
    degrade_mean = 1e6;
    degrade_factor = 3.;
    crash_rate = 0.;
  }

(* [v]'s checks, also run by [create] so hand-built records cannot smuggle
   invalid parameters in. *)
let validate s =
  let finite name x =
    if not (Float.is_finite x) then invalid_arg ("Faults.v: " ^ name ^ " must be finite")
  in
  finite "loss" s.loss;
  finite "cut_rate" s.cut_rate;
  finite "degrade_rate" s.degrade_rate;
  finite "degrade_mean" s.degrade_mean;
  finite "degrade_factor" s.degrade_factor;
  finite "crash_rate" s.crash_rate;
  if not (s.loss >= 0. && s.loss < 1.) then invalid_arg "Faults.v: loss outside [0, 1)";
  if s.cut_rate < 0. then invalid_arg "Faults.v: negative cut_rate";
  if s.degrade_rate < 0. then invalid_arg "Faults.v: negative degrade_rate";
  if s.degrade_mean <= 0. then invalid_arg "Faults.v: degrade_mean must be positive";
  if s.degrade_factor < 1. then invalid_arg "Faults.v: degrade_factor < 1";
  if s.crash_rate < 0. then invalid_arg "Faults.v: negative crash_rate";
  s

let v ?(loss = 0.) ?(cut_rate = 0.) ?(degrade_rate = 0.) ?(degrade_mean = 1e6)
    ?(degrade_factor = 3.) ?(crash_rate = 0.) () =
  validate { loss; cut_rate; degrade_rate; degrade_mean; degrade_factor; crash_rate }

let is_none s =
  s.loss = 0. && s.cut_rate = 0. && s.degrade_rate = 0. && s.crash_rate = 0.

(* The CLI keys.  Their range checks are [v]'s, stated per key so an error
   names the key the user typed rather than the record field. *)
let rate name get set =
  Kv_spec.key name ~ok:(fun f -> f >= 0.) ~invalid:"negative rate" ~get ~set

let loss =
  Kv_spec.key "loss" ~ok:(fun f -> f >= 0. && f < 1.) ~invalid:"outside [0, 1)"
    ~get:(fun s -> s.loss) ~set:(fun s f -> { s with loss = f })

let cut = rate "cut" (fun s -> s.cut_rate) (fun s f -> { s with cut_rate = f })
let crash = rate "crash" (fun s -> s.crash_rate) (fun s f -> { s with crash_rate = f })
let degrade =
  rate "degrade" (fun s -> s.degrade_rate) (fun s f -> { s with degrade_rate = f })

let degrade_mean =
  Kv_spec.key "degrade-mean" ~ok:(fun f -> f > 0.) ~invalid:"must be positive"
    ~get:(fun s -> s.degrade_mean) ~set:(fun s f -> { s with degrade_mean = f })

let degrade_factor =
  Kv_spec.key "degrade-factor" ~ok:(fun f -> f >= 1.) ~invalid:"must be >= 1"
    ~get:(fun s -> s.degrade_factor) ~set:(fun s f -> { s with degrade_factor = f })

let of_string =
  Kv_spec.of_string [ loss; cut; crash; degrade; degrade_mean; degrade_factor ] ~none

(* Printed with crash last, the order reports have always shown. *)
let to_string =
  Kv_spec.to_string [ loss; cut; degrade; degrade_mean; degrade_factor; crash ] ~none

(* Degradation episodes are generated lazily per link, in start order, from
   the link's private stream: [next_start] is the first episode not yet
   materialised, so a query at time [at] only forces episodes with
   [start <= at] and later queries (at any time) see the same draws.  The
   [count] episodes materialised so far sit in growable arrays: their
   starts, ascending, and the running maximum of their stops, so a query
   is a binary search. *)
type degrade_stream = {
  drng : Rng.t;
  mutable next_start : float;
  mutable count : int;
  mutable starts : float array;
  mutable max_stop : float array;  (* [max_stop.(i)]: latest stop of episodes 0..i *)
}

let no_stream =  (* a slot whose link has no degradation stream yet *)
  { drng = Rng.create 0; next_start = infinity; count = 0; starts = [||]; max_stop = [||] }

type t = {
  spec : spec;
  n : int;
  t0 : float;  (* time origin; drawn times are offsets from it *)
  crash : float array;  (* per rank; infinity = never *)
  cut : float array;  (* directed link src * n + dst; infinity = never *)
  seeds : Rng.t;  (* master state after the crash and cut draws *)
  (* A queried link's loss draw count and its degradation stream, in two
     tables keyed by link.  A session queries about two links per rank,
     its data's and its ACK's. *)
  draws : int Slots.t;
  streams : degrade_stream Slots.t;
}

let create ?(seed = 0) ?(t0 = 0.) ~n spec =
  if n < 1 then invalid_arg "Faults.create: n < 1";
  if not (Float.is_finite t0) then invalid_arg "Faults.create: t0 must be finite";
  let spec = validate spec in
  let master = Rng.create seed in
  let crash =
    if spec.crash_rate > 0. then
      Array.init n (fun _ -> Rng.exponential master spec.crash_rate)
    else Array.make n infinity
  in
  let cut =
    if spec.cut_rate > 0. then
      Array.init (n * n) (fun idx ->
          if idx / n = idx mod n then infinity
          else Rng.exponential master spec.cut_rate)
    else Array.make 0 0.
  in
  let table fill = Slots.create ~keys:(2 * n) fill in
  { spec; n; t0; crash; cut; seeds = master; draws = table 0; streams = table no_stream }

(* Per-link streams are seeded by the master's outputs after the crash and
   cut draws: every link's loss stream in link order, then every link's
   degradation stream.  [Rng.bits64_ahead] reads the one a link needs, with
   the same seed as if all n^2 had been drawn up front. *)
let link_seed t idx ~offset = Int64.to_int (Rng.bits64_ahead t.seeds (offset + idx))

let spec t = t.spec
let size t = t.n

let check_rank t i name =
  if i < 0 || i >= t.n then invalid_arg ("Faults." ^ name ^ ": rank out of range")

let crash_time t i =
  check_rank t i "crash_time";
  t.t0 +. t.crash.(i)

(* A loop, not [Array.map]: mapping a float array boxes every element
   read and every result. *)
let crash_times t =
  let times = Array.make t.n infinity in
  for i = 0 to t.n - 1 do
    times.(i) <- t.t0 +. t.crash.(i)
  done;
  times

let crashed t i ~at = crash_time t i <= at

let link_index t ~src ~dst name =
  check_rank t src name;
  check_rank t dst name;
  (src * t.n) + dst

let cut_time t ~src ~dst =
  let idx = link_index t ~src ~dst "cut_time" in
  if Array.length t.cut = 0 then infinity else t.t0 +. t.cut.(idx)

let link_up t ~src ~dst ~at = cut_time t ~src ~dst > at

let lose t ~src ~dst =
  let idx = link_index t ~src ~dst "lose" in
  t.spec.loss > 0.
  && let i = Slots.slot t.draws idx in
     let k = Slots.get t.draws i in
     Slots.set t.draws i (k + 1);
     Rng.unit_float_at (link_seed t idx ~offset:0) k < t.spec.loss

let add_episode s start stop =
  let cap = Array.length s.starts in
  if s.count = cap then begin
    let grow a =
      let b = Array.make (max 4 (2 * cap)) 0. in
      Array.blit a 0 b 0 cap;
      b
    in
    s.starts <- grow s.starts;
    s.max_stop <- grow s.max_stop
  end;
  let prev = if s.count = 0 then neg_infinity else s.max_stop.(s.count - 1) in
  s.starts.(s.count) <- start;
  s.max_stop.(s.count) <- (if stop > prev then stop else prev);
  s.count <- s.count + 1

(* Index of the last episode with [start <= at], or -1. *)
let last_start_at_most s at =
  let rec search lo hi =
    (* starts.(lo - 1) <= at (or lo = 0), and starts.(hi) > at (or hi = count) *)
    if lo >= hi then lo - 1
    else
      let mid = (lo + hi) / 2 in
      if s.starts.(mid) <= at then search (mid + 1) hi else search lo mid
  in
  search 0 s.count

let slowdown t ~src ~dst ~at =
  let idx = link_index t ~src ~dst "slowdown" in
  if t.spec.degrade_rate = 0. then 1.
  else begin
    let i = Slots.slot t.streams idx in
    if Slots.get t.streams i == no_stream then begin
      let offset = if t.spec.loss > 0. then t.n * t.n else 0 in
      let drng = Rng.create (link_seed t idx ~offset) in
      Slots.set t.streams i
        { no_stream with drng; next_start = Rng.exponential drng t.spec.degrade_rate }
    end;
    let s = Slots.get t.streams i in
    let at = at -. t.t0 in
    while s.next_start <= at do
      let start = s.next_start in
      let stop = start +. Rng.exponential s.drng (1. /. t.spec.degrade_mean) in
      add_episode s start stop;
      s.next_start <- start +. Rng.exponential s.drng t.spec.degrade_rate
    done;
    (* Some episode covers [at] iff one starting no later than [at] stops
       after it: the episodes up to the last start <= [at] are a prefix. *)
    let last = last_start_at_most s at in
    if last >= 0 && s.max_stop.(last) > at then t.spec.degrade_factor else 1.
  end
