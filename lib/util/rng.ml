type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* Variant-13 mix of Stafford: a 64-bit bijection, so distinct inputs give
   distinct outputs. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* SplitMix64's state advances by the golden gamma per output, so the
   output [k] calls ahead is one multiply-add away. *)
let bits64_ahead t k =
  if k < 0 then invalid_arg "Rng.bits64_ahead: negative offset";
  mix (Int64.add t.state (Int64.mul (Int64.of_int (k + 1)) golden_gamma))

(* A second odd constant so indexed streams are not correlated with the
   parent's own output sequence. *)
let stream_gamma = 0xD1B54A32D192ED03L

let split t i =
  if i < 0 then invalid_arg "Rng.split: negative stream index";
  (* Pure in (t's current state, i): the parent is not advanced, so any
     worker can derive stream i without racing the others, and equal
     (state, i) pairs always yield the equal stream.  [mix] is a bijection
     and [stream_gamma] is odd, so for a fixed parent state the map
     i -> seed is injective: no two indices collide on a stream. *)
  let base = mix (Int64.add t.state golden_gamma) in
  { state = mix (Int64.add base (Int64.mul (Int64.of_int i) stream_gamma)) }

(* Top 53 bits, scaled to [0,1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low bits to avoid modulo bias. *)
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) 0x7FFFFFFFFFFFFFFFL) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound = unit_float t *. bound

let float_in t lo hi =
  if hi < lo then invalid_arg "Rng.float_in: hi < lo";
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p outside [0, 1]";
  (* p = 0. never succeeds and p = 1. always does, but both still consume
     one draw so that branching on the probability cannot desynchronise a
     stream shared with other draw sites. *)
  unit_float t < p

let gaussian ?(mu = 0.) ?(sigma = 1.) t =
  (* Box-Muller; u1 must be nonzero for the logarithm. *)
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let lognormal ?(mu = 0.) ?(sigma = 1.) t = exp (gaussian ~mu ~sigma t)

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda must be positive";
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. lambda

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
