type t = { nic_free : float array }

let create ~n =
  if n < 1 then invalid_arg "Wire.create: n < 1";
  { nic_free = Array.make n 0. }

let size t = Array.length t.nic_free
let free_at t rank = t.nic_free.(rank)

(* Times are never NaN, so a comparison stands in for [Float.max], which
   would box its arguments. *)
let touch t rank ~now = if now > t.nic_free.(rank) then t.nic_free.(rank) <- now

let seize t rank ~gap =
  let start = t.nic_free.(rank) in
  t.nic_free.(rank) <- start +. gap;
  start

let occupy t rank ~start ~gap = t.nic_free.(rank) <- start +. gap
