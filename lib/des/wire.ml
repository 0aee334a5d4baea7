type t = { nic_free : float array }

let create ~n =
  if n < 1 then invalid_arg "Wire.create: n < 1";
  { nic_free = Array.make n 0. }

let size t = Array.length t.nic_free
let free_at t rank = t.nic_free.(rank)

let occupy t rank ~start ~gap = t.nic_free.(rank) <- start +. gap
