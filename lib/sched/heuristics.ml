type t = { name : string; policy : Policy.t }

let of_policy p = { name = Policy.name p; policy = p }

let flat_tree = of_policy Policy.flat_tree
let fef = of_policy Policy.fef
let ecef = of_policy Policy.ecef
let ecef_la = of_policy Policy.ecef_la
let ecef_with lookahead = of_policy (Policy.ecef_with lookahead)
let ecef_lat_min = of_policy Policy.ecef_lat_min
let ecef_lat_max = of_policy Policy.ecef_lat_max
let bottom_up = of_policy Policy.bottom_up

let all = [ flat_tree; fef; ecef; ecef_la; ecef_lat_min; ecef_lat_max; bottom_up ]
let ecef_family = [ ecef; ecef_la; ecef_lat_min; ecef_lat_max ]
let names = Policy.names

let by_name name = Option.map of_policy (Policy.by_name name)

let run ?mode t inst = Engine.run ?mode t.policy inst

let makespan ?model ?mode t inst = Schedule.makespan ?model inst (run ?mode t inst)
