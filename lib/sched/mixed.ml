let default_threshold = 10

let strategy ?(threshold = default_threshold) ?(small = Heuristics.ecef_la)
    ?(large = Heuristics.ecef_lat_max) () =
  Heuristics.of_policy
    (Policy.sized ~threshold ~small:small.Heuristics.policy ~large:large.Heuristics.policy)
