type t = {
  latency : float;
  gap : Piecewise.t;
  os : Piecewise.t;
  or_ : Piecewise.t;
}

let overhead_fraction = 0.05

(* Tables from [Piecewise.of_points] are valid already; one made by
   [Piecewise.map] or [Piecewise.scale] may not be. *)
let check_table name f =
  List.iter
    (fun (_, x) ->
      if not (Float.is_finite x && x >= 0.) then
        invalid_arg ("Params.v: " ^ name ^ " table value not finite and non-negative"))
    (Piecewise.points f)

let v ?os ?or_ ~latency ~gap () =
  if not (Float.is_finite latency) then invalid_arg "Params.v: non-finite latency";
  if latency < 0. then invalid_arg "Params.v: negative latency";
  let default () = Piecewise.scale overhead_fraction gap in
  let os = match os with Some x -> x | None -> default () in
  let or_ = match or_ with Some x -> x | None -> default () in
  check_table "gap" gap;
  check_table "os" os;
  check_table "or_" or_;
  { latency; gap; os; or_ }

let linear ~latency ~g0 ~bandwidth_mb_s =
  if not (Float.is_finite g0) then invalid_arg "Params.linear: non-finite g0";
  if g0 < 0. then invalid_arg "Params.linear: negative g0";
  if not (Float.is_finite bandwidth_mb_s) then
    invalid_arg "Params.linear: non-finite bandwidth";
  if bandwidth_mb_s <= 0. then invalid_arg "Params.linear: non-positive bandwidth";
  (* 1 MB/s = 10^6 bytes / 10^6 us = 1 byte per microsecond. *)
  let slope = 1. /. bandwidth_mb_s in
  v ~latency ~gap:(Piecewise.linear ~intercept:g0 ~slope) ()

let latency t = t.latency
let gap t m = Piecewise.eval t.gap m
let send_overhead t m = Piecewise.eval t.os m
let recv_overhead t m = Piecewise.eval t.or_ m
let gap_table t = t.gap
let send_time t m = gap t m +. t.latency
let sender_busy t m = gap t m
let rtt t m = (2. *. t.latency) +. gap t m +. gap t 0

let scale_noise ~factor t =
  if not (Float.is_finite factor) then invalid_arg "Params.scale_noise: non-finite factor";
  if factor <= 0. then invalid_arg "Params.scale_noise: non-positive factor";
  {
    latency = t.latency *. factor;
    gap = Piecewise.scale factor t.gap;
    os = Piecewise.scale factor t.os;
    or_ = Piecewise.scale factor t.or_;
  }

let rescale ?(gap_factor = 1.) ?(latency_factor = 1.) t =
  if not (Float.is_finite gap_factor && Float.is_finite latency_factor) then
    invalid_arg "Params.rescale: non-finite factor";
  if gap_factor <= 0. then invalid_arg "Params.rescale: non-positive gap_factor";
  if latency_factor <= 0. then invalid_arg "Params.rescale: non-positive latency_factor";
  {
    latency = t.latency *. latency_factor;
    gap = Piecewise.scale gap_factor t.gap;
    os = Piecewise.scale gap_factor t.os;
    or_ = Piecewise.scale gap_factor t.or_;
  }

let pp ppf t =
  Format.fprintf ppf "@[<h>{L=%.3g us; g=%a}@]" t.latency Piecewise.pp t.gap

let equal a b =
  Float.equal a.latency b.latency
  && Piecewise.points a.gap = Piecewise.points b.gap
  && Piecewise.points a.os = Piecewise.points b.os
  && Piecewise.points a.or_ = Piecewise.points b.or_
