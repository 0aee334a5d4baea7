type time_us = float
type bytes_ = int

let us x = x
let ms x = x *. 1e3
let seconds x = x *. 1e6
let to_seconds t = t /. 1e6

let bytes n = n
let kib n = n * 1024
let mb n = n * 1_000_000

let pp_time ppf t =
  let a = Float.abs t in
  if a >= 1e6 then Format.fprintf ppf "%.3g s" (t /. 1e6)
  else if a >= 1e3 then Format.fprintf ppf "%.3g ms" (t /. 1e3)
  else Format.fprintf ppf "%.3g us" t

let pp_bytes ppf n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then
    Format.fprintf ppf "%d MB" (n / 1_000_000)
  else if n >= 1024 * 1024 && n mod (1024 * 1024) = 0 then
    Format.fprintf ppf "%d MiB" (n / (1024 * 1024))
  else if n >= 1024 && n mod 1024 = 0 then Format.fprintf ppf "%d KiB" (n / 1024)
  else Format.fprintf ppf "%d B" n

let time_to_string t = Format.asprintf "%a" pp_time t
let bytes_to_string n = Format.asprintf "%a" pp_bytes n
