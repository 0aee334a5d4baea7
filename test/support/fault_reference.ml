module Rng = Gridb_util.Rng
module Faults = Gridb_des.Faults

type episodes = {
  drng : Rng.t;
  mutable next : float;  (* start of the first episode not yet drawn *)
  mutable drawn : (float * float) list;  (* (start, stop), latest first *)
}

type t = {
  spec : Faults.spec;
  n : int;
  t0 : float;
  master : Rng.t;
  loss : (int, Rng.t) Hashtbl.t;
  degrade : (int, episodes) Hashtbl.t;
}

let create ?(seed = 0) ?(t0 = 0.) ~n (spec : Faults.spec) =
  let master = Rng.create seed in
  if spec.crash_rate > 0. then
    for _ = 1 to n do ignore (Rng.exponential master spec.crash_rate) done;
  if spec.cut_rate > 0. then
    for idx = 0 to (n * n) - 1 do
      if idx / n <> idx mod n then ignore (Rng.exponential master spec.cut_rate)
    done;
  { spec; n; t0; master; loss = Hashtbl.create 16; degrade = Hashtbl.create 16 }

let stream t ~offset idx =
  Rng.create (Int64.to_int (Rng.bits64_ahead t.master (offset + idx)))

let lose t ~src ~dst =
  let idx = (src * t.n) + dst in
  if t.spec.loss = 0. then false
  else begin
    if not (Hashtbl.mem t.loss idx) then Hashtbl.add t.loss idx (stream t ~offset:0 idx);
    Rng.bernoulli (Hashtbl.find t.loss idx) t.spec.loss
  end

let slowdown t ~src ~dst ~at =
  let idx = (src * t.n) + dst in
  if t.spec.degrade_rate = 0. then 1.
  else begin
    if not (Hashtbl.mem t.degrade idx) then begin
      let offset = if t.spec.loss > 0. then t.n * t.n else 0 in
      let drng = stream t ~offset idx in
      let next = Rng.exponential drng t.spec.degrade_rate in
      Hashtbl.add t.degrade idx { drng; next; drawn = [] }
    end;
    let e = Hashtbl.find t.degrade idx in
    let at = at -. t.t0 in
    while e.next <= at do
      let stop = e.next +. Rng.exponential e.drng (1. /. t.spec.degrade_mean) in
      e.drawn <- (e.next, stop) :: e.drawn;
      e.next <- e.next +. Rng.exponential e.drng t.spec.degrade_rate
    done;
    if List.exists (fun (start, stop) -> start <= at && at < stop) e.drawn then
      t.spec.degrade_factor
    else 1.
  end
