module Instance = Gridb_sched.Instance
module State = Gridb_sched.State
module Schedule = Gridb_sched.Schedule

type params = {
  n : int;
  root : int;
  latency : float;
  gap : float;
  intra : float;
}

let close eps a b =
  Float.equal a b
  || (eps > 0. && Float.abs (a -. b) <= eps *. Float.max (Float.abs a) (Float.abs b))

let homogeneous ?(eps = 0.) (inst : Instance.t) =
  let n = inst.Instance.n in
  if n = 1 then
    Some { n; root = inst.Instance.root; latency = 0.; gap = 0.; intra = inst.Instance.intra.(0) }
  else begin
    let l0 = Instance.latency inst 0 1
    and g0 = Instance.gap inst 0 1
    and t0 = inst.Instance.intra.(0) in
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (close eps inst.Instance.intra.(i) t0) then ok := false;
      for j = 0 to n - 1 do
        if i <> j then begin
          if not (close eps (Instance.latency inst i j) l0) then ok := false;
          if not (close eps (Instance.gap inst i j) g0) then ok := false
        end
      done
    done;
    if !ok then Some { n; root = inst.Instance.root; latency = l0; gap = g0; intra = t0 }
    else None
  end

let instance p =
  if p.n < 1 then invalid_arg "Traff.instance: n < 1";
  let mat v =
    Array.init p.n (fun i -> Array.init p.n (fun j -> if i = j then 0. else v))
  in
  Instance.v ~root:p.root ~latency:(mat p.latency) ~gap:(mat p.gap)
    ~intra:(Array.make p.n p.intra)

let informed ~gap ~latency t =
  if gap <= 0. then invalid_arg "Traff.informed: gap must be positive";
  if latency < 0. then invalid_arg "Traff.informed: negative latency";
  let memo = Hashtbl.create 64 in
  let rec go t =
    if t < gap +. latency then 1
    else
      match Hashtbl.find_opt memo t with
      | Some v -> v
      | None ->
          let v = go (t -. gap) + go (t -. gap -. latency) in
          Hashtbl.add memo t v;
          v
  in
  go t

(* Minimal binary min-heap over floats: the event queue of the
   keep-every-sender-busy simulation.  Popping the smallest [avail] and
   pushing back [avail + g] (the sender) and [(avail + g) + L] (the new
   coordinator) mirrors exactly what the greedy schedule does through
   [State], with the same association. *)
let last_arrival ~n ~gap ~latency =
  if gap < 0. then invalid_arg "Traff.last_arrival: negative gap";
  if latency < 0. then invalid_arg "Traff.last_arrival: negative latency";
  if n <= 1 then 0.
  else begin
    let heap = Array.make (2 * n) infinity in
    let size = ref 0 in
    let push x =
      let i = ref !size in
      incr size;
      heap.(!i) <- x;
      let continue = ref true in
      while !continue && !i > 0 do
        let p = (!i - 1) / 2 in
        if heap.(p) > heap.(!i) then begin
          let tmp = heap.(p) in
          heap.(p) <- heap.(!i);
          heap.(!i) <- tmp;
          i := p
        end
        else continue := false
      done
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      heap.(0) <- heap.(!size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < !size && heap.(l) < heap.(!m) then m := l;
        if r < !size && heap.(r) < heap.(!m) then m := r;
        if !m <> !i then begin
          let tmp = heap.(!m) in
          heap.(!m) <- heap.(!i);
          heap.(!i) <- tmp;
          i := !m
        end
        else continue := false
      done;
      top
    in
    push 0.;
    let informed = ref 1 in
    let last = ref 0. in
    while !informed < n do
      let s = pop () in
      let sender_free = s +. gap in
      let arrival = sender_free +. latency in
      push sender_free;
      push arrival;
      incr informed;
      last := arrival
    done;
    !last
  end

let makespan p =
  if p.n <= 1 then p.intra
  else last_arrival ~n:p.n ~gap:p.gap ~latency:p.latency +. p.intra

let schedule inst =
  match homogeneous inst with
  | None -> invalid_arg "Traff.schedule: instance is not homogeneous"
  | Some _ ->
      let select st =
        let best = ref (-1) and best_avail = ref infinity in
        State.iter_a st (fun i ->
            let a = State.avail st i in
            if a < !best_avail then begin
              best := i;
              best_avail := a
            end);
        match State.first_b st with
        | Some dst -> (!best, dst)
        | None -> assert false
      in
      State.run select inst
