type t = { sizes : int array; values : float array }

let of_points pts =
  if pts = [] then invalid_arg "Piecewise.of_points: empty list";
  List.iter
    (fun (s, v) ->
      if s < 0 then invalid_arg "Piecewise.of_points: negative size";
      if not (Float.is_finite v) then invalid_arg "Piecewise.of_points: non-finite value";
      if v < 0. then invalid_arg "Piecewise.of_points: negative value")
    pts;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) pts in
  (* Keep the last value for duplicated sizes. *)
  let dedup =
    List.fold_left
      (fun acc (s, v) ->
        match acc with
        | (s', _) :: rest when s' = s -> (s, v) :: rest
        | _ -> (s, v) :: acc)
      [] sorted
    |> List.rev
  in
  {
    sizes = Array.of_list (List.map fst dedup);
    values = Array.of_list (List.map snd dedup);
  }

let linear ~intercept ~slope =
  of_points [ (0, intercept); (1_000_000, intercept +. (slope *. 1_000_000.)) ]

let eval t m =
  if m < 0 then invalid_arg "Piecewise.eval: negative size";
  let n = Array.length t.sizes in
  if n = 1 then t.values.(0)
  else if m <= t.sizes.(0) then t.values.(0)
  else if m >= t.sizes.(n - 1) then begin
    (* Extrapolate with the slope of the last segment. *)
    let s0 = t.sizes.(n - 2) and s1 = t.sizes.(n - 1) in
    let v0 = t.values.(n - 2) and v1 = t.values.(n - 1) in
    let slope = (v1 -. v0) /. float_of_int (s1 - s0) in
    v1 +. (slope *. float_of_int (m - s1))
  end
  else begin
    (* Binary search for the segment containing m, as a loop: a local
       recursive function would be a closure allocated per call.
       Invariant: sizes.(lo) <= m < sizes.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.sizes.(mid) <= m then lo := mid else hi := mid
    done;
    let i = !lo in
    let s0 = t.sizes.(i) and s1 = t.sizes.(i + 1) in
    let v0 = t.values.(i) and v1 = t.values.(i + 1) in
    let w = float_of_int (m - s0) /. float_of_int (s1 - s0) in
    v0 +. (w *. (v1 -. v0))
  end

let points t =
  Array.to_list (Array.mapi (fun i s -> (s, t.values.(i))) t.sizes)

let map f t = { t with values = Array.map f t.values }

let add a b =
  let union =
    List.sort_uniq compare (Array.to_list a.sizes @ Array.to_list b.sizes)
  in
  of_points (List.map (fun s -> (s, eval a s +. eval b s)) union)

let scale k t = map (fun v -> k *. v) t

let is_monotonic t =
  let ok = ref true in
  for i = 1 to Array.length t.values - 1 do
    if t.values.(i) < t.values.(i - 1) then ok := false
  done;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%d->%.3g" s t.values.(i))
    t.sizes;
  Format.fprintf ppf "]@]"
