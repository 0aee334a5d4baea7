type decision = Ride_out | Splice | Replan

let decision_to_string = function
  | Ride_out -> "ride-out"
  | Splice -> "splice"
  | Replan -> "replan"

type thresholds = { drift : float; divergence : float }

let default = { drift = 0.3; divergence = 0.25 }

let v ?(drift = default.drift) ?(divergence = default.divergence) () =
  if not (drift > 0.) then invalid_arg "Replan.v: drift threshold must be positive";
  if not (divergence > 0.) then
    invalid_arg "Replan.v: divergence threshold must be positive";
  { drift; divergence }

let decide thresholds ~drift ~divergence ~departed =
  (* Re-validate so hand-built records cannot smuggle non-positive
     thresholds in (everything would then replan unconditionally). *)
  let thresholds = v ~drift:thresholds.drift ~divergence:thresholds.divergence () in
  if drift >= thresholds.drift || divergence >= thresholds.divergence then Replan
  else if departed > 0 then Splice
  else Ride_out

let fresh ~root ~n =
  if root < 0 || root >= n then invalid_arg "Replan.fresh: root out of range";
  let seed i = if i = root then 0. else infinity in
  {
    Schedule.root;
    n;
    events = [];
    ready = Array.init n seed;
    busy_until = Array.init n seed;
  }

type verdict = {
  delivered : bool array;
  delivered_count : int;
  alive : int;
  stranded : int;
  makespan : float;
}

let evaluate (truth : Instance.t) ~halt (schedule : Schedule.t) =
  let n = truth.Instance.n in
  if Array.length halt <> n then invalid_arg "Replan.evaluate: halt vector size mismatch";
  if schedule.Schedule.n <> n then invalid_arg "Replan.evaluate: schedule size mismatch";
  let delivered = Array.make n false in
  let ready = Array.make n infinity in
  let busy = Array.make n infinity in
  let root = schedule.Schedule.root in
  delivered.(root) <- true;
  ready.(root) <- 0.;
  busy.(root) <- 0.;
  (* Round order is the tree's causal order: a relay's sends are listed
     after the send that delivered to it, so one forward pass re-times the
     whole tree.  The baked-in event times are never read — they are the
     stale quantity under drift. *)
  List.iter
    (fun (e : Schedule.event) ->
      let src = e.Schedule.src and dst = e.Schedule.dst in
      if delivered.(src) then begin
        let start = Float.max ready.(src) busy.(src) in
        if halt.(src) > start then begin
          let g = Instance.gap truth src dst in
          let l = Instance.latency truth src dst in
          busy.(src) <- start +. g;
          let arrival = start +. g +. l in
          if (not delivered.(dst)) && halt.(dst) > arrival then begin
            delivered.(dst) <- true;
            ready.(dst) <- arrival;
            busy.(dst) <- arrival
          end
        end
      end)
    schedule.Schedule.events;
  let delivered_count = ref 0 and alive = ref 0 and stranded = ref 0 in
  let makespan = ref 0. in
  for c = 0 to n - 1 do
    if delivered.(c) then begin
      incr delivered_count;
      makespan := Float.max !makespan (busy.(c) +. truth.Instance.intra.(c))
    end;
    (* Alive means the cluster outlived its (re-timed) service horizon —
       for the accounting, any finite halt is a departure. *)
    if halt.(c) = infinity then begin
      incr alive;
      if not delivered.(c) then incr stranded
    end
  done;
  {
    delivered;
    delivered_count = !delivered_count;
    alive = !alive;
    stranded = !stranded;
    makespan = !makespan;
  }
