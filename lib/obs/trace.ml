type transmission = {
  sid : int option;
  src : int;
  dst : int;
  start : float;
  gap_end : float;
  arrival : float;
  msg : int;
  intra : bool;
  try_no : int;
}

type fault = Started_twice | End_without_start | Start_without_end
type unpaired = { fault : fault; link : int option * int * int }
type t = { transmissions : transmission list; unpaired : unpaired list }

let of_events events =
  (* The session layer publishes a transmission's start and end back to
     back, but pairing by (sid, directed link) keeps this robust to
     interleaved streams (several links or sessions in flight at once).
     An open start remembers its stream position so starts that never end
     are reported in stream order. *)
  let open_start : (int option * int * int, int * transmission) Hashtbl.t =
    Hashtbl.create 64
  in
  let sent = ref [] and unpaired = ref [] in
  List.iteri
    (fun pos e ->
      let sid = Event.sid e in
      match Event.untag e with
      | Event.Send_start { src; dst; time; msg; intra; try_no } ->
          let link = (sid, src, dst) in
          if Hashtbl.mem open_start link then
            unpaired := { fault = Started_twice; link } :: !unpaired;
          Hashtbl.replace open_start link
            ( pos,
              { sid; src; dst; start = time; gap_end = nan; arrival = nan; msg; intra;
                try_no } )
      | Event.Send_end { src; dst; time; arrival } -> (
          let link = (sid, src, dst) in
          match Hashtbl.find_opt open_start link with
          | Some (_, t) ->
              Hashtbl.remove open_start link;
              sent := { t with gap_end = time; arrival } :: !sent
          | None -> unpaired := { fault = End_without_start; link } :: !unpaired)
      | _ -> ())
    events;
  let never_ended =
    Hashtbl.fold (fun link (pos, _) acc -> (pos, link) :: acc) open_start []
    |> List.sort compare
    |> List.map (fun (_, link) -> { fault = Start_without_end; link })
  in
  { transmissions = List.rev !sent; unpaired = List.rev_append !unpaired never_ended }

let describe { fault; link = sid, src, dst } =
  Printf.sprintf "%ssend %d -> %d %s"
    (match sid with None -> "" | Some s -> Printf.sprintf "session %d: " s)
    src dst
    (match fault with
    | Started_twice -> "started twice without ending"
    | End_without_start -> "ends without a start"
    | Start_without_end -> "has a start but no end")

let sender_busy_time trace =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl t.src) in
      Hashtbl.replace tbl t.src (prev +. (t.gap_end -. t.start)))
    trace;
  Hashtbl.fold (fun rank busy acc -> (rank, busy) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let busiest_sender trace =
  match sender_busy_time trace with [] -> None | top :: _ -> Some top

let critical_path trace =
  match trace with
  | [] -> []
  | _ ->
      let last =
        List.fold_left (fun acc t -> if t.arrival > acc.arrival then t else acc)
          (List.hd trace) trace
      in
      (* Walk back: the hop that delivered to the current hop's sender. *)
      let rec back hop acc =
        match List.find_opt (fun t -> t.dst = hop.src) trace with
        | Some prev -> back prev (hop :: acc)
        | None -> hop :: acc
      in
      back last []

let total_bytes trace = List.fold_left (fun acc t -> acc + t.msg) 0 trace
