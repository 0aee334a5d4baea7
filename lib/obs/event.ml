type heap_op = Rescore | Drop

type t =
  | Send_start of {
      src : int;
      dst : int;
      time : float;
      msg : int;
      intra : bool;
      try_no : int;
    }
  | Send_end of { src : int; dst : int; time : float; arrival : float }
  | Arrival of { src : int; dst : int; time : float }
  | Ack of { src : int; dst : int; time : float }
  | Retransmit of { src : int; dst : int; time : float; try_no : int; rto : float }
  | Give_up of { src : int; dst : int; time : float }
  | Circuit_open of { src : int; dst : int; time : float }
  | Circuit_close of { src : int; dst : int; time : float }
  | Reroute of { dst : int; old_parent : int; new_parent : int; time : float }
  | Timer_set of { id : int; time : float; fire_at : float }
  | Timer_fire of { id : int; time : float }
  | Timer_cancel of { id : int; time : float }
  | Msg_send of { src : int; dst : int; tag : int; size : int; time : float }
  | Msg_recv of { src : int; dst : int; tag : int; time : float }
  | Recv_timeout of { rank : int; time : float }
  | Policy_round of { round : int; src : int; dst : int }
  | Heap_op of { op : heap_op; receiver : int; sender : int }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Strategy_selected of { name : string; predicted : float }
  | Repair_splice of { crashed : int; replanned : int }
  | Shed of { rid : int; priority : string; reason : string; time : float }
  | Retry of { rid : int; attempt : int; time : float }
  | Deadline_miss of { rid : int; deadline : float; finish : float }
  | Counter of { name : string; value : int }
  | Span_start of { name : string; time : float }
  | Span_end of { name : string; time : float }
  | Tagged of { sid : int; event : t }

let rec untag = function Tagged { event; _ } -> untag event | e -> e
let sid = function Tagged { sid; _ } -> Some sid | _ -> None
let tag ~sid event = Tagged { sid; event = untag event }

(* --- writer ------------------------------------------------------------ *)

open Gridb_util.Flat_json

let heap_op_name = function Rescore -> "rescore" | Drop -> "drop"

(* The "ev" name and the fields of an event's object. *)
let rec fields = function
  | Send_start { src; dst; time; msg; intra; try_no } ->
      ("send_start",
        [ I ("src", src); I ("dst", dst); F ("t", time); I ("msg", msg);
          B ("intra", intra); I ("try", try_no) ])
  | Send_end { src; dst; time; arrival } ->
      ("send_end",
        [ I ("src", src); I ("dst", dst); F ("t", time); F ("arrival", arrival) ])
  | Arrival { src; dst; time } ->
      ("arrival", [ I ("src", src); I ("dst", dst); F ("t", time) ])
  | Ack { src; dst; time } -> ("ack", [ I ("src", src); I ("dst", dst); F ("t", time) ])
  | Retransmit { src; dst; time; try_no; rto } ->
      ("retransmit",
        [ I ("src", src); I ("dst", dst); F ("t", time); I ("try", try_no);
          F ("rto", rto) ])
  | Give_up { src; dst; time } ->
      ("give_up", [ I ("src", src); I ("dst", dst); F ("t", time) ])
  | Circuit_open { src; dst; time } ->
      ("circuit_open", [ I ("src", src); I ("dst", dst); F ("t", time) ])
  | Circuit_close { src; dst; time } ->
      ("circuit_close", [ I ("src", src); I ("dst", dst); F ("t", time) ])
  | Reroute { dst; old_parent; new_parent; time } ->
      ("reroute",
        [ I ("dst", dst); I ("old", old_parent); I ("new", new_parent); F ("t", time) ])
  | Timer_set { id; time; fire_at } ->
      ("timer_set", [ I ("id", id); F ("t", time); F ("fire_at", fire_at) ])
  | Timer_fire { id; time } -> ("timer_fire", [ I ("id", id); F ("t", time) ])
  | Timer_cancel { id; time } -> ("timer_cancel", [ I ("id", id); F ("t", time) ])
  | Msg_send { src; dst; tag; size; time } ->
      ("msg_send",
        [ I ("src", src); I ("dst", dst); I ("tag", tag); I ("size", size); F ("t", time) ])
  | Msg_recv { src; dst; tag; time } ->
      ("msg_recv", [ I ("src", src); I ("dst", dst); I ("tag", tag); F ("t", time) ])
  | Recv_timeout { rank; time } -> ("recv_timeout", [ I ("rank", rank); F ("t", time) ])
  | Policy_round { round; src; dst } ->
      ("policy_round", [ I ("round", round); I ("src", src); I ("dst", dst) ])
  | Heap_op { op; receiver; sender } ->
      ("heap_op",
        [ S ("op", heap_op_name op); I ("receiver", receiver); I ("sender", sender) ])
  | Cache_hit { key } -> ("cache_hit", [ S ("key", key) ])
  | Cache_miss { key } -> ("cache_miss", [ S ("key", key) ])
  | Strategy_selected { name; predicted } ->
      ("strategy_selected", [ S ("name", name); F ("predicted", predicted) ])
  | Repair_splice { crashed; replanned } ->
      ("repair_splice", [ I ("crashed", crashed); I ("replanned", replanned) ])
  | Shed { rid; priority; reason; time } ->
      ("shed",
        [ I ("rid", rid); S ("priority", priority); S ("reason", reason); F ("t", time) ])
  | Retry { rid; attempt; time } ->
      ("retry", [ I ("rid", rid); I ("attempt", attempt); F ("t", time) ])
  | Deadline_miss { rid; deadline; finish } ->
      ("deadline_miss", [ I ("rid", rid); F ("deadline", deadline); F ("finish", finish) ])
  | Counter { name; value } -> ("counter", [ S ("name", name); I ("value", value) ])
  | Span_start { name; time } -> ("span_start", [ S ("name", name); F ("t", time) ])
  | Span_end { name; time } -> ("span_end", [ S ("name", name); F ("t", time) ])
  | Tagged { event; _ } -> fields event

(* A tag rides as one extra flat field after the inner event's own, so the
   reader (and any field-tolerant consumer) sees the same shape plus "sid". *)
let to_json e =
  let ev, fs = fields e in
  let fs = match e with Tagged { sid; _ } -> fs @ [ I ("sid", sid) ] | _ -> fs in
  obj (S ("ev", ev) :: fs)

(* --- reader ------------------------------------------------------------ *)

let of_json line =
  match
    let fields = parse_fields (String.trim line) in
    let i = geti fields and f = getf fields and s = gets fields in
    let wrap event =
      match List.assoc_opt "sid" fields with
      | None -> event
      | Some (Int sid) -> Tagged { sid; event }
      | Some _ -> raise (Bad "field \"sid\": expected int")
    in
    wrap
      (match s "ev" with
      | "send_start" ->
          Send_start
            { src = i "src"; dst = i "dst"; time = f "t"; msg = i "msg";
              intra = getb fields "intra"; try_no = i "try" }
      | "send_end" ->
          Send_end { src = i "src"; dst = i "dst"; time = f "t"; arrival = f "arrival" }
      | "arrival" -> Arrival { src = i "src"; dst = i "dst"; time = f "t" }
      | "ack" -> Ack { src = i "src"; dst = i "dst"; time = f "t" }
      | "retransmit" ->
          Retransmit
            { src = i "src"; dst = i "dst"; time = f "t"; try_no = i "try"; rto = f "rto" }
      | "give_up" -> Give_up { src = i "src"; dst = i "dst"; time = f "t" }
      | "circuit_open" -> Circuit_open { src = i "src"; dst = i "dst"; time = f "t" }
      | "circuit_close" -> Circuit_close { src = i "src"; dst = i "dst"; time = f "t" }
      | "reroute" ->
          Reroute
            { dst = i "dst"; old_parent = i "old"; new_parent = i "new"; time = f "t" }
      | "timer_set" -> Timer_set { id = i "id"; time = f "t"; fire_at = f "fire_at" }
      | "timer_fire" -> Timer_fire { id = i "id"; time = f "t" }
      | "timer_cancel" -> Timer_cancel { id = i "id"; time = f "t" }
      | "msg_send" ->
          Msg_send
            { src = i "src"; dst = i "dst"; tag = i "tag"; size = i "size"; time = f "t" }
      | "msg_recv" -> Msg_recv { src = i "src"; dst = i "dst"; tag = i "tag"; time = f "t" }
      | "recv_timeout" -> Recv_timeout { rank = i "rank"; time = f "t" }
      | "policy_round" -> Policy_round { round = i "round"; src = i "src"; dst = i "dst" }
      | "heap_op" ->
          let op =
            match s "op" with
            | "rescore" -> Rescore
            | "drop" -> Drop
            | other -> raise (Bad (Printf.sprintf "unknown heap op %S" other))
          in
          Heap_op { op; receiver = i "receiver"; sender = i "sender" }
      | "cache_hit" -> Cache_hit { key = s "key" }
      | "cache_miss" -> Cache_miss { key = s "key" }
      | "strategy_selected" ->
          Strategy_selected { name = s "name"; predicted = f "predicted" }
      | "repair_splice" -> Repair_splice { crashed = i "crashed"; replanned = i "replanned" }
      | "shed" ->
          Shed { rid = i "rid"; priority = s "priority"; reason = s "reason"; time = f "t" }
      | "retry" -> Retry { rid = i "rid"; attempt = i "attempt"; time = f "t" }
      | "deadline_miss" ->
          Deadline_miss { rid = i "rid"; deadline = f "deadline"; finish = f "finish" }
      | "counter" -> Counter { name = s "name"; value = i "value" }
      | "span_start" -> Span_start { name = s "name"; time = f "t" }
      | "span_end" -> Span_end { name = s "name"; time = f "t" }
      | other -> raise (Bad (Printf.sprintf "unknown event %S" other)))
  with
  | event -> Ok event
  | exception Bad msg -> Error msg

let pp ppf e = Format.pp_print_string ppf (to_json e)
let equal (a : t) (b : t) = a = b
