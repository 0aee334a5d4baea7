module Rng = Gridb_util.Rng

type t = {
  seed : int;
  n : int;
  msg : int;
  root : int;
  policy : string;
  transport : string;
  faults : string;
  dynamics : string;
}

let equal (a : t) (b : t) = a = b

let format_tag = "gridsched-check/1"

(* --- generation -------------------------------------------------------- *)

(* The registry's own name table plus one Mixed form, so the menu can
   never drift from what {!Gridb_sched.Policy.by_name} resolves.  The
   Mixed entry stays last: the menu's order and length feed [Rng.pick],
   and this layout reproduces the historical scenario stream exactly. *)
let policy_menu =
  Array.of_list (Gridb_sched.Policy.names @ [ "Mixed<ECEF-LA|ECEF-LAT@10>" ])

let transports = [| "fixed"; "adaptive"; "adaptive,reroute" |]

(* "none" with probability 1/2, so both branches of the pipeline stay hot. *)
let fault_menu =
  [|
    "none"; "none"; "none"; "none";
    "loss=0.05"; "loss=0.2"; "crash=2e-8";
    "loss=0.1,degrade=1e-7,degrade-factor=4";
  |]

(* Same shape as the fault menu: "none" half the time so the static
   pipeline stays the hot path, then drift-only, churn-only and combined
   cells, with rates sized for the ~1e6-us horizons of Table-2 grids. *)
let dynamics_menu =
  [|
    "none"; "none"; "none"; "none";
    "drift=2e-5,load-off=0";
    "drift=1e-4,drift-sigma=0.5";
    "churn=1e-7";
    "drift=2e-5,churn=5e-8,recluster=2e5";
  |]

let sizes = [| 10_000; 65_536; 250_000; 1_000_000 |]

let generate rng =
  let n = Rng.int_in rng 2 8 in
  {
    seed = Rng.int rng 1_000_000;
    n;
    msg = Rng.pick rng sizes;
    root = Rng.int rng n;
    policy = Rng.pick rng policy_menu;
    transport = Rng.pick rng transports;
    faults = Rng.pick rng fault_menu;
    dynamics = Rng.pick rng dynamics_menu;
  }

(* --- derived pipeline inputs ------------------------------------------- *)

(* Distinct xor tags keep the topology, fault and permutation streams
   independent while everything still derives from the one recorded seed. *)
let grid_seed t = t.seed lxor 0x67726964 (* "grid" *)
let fault_seed t = t.seed lxor 0x666c74 (* "flt" *)
let perm_seed t = t.seed lxor 0x7065726d (* "perm" *)
let dyn_seed t = t.seed lxor 0x64796e (* "dyn" *)
let service_seed t = t.seed lxor 0x737663 (* "svc" *)
let chaos_seed t = t.seed lxor 0x63686173 (* "chas" *)
let opt_seed t = t.seed lxor 0x6f7074 (* "opt" *)

let grid t =
  let spec =
    { Gridb_topology.Generators.default_random_spec with cluster_size = (1, 8) }
  in
  Gridb_topology.Generators.uniform_random
    ~rng:(Rng.create (grid_seed t))
    ~n:t.n spec

let policy t =
  match Gridb_sched.Policy.by_name t.policy with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown policy %S" t.policy)

let transport t = Gridb_des.Session.transport_of_string t.transport
let faults_spec t = Gridb_des.Faults.of_string t.faults
let dynamics_spec t = Gridb_des.Dynamics.of_string t.dynamics

(* --- codec ------------------------------------------------------------- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_json ?(extra = []) t =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"format\":%S" format_tag;
  Printf.bprintf buf ",\"seed\":%d,\"n\":%d,\"msg\":%d,\"root\":%d" t.seed t.n
    t.msg t.root;
  let str k v =
    Printf.bprintf buf ",%S:" k;
    add_string buf v
  in
  str "policy" t.policy;
  str "transport" t.transport;
  str "faults" t.faults;
  str "dynamics" t.dynamics;
  List.iter (fun (k, v) -> str k v) extra;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_json t)

type scalar = Int of int | Float of float | Str of string | Bool of bool

exception Bad of string

(* Same flat one-object grammar as [Gridb_obs.Event]'s reader: string,
   number and boolean values only, no nesting. *)
let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = line.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "truncated escape");
        let e = line.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | '/' -> Buffer.add_char buf '/'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail "bad \\u escape"
            in
            if code > 0xff then fail "\\u escape beyond latin-1"
            else Buffer.add_char buf (Char.chr code)
        | _ -> fail "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_scalar () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('t' | 'f') ->
        if n - !pos >= 4 && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else if n - !pos >= 5 && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && match line.[!pos] with ',' | '}' | ' ' | '\t' -> false | _ -> true
        do
          incr pos
        done;
        let tok = String.sub line start (!pos - start) in
        if tok = "" then fail "empty value";
        (match int_of_string_opt tok with
        | Some i when tok <> "-0" -> Int i
        | _ -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "bad number %S" tok)))
    | None -> fail "missing value"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = Some '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let key =
        skip_ws ();
        parse_string ()
      in
      expect ':';
      let v = parse_scalar () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' -> incr pos
      | Some '}' ->
          incr pos;
          continue := false
      | _ -> fail "expected , or }"
    done
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  List.rev !fields

let of_json line =
  match parse_fields (String.trim line) with
  | exception Bad msg -> Error msg
  | fields -> (
      let geti k =
        match List.assoc_opt k fields with
        | Some (Int i) -> i
        | Some _ -> raise (Bad (Printf.sprintf "field %S: expected int" k))
        | None -> raise (Bad (Printf.sprintf "missing field %S" k))
      in
      let gets k =
        match List.assoc_opt k fields with
        | Some (Str s) -> s
        | Some _ -> raise (Bad (Printf.sprintf "field %S: expected string" k))
        | None -> raise (Bad (Printf.sprintf "missing field %S" k))
      in
      (* Optional so reproducers written before the field existed still
         load; a pre-dynamics scenario is one with no dynamics. *)
      let gets_opt k ~default =
        match List.assoc_opt k fields with
        | Some (Str s) -> s
        | Some _ -> raise (Bad (Printf.sprintf "field %S: expected string" k))
        | None -> default
      in
      try
        let fmt = gets "format" in
        if fmt <> format_tag then
          Error (Printf.sprintf "unsupported format %S (want %S)" fmt format_tag)
        else
          let t =
            {
              seed = geti "seed";
              n = geti "n";
              msg = geti "msg";
              root = geti "root";
              policy = gets "policy";
              transport = gets "transport";
              faults = gets "faults";
              dynamics = gets_opt "dynamics" ~default:"none";
            }
          in
          if t.n < 1 then Error "n must be >= 1"
          else if t.msg < 1 then Error "msg must be >= 1"
          else if t.root < 0 || t.root >= t.n then
            Error (Printf.sprintf "root %d out of range for n = %d" t.root t.n)
          else Ok t
      with Bad msg -> Error msg)

let string_field ~key line =
  match parse_fields (String.trim line) with
  | exception Bad _ -> None
  | fields -> (
      match List.assoc_opt key fields with Some (Str s) -> Some s | _ -> None)

(* --- shrinking --------------------------------------------------------- *)

let shrink_candidates t =
  let clamp_root n root = min root (n - 1) in
  let candidates =
    [
      { t with dynamics = "none" };
      { t with faults = "none" };
      { t with transport = "fixed" };
      { t with policy = "FlatTree" };
      { t with root = 0 };
      { t with n = 2; root = clamp_root 2 t.root };
      { t with n = t.n - 1; root = clamp_root (t.n - 1) t.root };
      { t with msg = 10_000 };
      { t with seed = 0 };
    ]
  in
  List.filter (fun c -> c.n >= 2 && not (equal c t)) candidates
