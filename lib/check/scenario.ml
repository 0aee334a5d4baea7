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
let seg_seed t = t.seed lxor 0x736567 (* "seg" *)

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

module Json = Gridb_util.Flat_json

let to_json ?(extra = []) t =
  Json.obj
    Json.(
      [
        S ("format", format_tag); I ("seed", t.seed); I ("n", t.n); I ("msg", t.msg);
        I ("root", t.root); S ("policy", t.policy); S ("transport", t.transport);
        S ("faults", t.faults); S ("dynamics", t.dynamics);
      ]
      @ List.map (fun (k, v) -> S (k, v)) extra)

let pp ppf t = Format.pp_print_string ppf (to_json t)

let of_json line =
  match Json.parse_fields (String.trim line) with
  | exception Json.Bad msg -> Error msg
  | fields -> (
      let geti = Json.geti fields and gets = Json.gets fields in
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
              (* Optional so reproducers written before the field
                 existed still load; a pre-dynamics scenario is one with
                 no dynamics. *)
              dynamics =
                (if List.mem_assoc "dynamics" fields then gets "dynamics" else "none");
            }
          in
          if t.n < 1 then Error "n must be >= 1"
          else if t.msg < 1 then Error "msg must be >= 1"
          else if t.root < 0 || t.root >= t.n then
            Error (Printf.sprintf "root %d out of range for n = %d" t.root t.n)
          else Ok t
      with Json.Bad msg -> Error msg)

let string_field ~key line =
  match Json.parse_fields (String.trim line) with
  | exception Json.Bad _ -> None
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
