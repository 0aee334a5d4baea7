module Rng = Gridb_util.Rng
module Instance = Gridb_sched.Instance
module Generators = Gridb_topology.Generators

let feq ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let multiplier =
  lazy
    (match Sys.getenv_opt "QCHECK_COUNT" with
    | None -> 1
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some m when m >= 1 -> m
        | _ -> 1))

let count base = max 1 (base * Lazy.force multiplier)

let random_instance ?(n = 6) seed =
  let rng = Rng.create seed in
  Instance.random ~rng ~n Instance.table2_ranges

let random_grid ?cluster_size ~n seed =
  let spec =
    match cluster_size with
    | None -> Generators.default_random_spec
    | Some range -> { Generators.default_random_spec with cluster_size = range }
  in
  Generators.uniform_random ~rng:(Rng.create seed) ~n spec

let corpus ?(n_range = (2, 12)) ~seed ~count () =
  let rng = Rng.create seed in
  let lo, hi = n_range in
  List.init count (fun _ ->
      let n = Rng.int_in rng lo hi in
      let instance_seed = Rng.int rng 1_000_000 in
      (instance_seed, random_instance ~n instance_seed))

(* Bytes a grammar's separators and numbers are made of, so mutations
   often land on something the parser has to think about. *)
let punctuation = "0123456789.-+eEinfa=,|<>@:{}\"\\ \n"

let fuzz_gen seeds =
  let open QCheck.Gen in
  let byte =
    oneof [ char; oneofl (List.init (String.length punctuation) (String.get punctuation)) ]
  in
  let mutate s =
    let* op = int_bound 2 and* at = int_bound (String.length s) and* c = byte in
    let len = String.length s in
    return
      (match op with
      | 0 when at < len -> String.mapi (fun i x -> if i = at then c else x) s
      | 1 when at < len -> String.sub s 0 at ^ String.sub s (at + 1) (len - at - 1)
      | _ -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (len - at))
  in
  let rec mutations k s = if k = 0 then return s else mutate s >>= mutations (k - 1) in
  oneof
    [
      string_size ~gen:byte (int_bound 64);
      (let* s = oneofl seeds and* k = int_range 1 3 in
       mutations k s);
    ]

let grammar_fuzz ~name ~seeds ?print ?(equal = ( = )) parse =
  let rejected_seed =
    lazy
      (List.find_map
         (fun s -> match parse s with Error e -> Some (s, e) | Ok _ -> None)
         seeds)
  in
  QCheck.Test.make ~name ~count:(count 1000)
    (QCheck.make ~print:(Printf.sprintf "%S") (fuzz_gen seeds))
    (fun input ->
      (match Lazy.force rejected_seed with
      | Some (s, e) -> QCheck.Test.fail_reportf "seed %S rejected: %s" s e
      | None -> ());
      match (parse input, print) with
      | Error _, _ | Ok _, None -> true
      | Ok v, Some print -> (
          let text = print v in
          match parse text with
          | Ok v' when equal v v' -> true
          | Ok _ -> QCheck.Test.fail_reportf "reprint %S reparses to another value" text
          | Error e -> QCheck.Test.fail_reportf "reprint %S rejected: %s" text e))
