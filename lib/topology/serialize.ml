module Params = Gridb_plogp.Params
module Piecewise = Gridb_plogp.Piecewise

let gap_to_string params =
  Piecewise.points (Params.gap_table params)
  |> List.map (fun (s, v) -> Printf.sprintf "%d:%.17g" s v)
  |> String.concat ","

let params_to_string p =
  Printf.sprintf "L %.17g G %s" (Params.latency p) (gap_to_string p)

let to_string grid =
  let buf = Buffer.create 4096 in
  let n = Grid.size grid in
  Buffer.add_string buf (Printf.sprintf "grid %d\n" n);
  for c = 0 to n - 1 do
    let cl = Grid.cluster grid c in
    Buffer.add_string buf
      (Printf.sprintf "cluster %d %s %d %s\n" c
         (String.map (fun ch -> if ch = ' ' then '_' else ch) cl.Cluster.name)
         cl.Cluster.size
         (params_to_string cl.Cluster.intra))
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        Buffer.add_string buf
          (Printf.sprintf "link %d %d %s\n" i j (params_to_string (Grid.link grid i j)))
    done
  done;
  Buffer.contents buf

exception Parse_error of string

let parse_gap_points s =
  String.split_on_char ',' s
  |> List.map (fun pair ->
         match String.split_on_char ':' pair with
         | [ size; value ] -> (
             match (int_of_string_opt size, float_of_string_opt value) with
             | Some s, Some v -> (s, v)
             | _ -> raise (Parse_error ("bad gap point " ^ pair)))
         | _ -> raise (Parse_error ("bad gap point " ^ pair)))

(* NaN, infinite and negative values are rejected by [Params.v] and
   [Piecewise.of_points]; their [Invalid_argument] becomes a parse error
   naming the line. *)
let parse_params ln = function
  | "L" :: lat :: "G" :: gap :: [] -> (
      match float_of_string_opt lat with
      | None -> raise (Parse_error (Printf.sprintf "line %d: bad latency %s" ln lat))
      | Some latency -> (
          let gap = parse_gap_points gap in
          try Params.v ~latency ~gap:(Piecewise.of_points gap) ()
          with Invalid_argument reason ->
            raise (Parse_error (Printf.sprintf "line %d: %s" ln reason))))
  | toks -> raise (Parse_error ("bad parameter list: " ^ String.concat " " toks))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let relevant =
    List.mapi (fun i l -> (i + 1, String.trim l)) lines
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  try
    match relevant with
    | [] -> Error "empty topology"
    | (ln, first) :: rest ->
        let n =
          match String.split_on_char ' ' first with
          | [ "grid"; n ] -> (
              match int_of_string_opt n with
              (* n cluster lines and n(n-1) link lines must follow; checked
                 before allocating, so a forged size cannot ask for n^2
                 cells of memory *)
              | Some n when n > 0 && n <= List.length rest && n * n <= List.length rest ->
                  n
              | Some n when n > 0 ->
                  raise
                    (Parse_error
                       (Printf.sprintf "line %d: grid %d needs %d^2 directive lines, found %d"
                          ln n n (List.length rest)))
              | _ -> raise (Parse_error (Printf.sprintf "line %d: bad grid size" ln)))
          | _ -> raise (Parse_error (Printf.sprintf "line %d: expected 'grid <n>'" ln))
        in
        let clusters = Array.make n None in
        let links = Array.make_matrix n n None in
        List.iter
          (fun (ln, line) ->
            let toks =
              String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
            in
            match toks with
            | "cluster" :: id :: name :: size :: params -> (
                match (int_of_string_opt id, int_of_string_opt size) with
                | Some id, Some size when id >= 0 && id < n && size >= 1 ->
                    let intra = parse_params ln params in
                    clusters.(id) <- Some (Cluster.v ~id ~name ~size ~intra)
                | _ ->
                    raise (Parse_error (Printf.sprintf "line %d: bad cluster header" ln)))
            | "link" :: i :: j :: params -> (
                match (int_of_string_opt i, int_of_string_opt j) with
                | Some i, Some j when i >= 0 && i < n && j >= 0 && j < n && i <> j ->
                    links.(i).(j) <- Some (parse_params ln params)
                | _ -> raise (Parse_error (Printf.sprintf "line %d: bad link header" ln)))
            | _ -> raise (Parse_error (Printf.sprintf "line %d: unknown directive" ln)))
          rest;
        let cluster_list =
          Array.to_list clusters
          |> List.mapi (fun i c ->
                 match c with
                 | Some c -> c
                 | None -> raise (Parse_error (Printf.sprintf "cluster %d missing" i)))
        in
        let self = Params.linear ~latency:1. ~g0:1. ~bandwidth_mb_s:1000. in
        let inter =
          Array.init n (fun i ->
              Array.init n (fun j ->
                  if i = j then self
                  else
                    match links.(i).(j) with
                    | Some p -> p
                    | None ->
                        raise (Parse_error (Printf.sprintf "link %d -> %d missing" i j))))
        in
        Ok (Grid.v ~clusters:cluster_list ~inter)
  with Parse_error reason -> Error reason

let save path grid =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string grid))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
