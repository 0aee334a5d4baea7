let parse_cell ~line_number cell =
  let cell = String.trim cell in
  if cell = "" || cell = "-" then Ok 0.
  else
    match float_of_string_opt cell with
    | Some v when Float.is_finite v -> Ok v
    | Some _ -> Error (Printf.sprintf "line %d: not a finite number: %S" line_number cell)
    | None -> Error (Printf.sprintf "line %d: not a number: %S" line_number cell)

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let rec parse_rows acc = function
    | [] -> Ok (List.rev acc)
    | (line_number, line) :: rest -> (
        let cells = String.split_on_char ',' line in
        let rec parse_cells acc = function
          | [] -> Ok (List.rev acc)
          | c :: cs -> (
              match parse_cell ~line_number c with
              | Ok v -> parse_cells (v :: acc) cs
              | Error e -> Error e)
        in
        match parse_cells [] cells with
        | Ok row -> parse_rows (Array.of_list row :: acc) rest
        | Error e -> Error e)
  in
  match parse_rows [] lines with
  | Error e -> Error e
  | Ok [] -> Error "empty matrix"
  | Ok rows ->
      let n = List.length rows in
      let matrix = Array.of_list rows in
      if Array.exists (fun row -> Array.length row <> n) matrix then
        Error
          (Printf.sprintf "matrix is not square: %d rows but some row differs in width" n)
      else Ok matrix

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let save path matrix =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun row ->
          output_string oc
            (String.concat ","
               (Array.to_list (Array.map (Printf.sprintf "%.6g") row)));
          output_char oc '\n')
        matrix)

let validate ?(require_symmetric = true) matrix =
  let n = Array.length matrix in
  if n = 0 then Error "empty matrix"
  else if Array.exists (fun row -> Array.length row <> n) matrix then
    Error "matrix is not square"
  else begin
    let problem = ref None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if !problem = None then begin
          if not (Float.is_finite matrix.(i).(j)) then
            problem := Some (Printf.sprintf "non-finite latency at (%d, %d)" i j)
          else if matrix.(i).(j) < 0. then
            problem := Some (Printf.sprintf "negative latency at (%d, %d)" i j)
          else if require_symmetric && i < j then begin
            let a = matrix.(i).(j) and b = matrix.(j).(i) in
            let scale = Float.max a b in
            if scale > 0. && Float.abs (a -. b) /. scale > 0.01 then
              problem :=
                Some
                  (Printf.sprintf "asymmetric beyond 1%% at (%d, %d): %g vs %g" i j a b)
          end
        end
      done
    done;
    match !problem with None -> Ok () | Some p -> Error p
  end
