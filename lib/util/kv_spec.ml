type 'a key = {
  name : string;
  read : 'a -> float -> ('a, string) result;  (* range-check a finite value, set it *)
  print : 'a -> string;
}

let invalid name msg f = Error (Printf.sprintf "%s: %s (got %g)" name msg f)

let float_to_string f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s
    else go (if p = 6 then 15 else p + 1)
  in
  go 6

let key name ~ok ~invalid:msg ~get ~set =
  {
    name;
    read = (fun s f -> if ok f then Ok (set s f) else invalid name msg f);
    print = (fun s -> float_to_string (get s));
  }

(* Every integer up to 2^53 in magnitude is a float, so it reads and
   prints back exactly. *)
let int_key name ~ok ~invalid:msg ~get ~set =
  {
    name;
    read =
      (fun s f ->
        if not (Float.is_integer f && ok f) then invalid name msg f
        else if Float.abs f > 0x1p53 then invalid name "beyond 2^53" f
        else Ok (set s (int_of_float f)));
    print = (fun s -> string_of_int (get s));
  }

let of_string keys ~none str =
  let str = String.trim str in
  let parse_pair acc pair =
    Result.bind acc (fun s ->
        match String.index_opt pair '=' with
        | None -> Error (Printf.sprintf "malformed %S (want key=value)" pair)
        | Some i -> (
            let name = String.trim (String.sub pair 0 i) in
            let value = String.trim (String.sub pair (i + 1) (String.length pair - i - 1)) in
            match float_of_string_opt value with
            | None -> Error (Printf.sprintf "%s: not a number (%S)" name value)
            | Some f when not (Float.is_finite f) ->
                Error (Printf.sprintf "%s: not a finite number (%S)" name value)
            | Some f -> (
                match List.find_opt (fun k -> k.name = name) keys with
                | None ->
                    Error
                      (Printf.sprintf "unknown key %S (known: %s)" name
                         (String.concat ", " (List.map (fun k -> k.name) keys)))
                | Some k -> k.read s f)))
  in
  if str = "" || String.lowercase_ascii str = "none" then Ok none
  else List.fold_left parse_pair (Ok none) (String.split_on_char ',' str)

let to_string keys ~none s =
  match List.filter (fun k -> k.print s <> k.print none) keys with
  | [] -> "none"
  | changed -> String.concat "," (List.map (fun k -> k.name ^ "=" ^ k.print s) changed)
