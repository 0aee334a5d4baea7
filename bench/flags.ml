(* Checked numeric flag values for the benches.  A malformed,
   non-finite or out-of-range value ends the run at once with exit 2 and
   one stderr line naming the flag, instead of an uncaught exception or a
   sweep over an empty or NaN-filled grid. *)

let refuse flag fmt =
  Printf.ksprintf
    (fun reason ->
      Printf.eprintf "%s: option '%s': %s\n%!"
        (Filename.basename Sys.executable_name)
        flag reason;
      exit 2)
    fmt

let int ?(min = min_int) flag v =
  match int_of_string_opt v with
  | None -> refuse flag "expected an integer, got %S" v
  | Some i when i < min -> refuse flag "must be at least %d, got %d" min i
  | Some i -> i

let positive_float flag v =
  match float_of_string_opt v with
  | Some x when Float.is_finite x && x > 0. -> x
  | _ -> refuse flag "expected a finite number > 0, got %S" v
