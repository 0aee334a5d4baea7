(* --- writer ------------------------------------------------------------ *)

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

type field = I of string * int | F of string * float | S of string * string | B of string * bool

let obj fields =
  let buf = Buffer.create 128 in
  let key i k =
    if i > 0 then Buffer.add_char buf ',';
    add_string buf k;
    Buffer.add_char buf ':'
  in
  Buffer.add_char buf '{';
  List.iteri
    (fun i -> function
      | I (k, v) ->
          key i k;
          Buffer.add_string buf (string_of_int v)
      | F (k, v) ->
          key i k;
          (* %.17g round-trips every finite float64 through float_of_string *)
          Printf.bprintf buf "%.17g" v
      | S (k, v) ->
          key i k;
          add_string buf v
      | B (k, v) ->
          key i k;
          Buffer.add_string buf (string_of_bool v))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- reader ------------------------------------------------------------ *)

type scalar = Int of int | Float of float | Str of string | Bool of bool

exception Bad of string

let parse_fields line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
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
              try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
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
        (* "-0" must stay a float: int_of_string would drop the sign bit *)
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
      let key = (skip_ws (); parse_string ()) in
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

let find fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" k))

let expected k what = raise (Bad (Printf.sprintf "field %S: expected %s" k what))
let geti fields k = match find fields k with Int i -> i | _ -> expected k "int"

let getf fields k =
  match find fields k with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> expected k "number"

let gets fields k = match find fields k with Str s -> s | _ -> expected k "string"
let getb fields k = match find fields k with Bool b -> b | _ -> expected k "bool"
