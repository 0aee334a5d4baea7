let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string cells = String.concat "," (List.map escape cells)

let parse s =
  let n = String.length s in
  let rows = ref [] in
  let row = ref [] in
  let buf = Buffer.create 32 in
  let end_field () =
    row := Buffer.contents buf :: !row;
    Buffer.clear buf
  in
  let end_row () =
    end_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let quoted = ref false in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if !quoted then
      if c = '"' then
        if !i + 1 < n && s.[!i + 1] = '"' then begin
          (* doubled quote inside a quoted field: one literal quote *)
          Buffer.add_char buf '"';
          i := !i + 2
        end
        else begin
          quoted := false;
          incr i
        end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    else begin
      (match c with
      | '"' when Buffer.length buf = 0 -> quoted := true
      | ',' -> end_field ()
      | '\r' when !i + 1 < n && s.[!i + 1] = '\n' ->
          end_row ();
          incr i
      | '\n' | '\r' -> end_row ()
      | c -> Buffer.add_char buf c);
      incr i
    end
  done;
  (* Final record, unless the input ended exactly at a row terminator (a
     trailing newline closes the last record rather than opening an empty
     one). *)
  if Buffer.length buf > 0 || !row <> [] then end_row ();
  List.rev !rows

let rec ensure_directory dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_directory (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write path rows =
  ensure_directory (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun row ->
          output_string oc (row_to_string row);
          output_char oc '\n')
        rows)
