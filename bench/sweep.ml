(* The driver every bench sweep shares: flags read with Stdlib [Arg] and
   checked at once, cells run through [Util.Pool.mapi_stream] so their
   lines print in index order at any --jobs, and the JSON envelope
   (benchmark, seed, provenance, the sweep's own header lines, the results
   array) written in one place.  A sweep keeps its cells, how one cell
   prints and reads as JSON, and its gates.

   A malformed, non-finite or out-of-range flag value ends the run at once
   with exit 2 and one stderr line naming the flag, instead of an uncaught
   exception or a sweep over an empty or NaN-filled grid. *)

let refuse flag fmt =
  Printf.ksprintf
    (fun reason ->
      Printf.eprintf "%s: option '%s': %s\n%!"
        (Filename.basename Sys.executable_name)
        flag reason;
      exit 2)
    fmt

(* One [Arg] entry per spelling of a flag, each reading its value through
   [read flag]; the doc names the default. *)
let spec keys doc show read r =
  List.map
    (fun k ->
      let doc = Printf.sprintf "%s (default %s)" doc (show !r) in
      (k, Arg.String (fun v -> r := read k v), doc))
    keys

let int ?(min = min_int) keys doc r =
  spec keys doc string_of_int
    (fun flag v ->
      match int_of_string_opt v with
      | None -> refuse flag "expected an integer, got %S" v
      | Some i when i < min -> refuse flag "must be at least %d, got %d" min i
      | Some i -> i)
    r

let positive_float keys doc r =
  spec keys doc (Printf.sprintf "%.17g")
    (fun flag v ->
      match float_of_string_opt v with
      | Some x when Float.is_finite x && x > 0. -> x
      | _ -> refuse flag "expected a finite number > 0, got %S" v)
    r

(* [Arg.parse] over [specs]: an unknown option or a stray argument exits 2
   with the usage text, and -help lists the flags. *)
let args specs =
  let exe = Filename.basename Sys.executable_name in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument '%s'" a)))
    (Printf.sprintf "Usage: %s [OPTION]..." exe)

(* The [--max-n] flag of a sweep over the ascending cluster counts [sizes],
   and the sizes it keeps.  A value below the smallest size would leave the
   grid empty, and a gated sweep over no cell passes vacuously, so it is
   refused before any work. *)
let max_n sizes =
  let r = ref (List.fold_left max min_int sizes) in
  ( int ~min:(List.hd sizes) [ "--max-n" ] "N largest cluster count swept" r,
    fun () -> List.filter (fun n -> n <= !r) sizes )

type t = { out : string; seed : int; jobs : int }

(* Reads the flags every sweep shares (-o/--output, --seed, -j/--jobs) and
   the sweep's own [specs]. *)
let parse ~output specs =
  let out = ref output and seed = ref 2006 and jobs = ref 1 in
  args
    (specs
    @ spec [ "-o"; "--output" ] "FILE JSON output" Fun.id (fun _ v -> v) out
    @ int [ "--seed" ] "S base seed" seed
    @ int ~min:1 [ "-j"; "--jobs" ] "J worker domains" jobs);
  { out = !out; seed = !seed; jobs = !jobs }

(* Runs [f] over [cells] on up to [jobs] domains; [print] sees each result
   on the calling domain, in cell order, as soon as every earlier cell is
   done, so the printed lines are the same bytes at any [jobs]. *)
let run ~jobs ~print f cells =
  Array.to_list
    (Gridb_util.Pool.mapi_stream ~jobs
       ~consume:(fun _ r -> print r)
       (fun _ c -> f c)
       (Array.of_list cells))

(* Writes the JSON file by hand (the toolchain has no JSON library, and the
   schema is flat enough not to want one): [header] is (key, JSON value)
   lines placed between the provenance stamp and the results, and [cell]
   gives one result's JSON object, without a trailing newline. *)
let write t ~benchmark ~header ~cell results =
  let buf = Buffer.create 8_192 in
  Printf.bprintf buf "{\n  \"benchmark\": %S,\n  \"seed\": %d,\n  %s,\n" benchmark t.seed
    (Gridb_util.Provenance.json_fields ~jobs:t.jobs);
  List.iter (fun (k, v) -> Printf.bprintf buf "  %S: %s,\n" k v) header;
  Buffer.add_string buf "  \"results\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i r -> Printf.bprintf buf "%s%s\n" (cell r) (if i = last then "" else ","))
    results;
  Buffer.add_string buf "]\n}\n";
  let oc = open_out t.out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s (%d cells)\n" t.out (List.length results)
