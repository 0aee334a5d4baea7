module Params = Gridb_plogp.Params

let segment_count ~msg ~segments =
  if segments < 1 then invalid_arg "Pipeline.segment_count: segments < 1";
  min segments (max 1 msg)

let segment_size ~msg ~segments =
  if segments < 1 then invalid_arg "Pipeline.segment_size: segments < 1";
  let segments = segment_count ~msg ~segments in
  (msg + segments - 1) / segments

let chain_time ~params ~size ~msg ~segments =
  if segments < 1 then invalid_arg "Pipeline.chain_time: segments < 1";
  if size <= 1 then 0.
  else begin
    let seg_size = segment_size ~msg ~segments in
    let segments = segment_count ~msg ~segments in
    let g = Params.gap params seg_size and l = Params.latency params in
    (float_of_int (segments + size - 2) *. g) +. (float_of_int (size - 1) *. l)
  end

let default_candidates = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let best_segments ?(candidates = default_candidates) ~params ~size ~msg () =
  let eval s = (s, chain_time ~params ~size ~msg ~segments:s) in
  match List.map eval candidates with
  | [] -> invalid_arg "Pipeline.best_segments: no candidates"
  | first :: rest ->
      List.fold_left
        (fun (bs, bt) (s, t) -> if t < bt then (s, t) else (bs, bt))
        first rest
