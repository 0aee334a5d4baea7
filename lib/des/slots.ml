type 'a t = {
  expected : int;
  fill : 'a;
  mutable keys : int array;  (* -1 = free *)
  mutable values : 'a array;
  mutable used : int;
}

let create ~keys fill = { expected = keys; fill; keys = [||]; values = [||]; used = 0 }

(* The slot holding [key], or the free slot that ends its probe. *)
let probe keys key =
  let mask = Array.length keys - 1 in
  let i = ref ((key * 0x9E3779B1) lsr 16 land mask) in
  while keys.(!i) <> key && keys.(!i) >= 0 do i := (!i + 1) land mask done;
  !i

let find t key =
  if t.used = 0 then t.fill
  else
    let i = probe t.keys key in
    if t.keys.(i) = key then t.values.(i) else t.fill

let rec slot t key =
  let cap = Array.length t.keys in
  if 4 * t.used >= 3 * cap then begin
    let keys = t.keys and values = t.values in
    let rec first c = if 3 * c >= 4 * t.expected || c >= 256 then c else first (2 * c) in
    let cap = if cap = 0 then first 8 else 2 * cap in
    t.keys <- Array.make cap (-1);
    t.values <- Array.make cap t.fill;
    t.used <- 0;
    Array.iteri (fun j k -> if k >= 0 then t.values.(slot t k) <- values.(j)) keys
  end;
  let i = probe t.keys key in
  if t.keys.(i) < 0 then begin
    t.keys.(i) <- key;
    t.used <- t.used + 1
  end;
  i

let get t i = t.values.(i)
let set t i v = t.values.(i) <- v
