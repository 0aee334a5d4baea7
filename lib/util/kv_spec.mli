(** The comma-separated [key=value] grammar of the CLI's fault and
    dynamics specs (e.g. ["loss=0.05,crash=2e-8"]), read and printed over
    a table of keys.  Every value is a finite float; every error names
    the key as typed. *)

type 'a key

val key :
  string ->
  ok:(float -> bool) ->
  invalid:string ->
  get:('a -> float) ->
  set:('a -> float -> 'a) ->
  'a key
(** [key name ~ok ~invalid ~get ~set]: values failing [ok] are refused
    with ["name: invalid (got v)"]; values print in {!float_to_string}'s
    form. *)

val int_key :
  string ->
  ok:(float -> bool) ->
  invalid:string ->
  get:('a -> int) ->
  set:('a -> int -> 'a) ->
  'a key
(** As {!key} for an integer field: a non-integer value is refused with
    [invalid] too, one beyond 2^53 in magnitude with
    ["name: beyond 2^53 (got v)"]; values print as decimal integers. *)

val of_string : 'a key list -> none:'a -> string -> ('a, string) result
(** [""] and ["none"] (any case) give [none]; otherwise each pair, left to
    right, sets its key on a copy of [none].  Errors:
    ["malformed \"p\" (want key=value)"], ["k: not a number (\"v\")"],
    ["k: not a finite number (\"v\")"] for NaN and infinities,
    ["unknown key \"k\" (known: …)"] listing the table in order, and the
    key's own range error. *)

val to_string : 'a key list -> none:'a -> 'a -> string
(** The keys whose printed value differs from [none]'s, in table order,
    or ["none"] when there are none, so reading the text back gives the
    same value for every key in the table. *)

val float_to_string : float -> string
(** The first of [%g], [%.15g], [%.16g] and [%.17g] that reads back to
    the same float — [%g]'s text for every value with at most six
    significant digits, exact always. *)
