(** The repo's one JSON codec: the daemon's wire protocol, every NDJSON
    row the bench, DSE and loadtest drivers emit, the telemetry
    printers of [Hca_obs] and the readers that check them
    ([hca tracecheck], [bench_guard]) all go through this module.

    The repo carries no JSON dependency, so this is a small complete
    parser and printer.  Numbers are [float]s; integral values print
    without a fraction, so ids and counts survive a round trip
    textually unchanged.  Strings are byte strings: the printer
    escapes ['"'], ['\\'] and control bytes and passes every other
    byte (UTF-8 included) through verbatim, so [parse (to_string v)]
    gives back [v] for any finite value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** One JSON value, surrounding whitespace allowed; anything trailing
    is an error (a protocol line holds exactly one value).  Error
    messages carry the byte offset. *)

val to_string : t -> string
(** Compact single-line rendering (the protocol is line-delimited, so
    no embedded newlines — they are escaped inside strings).
    Non-finite numbers print as [null]: JSON has no literal for them. *)

val escape_to : Buffer.t -> string -> unit
(** Appends the body of a JSON string literal for [s] (no surrounding
    quotes) — the one string writer, for printers that stream their
    output into a buffer instead of building a {!t}. *)

val decimals : int -> float -> t
(** [decimals d f] is [Num f] rounded to [d] decimal places: the
    counterpart of a [%.*f] column, for rows that should not carry
    every digit of a measured float. *)

(** {1 Typed accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or a missing key. *)

val str : t -> string option

val num : t -> float option

val int : t -> int option
(** [Num] with integral value. *)

val bool : t -> bool option
