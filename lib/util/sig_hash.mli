(** Incremental FNV-1a signature hashing over machine words.

    Used to canonicalise subproblem memo keys, name inline kernels and
    fingerprint search states in the property tests.  A signature is a
    plain [int]: equal structures always hash equal, so a hash mismatch
    proves two structures differ; a hash match proves nothing on its
    own. *)

type t

val create : ?seed:int -> unit -> t

val add_int : t -> int -> unit

val add_bool : t -> bool -> unit

val add_float : t -> float -> unit
(** Hashes the IEEE bit pattern, so signatures distinguish exactly the
    floats that bit-identical search results distinguish. *)

val add_int_list : t -> int list -> unit
(** Length-prefixed, so [[1];[2]] and [[1;2]] never collide. *)

val add_int_array : t -> int array -> unit

val add_string : t -> string -> unit
(** Length-prefixed over the bytes — unlike [Hashtbl.hash], which
    samples a bounded prefix, every byte participates; used to digest
    client-supplied kernel text into a cache-safe name. *)

val value : t -> int
(** The accumulated signature, non-negative. *)

val ints : int list -> int
(** One-shot convenience: signature of an int list. *)
