(** Validation of the Chrome trace-event JSON {!Obs.Trace} emits, used
    by the [hca tracecheck] CLI and the test suite.  The file is read
    with {!Hca_util.Json}, and the checks hold for any trace-event
    file, not just our own output. *)

type stats = {
  events : int;  (** total entries in ["traceEvents"] *)
  tracks : (int * int) list;  (** completed span count per tid *)
  span_names : (string * int) list;  (** completed span count per name *)
}

val validate : string -> (stats, string) result
(** Checks that [s] parses, has a ["traceEvents"] array whose entries
    are objects with a ["ph"] string (and ["ts"]/["tid"] where the
    phase requires them), and that every track's "B"/"E" events are
    balanced and properly nested. *)

val validate_file : string -> (stats, string) result
