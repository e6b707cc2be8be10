(** The persistent cross-request memo store: the subproblem cache of
    {!Hca_core.Hierarchy} serialised to disk, so warm caches survive
    daemon restarts.

    Format: a text header — magic line, the invalidation stamp on its
    own line, then the payload's length and MD5 digest — followed by
    the [Marshal]led {!Hca_core.Hierarchy.snapshot}.  The payload is
    verified against the header before it is unmarshalled, so a flipped
    or missing byte is refused instead of crashing the process or
    replaying a corrupt entry.  The stamp (see
    {!Hca_util.Stamp.store_stamp}) ties the file to the exact code tree
    and store format that wrote it: memo entries embed solver-internal
    structures whose meaning drifts with any code change, so a stale
    stamp means the whole file is discarded ([Ok None]), never read.

    Writes are atomic (temp file + [rename]), so a crash mid-flush
    leaves the previous store intact. *)

val format_version : string
(** Fold into the stamp via [Stamp.store_stamp ~extra] so a layout
    change invalidates old files even on the same git tree. *)

val default_stamp : unit -> string
(** [Stamp.store_stamp ~extra:format_version ()]. *)

val save :
  path:string ->
  stamp:string ->
  Hca_core.Hierarchy.snapshot ->
  (int, string) result
(** Atomically replace [path] with the snapshot; returns the number of
    entries written. *)

val load :
  path:string ->
  stamp:string ->
  (Hca_core.Hierarchy.snapshot option, string) result
(** [Ok None] when the file does not exist or carries a different
    stamp (stale — silently start cold); [Error] on a file that exists
    but cannot be a store (bad magic, bad checksum line, payload of the
    wrong length or failing its digest). *)
