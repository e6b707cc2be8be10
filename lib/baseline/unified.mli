(** The "theoretical optimum computed on an equivalent issue width
    unified bank machine" against which §5 compares the final MII: the
    MII of the kernel on a single cluster holding all 64 CNs worth of
    functional units with a zero-cost register file — no inter-cluster
    copies, no wires, no receive primitives. *)

open Hca_ddg
open Hca_machine

val mii : Ddg.t -> Dspfabric.t -> int
(** [max (rec_mii, res_mii)] with the whole machine's resources pooled. *)

val gap : Ddg.t -> Dspfabric.t -> final_mii:int -> float
(** [final_mii / optimum]: 1.0 means the clusterisation is as good as
    the unified machine. *)
