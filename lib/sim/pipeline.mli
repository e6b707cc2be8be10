(** The step after mapping, in one place: expand the winning assignment
    into receives and forwards ({!Hca_core.Postprocess.expand}),
    modulo-schedule the expanded DDG at the final MII with zero-cycle
    copies, then run it on {!Machine_sim} against the {!Interp}
    reference of the original DDG.  The bench experiments, [hca sched],
    [hca simulate], the differential fuzzer and the tests all judge a
    compile by what this returns. *)

open Hca_ddg
open Hca_machine
open Hca_core

type t = {
  expanded : Postprocess.t;
  schedule : Hca_sched.Modulo.schedule;
  stats : Machine_sim.stats;
}

type error =
  | Not_clusterised  (** the report carries no legal assignment *)
  | Unschedulable of string  (** the modulo scheduler gave up *)
  | Diverged of string
      (** the simulated store trace differs from the reference, or the
          simulator caught a dynamic hazard *)

val run :
  ?iterations:int -> Dspfabric.t -> original:Ddg.t -> Report.t -> (t, error) result
(** Runs the pipeline on [report]'s result, simulating [iterations]
    (default 8) loop iterations; [original] is the DDG the report was
    compiled from.  Deterministic: no clock is read. *)

val error_to_string : error -> string
