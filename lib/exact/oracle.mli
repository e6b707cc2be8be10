(** The exact cluster-assignment oracle: provably optimal (or certified
    lower/upper bounded) flat ICA via the incremental CDCL solver.

    The oracle encodes the instance {e once} ({!Encode.make}) and walks
    the cluster-MII bound [k] {e downward} from the heuristic incumbent
    (bisecting only while it has neither an incumbent nor a model),
    each probe a
    [Sat.solve ~assumptions] call against the shared solver: every
    learnt clause, variable activity and saved phase carries from one
    probe to the next, and by monotonicity a single [Unsat] answer at
    the end certifies optimality.  Its result mirrors the
    {!Hca_baseline.Flat_ica.t} record shape so the comparison tables can
    treat both uniformly, plus a [status]:

    - [Optimal]: [final_mii] is the proven optimum — every smaller
      bound was refuted (or the optimum equals iniMII, which nothing
      can beat);
    - [Feasible]: a model exists at [final_mii] but smaller bounds ran
      out of budget before being decided;
    - [Timeout]: the budget expired before any model was found;
    - [Unsat]: the whole capped search range was refuted (only possible
      when [max_ii] caps the range below the instance size).

    Any SEE or cost-function change can be regression-checked against
    the oracle: with the default relaxed encoding the oracle's
    [final_mii] is a certified lower bound on any achievable flat
    projected MII, so [heuristic < oracle] is always a bug. *)

open Hca_ddg
open Hca_machine
open Hca_core

type status = Optimal | Feasible | Timeout | Unsat

(** One "cluster MII ≤ k" solver call, with the {e deltas} of the
    shared solver's cumulative counters — the per-probe cost record
    behind the NDJSON rows and [hca exact] output. *)
type probe = {
  k : int;  (** the probed bound *)
  verdict : Sat.result;
  conflicts : int;
  propagations : int;
  learnt : int;  (** clauses learned during this probe *)
  reused : int;
      (** propagations/conflicts fired by clauses learned in {e earlier}
          probes — the clause-reuse payoff *)
  time_s : float;
}

type t = {
  status : status;
  final_mii : int option;  (** [max iniMII k] of the best model found *)
  lower_bound : int;
      (** certified: no assignment achieves a final MII below this *)
  assignment : int array option;  (** instruction -> CN of the best model *)
  copies : int;  (** inter-CN value hops of the best model *)
  ii_used : int;  (** cluster window of the best model; [0] if none *)
  explored : int;  (** SAT conflicts summed over every probe *)
  propagations : int;  (** unit propagations summed over every probe *)
  reused_hits : int;  (** cross-probe reused-clause hits (see {!probe}) *)
  learnt_total : int;  (** clauses learned across the whole search *)
  probes : probe list;  (** in probe order *)
  runtime_s : float;
  alloc_mb : float;
      (** MB allocated during the search ({!Report.Alloc_meter}) *)
  minor_gcs : int;
  error : string option;
}

val problem_of : Dspfabric.t -> Ddg.t -> Problem.t
(** The same flat K-view {!Hca_baseline.Flat_ica} searches: every CN
    reachable from every other, per-CN port limits only. *)

val run :
  ?strict:bool ->
  ?budget_s:float ->
  ?max_conflicts:int ->
  ?max_ii:int ->
  ?incumbent:int ->
  ?reuse:bool ->
  ?reduce_start:int ->
  ?jobs:int ->
  Dspfabric.t ->
  Ddg.t ->
  t
(** [budget_s] (default [10.]) bounds the whole MII search wall-clock;
    [strict] adds the structural MUX/wire clauses (see {!Encode});
    [max_ii] caps the search range (default: the instance size, whose
    all-on-one-CN assignment is always feasible).

    [incumbent] seeds the walk: the first probe is the incumbent
    (clamped into the open range) instead of the range top.  Pass the
    heuristic's achieved flat MII — in relaxed mode it is always
    satisfiable, so the first probe lands a model immediately and the
    budget is spent tightening, not rediscovering.  A too-low incumbent
    only costs one extra Unsat probe; correctness never depends on it.

    [max_conflicts] bounds each probe's solver by a {e conflict} count
    instead of the wall clock: with [budget_s = infinity] and a
    conflict budget the whole oracle verdict (status, bounds, model)
    is a pure function of the instance — what the differential fuzz
    harness needs so that every printed verdict replays verbatim.

    [reuse] (default [true]) keeps learnt clauses across probes; with
    [reuse = false] the learnt DB is dropped before each probe
    ({!Sat.clear_learnt}) — the control arm of the equivalence property
    tests.  Verdicts and certified bounds are identical either way,
    only the work differs.  [reduce_start] tunes the clause-DB
    reduction trigger (see {!Sat.create}).

    [jobs] is accepted for API compatibility and ignored: the probes of
    one search now share a single solver (that sharing, not probe
    parallelism, is where the PR-8 speedup comes from), so the verdict
    is identical at every [jobs] by construction. *)

val gap : t -> achieved:int -> float option
(** [achieved] over the proven optimum when [status = Optimal], else
    over the certified [lower_bound] — then an upper bound on the true
    gap.  The one gap figure of [hca exact] and the [optgap]
    experiment; [None] when the bound is not positive. *)

val status_to_string : status -> string

val pp : Format.formatter -> t -> unit
