(** A partial solution of the Space Exploration Engine: the node of the
    exploration space of Fig. 5.

    A state owns a placement map (problem node -> PG node), the copy
    flow routed so far, per-cluster demand accumulators, and the list of
    detour forwards the Route Allocator has injected.  Moving from one
    partial solution to another ({!try_assign}) clones the state, so
    siblings in the beam never alias. *)

open Hca_ddg
open Hca_machine

type t

val create : ?backbone:(Pattern_graph.node_id * Pattern_graph.node_id) list -> Problem.t -> t
(** Fresh state with the port pseudo nodes already pinned to their PG
    nodes.  [backbone] arcs get their in-neighbour slots pre-committed
    ({!Hca_machine.Copy_flow.reserve_neighbor}): the leaf quads use a
    ring so that any value can always reach any CN by forwarding. *)

val problem : t -> Problem.t

val clone : t -> t

(** {1 Placement} *)

val placement : t -> int -> Pattern_graph.node_id option

val is_complete : t -> bool

val assigned_count : t -> int

val try_assign :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  target_ii:int ->
  weights:Cost.weights ->
  (t, string) result
(** [isAssignable] + move: checks the resource table of [cluster] under
    the capacity window [ii], routes the copies towards/from every
    already-placed neighbour of [node] (same-cluster neighbours need
    none), and returns the successor state with its cost updated.
    [target_ii] is the II the objective function aims at — usually the
    kernel's iniMII, which may be below the capacity window when the
    driver had to relax [ii] for feasibility.  The input state is not
    modified. *)

val score_moves :
  t ->
  node:int ->
  clusters:int array ->
  ii:int ->
  target_ii:int ->
  weights:Cost.weights ->
  tail_of_region:int ->
  scores:float array ->
  int
(** Batched frontier scoring: evaluates the move of [node] to every
    cluster of [clusters] in one pass over the state's flat arrays,
    reusing the preallocated speculation arena per candidate instead
    of allocating an undo record each.  [scores.(k)] receives the
    {!cost} the state would have after the move to [clusters.(k)] —
    including the SEE's region-tear penalty for [tail_of_region]
    remaining region nodes — or [nan] when the move is infeasible
    (non-regular target, resource table exhausted, or no communication
    pattern).  Returns the number of feasible moves.  The state is
    restored bit for bit between candidates and before returning, and
    each score is bit-identical to the {!cost} of the {!try_assign}
    successor plus that tear penalty (property tested: the scoring
    arithmetic is shared, not duplicated).  It is not allocation-free: metered with
    [Gc.minor_words] on the perfbench [compile] gated set (one pass,
    14 kernels), 212,674 calls scoring 850,696 candidate clusters
    allocated 53.2 MB, about 31 words per call (8 per candidate), 4%
    of the pass.  Most of the old 186 MB (92 words per call) was the
    flow's speculation trail, grown afresh on every new beam state
    until {!Copy_flow} pooled its arenas per domain.
    @raise Invalid_argument when a {!probe_force} is in flight or
    [node] is already assigned. *)

val probe_force :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  ((Instr.id * Pattern_graph.node_id * Pattern_graph.node_id) list, string)
  result
(** Trail-based feasibility twin of {!force_assign}: applies the move
    and the direct-arc routing to [t] itself under a flow mark and
    returns the same blocked triples the clone path would, without
    cloning and without touching the cost caches.  On [Ok] the move is
    left applied so the Route Allocator can detour the blocked values
    on [t] ({!add_forward} / [Copy_flow.add_copy] route under the open
    mark); {!abort_force} then rewinds everything — detour forwards
    included — bit for bit.  On [Error] the state is untouched.  The
    Route Allocator probes every attempt this way and replays only the
    successful ones through {!force_assign}, so the ~80% of fallback
    attempts with no feasible detour never pay a clone.
    @raise Invalid_argument when a probe is already in flight. *)

val commit_probe : t -> target_ii:int -> weights:Cost.weights -> t
(** Materialises a successful {!probe_force} as a fresh successor
    state: copies the per-state structures exactly as they stand (move,
    direct arcs and detours applied) and re-scores from scratch — the
    same [recompute_cost] the Route Allocator's commit always ran, so
    the result is bit-identical to replaying the attempt through
    {!force_assign} on a clone.  [t] still carries the in-flight probe;
    call {!abort_force} afterwards to rewind it (the snapshot shares
    nothing mutable, so the rewind cannot disturb it).
    @raise Invalid_argument when no probe is in flight. *)

val abort_force : t -> unit
(** Rewinds an [Ok] {!probe_force}, including any detours routed since.
    @raise Invalid_argument when none is in flight. *)

val force_assign :
  t ->
  node:int ->
  cluster:Pattern_graph.node_id ->
  ii:int ->
  (t * (Instr.id * Pattern_graph.node_id * Pattern_graph.node_id) list, string)
  result
(** Like {!try_assign} but a direct arc that cannot be added does not
    fail the move: the blocked [(value, src, dst)] triples are returned
    for the Route Allocator to detour.  Resource exhaustion still
    fails.  The cost of the returned state is {e not} final until the
    router commits or rejects the detours. *)

val add_forward : t -> value:Instr.id -> via:Pattern_graph.node_id -> unit
(** Route-Allocator hook: accounts one forwarding move (one ALU slot) on
    [via] and records it.  The caller checks capacity against its target
    II before committing. *)

val forwards : t -> (Instr.id * Pattern_graph.node_id) list
(** Detour forwards injected by the Route Allocator, newest first. *)

(** {1 Views} *)

val flow : t -> Copy_flow.t

val demand : t -> Pattern_graph.node_id -> Resource.t

val can_host_forward : t -> via:Pattern_graph.node_id -> ii:int -> bool
(** Would [via] still fit its resource table under the window [ii]
    after one extra forwarding ALU slot?  Exactly
    [Resource.fits ~demand:(add (demand t via) {alus = 1; ags = 0})]
    against [via]'s capacity, plus the regular-node check, evaluated on
    the flat demand arrays: the Route Allocator's BFS asks this per
    visited node and must not allocate records. *)

val cluster_nodes : t -> Pattern_graph.node_id -> int list
(** Problem nodes placed on a cluster, id ascending.  Derived from the
    placement array on demand (O(problem size)): only diagnostics read
    it, so states carry no reverse index for the probe loop to maintain,
    clone and rewind. *)

val summary : t -> ii:int -> Cost.summary

val cost : t -> float
(** Cached {!Cost.score} of the current partial solution, plus the
    accumulated search penalties ({!add_penalty}). *)

val add_penalty : t -> float -> unit
(** Permanently worsens this state's cost: used by the SEE for
    lookahead terms (e.g. region tearing) that the per-state summary
    cannot see. *)

val free_issue_slots : t -> cluster:Pattern_graph.node_id -> ii:int -> int
(** Remaining issue capacity of a cluster under the window [ii]. *)

val signature : t -> int
(** Hash over placement, flow, forwards and the bit-exact cost terms:
    two states with different signatures are guaranteed different.  A
    property-test oracle next to {!debug_identical}. *)

val debug_identical : t -> t -> bool
(** Structural identity of two partial solutions (same placement,
    routed flow, forwards, carried cuts and bit-equal cost terms) plus
    every derived structure and incremental-cost cache — the
    property-test oracle for scoring and probe round trips. *)

val recompute_cost : t -> target_ii:int -> weights:Cost.weights -> unit
(** From-scratch reference: rebuilds every per-cluster cost
    contribution and re-scores.  {!try_assign} instead refreshes only
    the clusters a move touched; the two agree bit for bit (property
    tested), the incremental path just skips the untouched clusters. *)

val pp : Format.formatter -> t -> unit
