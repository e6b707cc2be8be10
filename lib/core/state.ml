open Hca_machine

(* Flat data layout: everything the per-probe hot path reads lives in
   int/float arrays indexed by PG node id — no [Resource.t] records, no
   per-cluster lists, no boxed floats.  The speculation bookkeeping is
   a preallocated arena (mark/rewind), so an apply/score/undo round
   trip allocates nothing once the arena is warm. *)
type t = {
  problem : Problem.t;
  (* Immutable per-problem caches, shared across clones. *)
  pg_n : int;
  max_in : int;
  regs : int array;  (* regular PG node ids, ascending *)
  is_reg : Bytes.t;  (* per PG node: regular-cluster flag *)
  cap_alus : int array;  (* per PG node capacity components *)
  cap_ags : int array;
  slots_sum : int array;  (* cap alus + ags: the utilisation divisor *)
  slots_issue : int array;  (* max cap alus ags: the issue window *)
  scc : int array;
  (* Per-state solution. *)
  place : int array;  (* problem node -> PG node, -1 when unassigned *)
  flow : Copy_flow.t;
  dem_alus : int array;  (* per-cluster demand, struct-of-arrays *)
  dem_ags : int array;
  fwd_val : int Hca_util.Vec.t;  (* Route-Allocator forwards, push order *)
  fwd_via : int Hca_util.Vec.t;
  mutable carried_cuts : int;
  (* [0] = cached score; [1] = accumulated penalties.  A flat float
     array so the hot-path stores never box. *)
  fl : float array;
  mutable assigned : int;
  (* Per-cluster cost contributions, valid for the window [cache_ii]
     (-1 = stale).  A move touches at most a handful of clusters, so
     [try_assign] refreshes only those instead of re-walking every PG
     regular node per candidate. *)
  node_util : float array;
  node_proj : int array;
  node_fanin : float array;
  mutable cache_ii : int;
  (* In-flight speculative move, if any: the undo scalars live on the
     state, the array-shaped undo trail in the checked-out [scr]
     arena. *)
  mutable sp_active : bool;
  mutable sp_node : int;
  mutable sp_cluster : int;
  mutable sp_dem_alus : int;
  mutable sp_dem_ags : int;
  mutable sp_carried : int;
  mutable sp_cache_ii : int;
  mutable sp_fmark : Copy_flow.mark;
  mutable sp_fwd_len : int;  (* forwards count at [probe_force] time *)
  mutable scr : scratch option;
}

(* The array-shaped speculation arena: preallocated, pooled per domain
   and checked out for the duration of one probe (or one in-flight
   speculation), so the SEE's clones — one per beam survivor — carry
   no scratch arrays at all. *)
and scratch = {
  mutable cap : int;  (* arrays sized for PGs up to this many nodes *)
  mutable spf : float array;  (* [0]/[1]: saved [fl] slots *)
  (* Deduplicated regular clusters the move mutated, with the pre-move
     contribution of each recorded at its arena slot.  [tmask] is the
     membership bitset that makes the dedup O(1). *)
  mutable touched : int array;
  mutable touched_len : int;
  mutable tmask : Hca_util.Bitset.t;
  mutable tr_util : float array;
  mutable tr_proj : int array;
  mutable tr_fanin : float array;
  (* Full-array snapshot for the (cold) move that had to
     [refresh_all]. *)
  mutable sp_full : bool;
  mutable full_util : float array;
  mutable full_proj : int array;
  mutable full_fanin : float array;
}

let grow_scratch s cap =
  s.cap <- cap;
  s.spf <- Array.make 2 0.0;
  s.touched <- Array.make cap 0;
  s.touched_len <- 0;
  s.tmask <- Hca_util.Bitset.create cap;
  s.tr_util <- Array.make cap 0.0;
  s.tr_proj <- Array.make cap 0;
  s.tr_fanin <- Array.make cap 0.0;
  s.full_util <- Array.make cap 0.0;
  s.full_proj <- Array.make cap 0;
  s.full_fanin <- Array.make cap 0.0

(* Domain-local free list: probes of different states interleave
   freely (each checkout is its own arena), and domains never share a
   pool, so no locking is needed. *)
let scratch_pool : scratch list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let acquire_scratch cap =
  let pool = Domain.DLS.get scratch_pool in
  match !pool with
  | s :: rest ->
      pool := rest;
      if s.cap < cap then grow_scratch s cap;
      s
  | [] ->
      let s =
        {
          cap = 0;
          spf = [||];
          touched = [||];
          touched_len = 0;
          tmask = Hca_util.Bitset.create 0;
          tr_util = [||];
          tr_proj = [||];
          tr_fanin = [||];
          sp_full = false;
          full_util = [||];
          full_proj = [||];
          full_fanin = [||];
        }
      in
      grow_scratch s cap;
      s

let release_scratch s =
  let pool = Domain.DLS.get scratch_pool in
  pool := s :: !pool

let problem t = t.problem

let placement t id = if t.place.(id) < 0 then None else Some t.place.(id)

let is_complete t = t.assigned = Problem.size t.problem

let assigned_count t = t.assigned

let flow t = t.flow

(* The accumulators stop at the last regular id; ports past the end
   hold no demand by construction. *)
let demand t c =
  if c >= Array.length t.dem_alus then Resource.zero
  else { Resource.alus = t.dem_alus.(c); ags = t.dem_ags.(c) }

(* Derived from the placement array on demand: only the CLI dump and a
   couple of tests read it, so states carry no cluster->members reverse
   index at all — one less structure to maintain, clone and rewind on
   the probe path. *)
let cluster_nodes t c =
  let acc = ref [] in
  for id = Array.length t.place - 1 downto 0 do
    if t.place.(id) = c then acc := id :: !acc
  done;
  !acc

let forwards t =
  let acc = ref [] in
  for i = 0 to Hca_util.Vec.length t.fwd_val - 1 do
    acc := (Hca_util.Vec.get t.fwd_val i, Hca_util.Vec.get t.fwd_via i) :: !acc
  done;
  !acc (* newest first, like the list it replaced *)

let is_reg t c = c >= 0 && c < t.pg_n && Bytes.unsafe_get t.is_reg c <> '\000'

let create ?(backbone = []) problem =
  let pg = Problem.pg problem in
  let n = Problem.size problem in
  let pg_n = Pattern_graph.size pg in
  let is_reg = Bytes.make pg_n '\000' in
  let cap_alus = Array.make pg_n 0 in
  let cap_ags = Array.make pg_n 0 in
  let slots_sum = Array.make pg_n 0 in
  let slots_issue = Array.make pg_n 0 in
  let regs = ref [] in
  Array.iter
    (fun (nd : Pattern_graph.node) ->
      (match nd.kind with
      | Pattern_graph.Regular ->
          Bytes.set is_reg nd.id '\001';
          regs := nd.id :: !regs
      | Pattern_graph.In_port _ | Pattern_graph.Out_port _ -> ());
      cap_alus.(nd.id) <- nd.capacity.Resource.alus;
      cap_ags.(nd.id) <- nd.capacity.Resource.ags;
      slots_sum.(nd.id) <- nd.capacity.Resource.alus + nd.capacity.Resource.ags;
      slots_issue.(nd.id) <- Resource.issue_slots nd.capacity)
    (Pattern_graph.nodes pg);
  let regs = Array.of_list (List.rev !regs) in
  (* The mutable per-cluster accumulators are only ever indexed by
     regular-node ids (every write is [is_reg]-guarded), and fabric PGs
     number their regular nodes contiguously at the front, so the five
     arrays cloned per beam survivor need [max_reg_id + 1] slots, not
     [pg_n] — the ports at the tail would only ever hold zeros. *)
  let n_dem = max 1 (1 + Array.fold_left max (-1) regs) in
  let flow = Copy_flow.create ~max_in_ports:(Problem.max_in_ports problem) pg in
  List.iter (fun (src, dst) -> Copy_flow.reserve_neighbor flow ~src ~dst) backbone;
  let t =
    {
      problem;
      pg_n;
      max_in = Pattern_graph.max_in pg;
      regs;
      is_reg;
      cap_alus;
      cap_ags;
      slots_sum;
      slots_issue;
      scc = Problem.scc_of problem;
      place = Array.make n (-1);
      flow;
      dem_alus = Array.make n_dem 0;
      dem_ags = Array.make n_dem 0;
      fwd_val = Hca_util.Vec.create ();
      fwd_via = Hca_util.Vec.create ();
      carried_cuts = 0;
      fl = Array.make 2 0.0;
      assigned = 0;
      node_util = Array.make n_dem 0.0;
      node_proj = Array.make n_dem 1;
      node_fanin = Array.make n_dem 0.0;
      cache_ii = -1;
      sp_active = false;
      sp_node = -1;
      sp_cluster = -1;
      sp_dem_alus = 0;
      sp_dem_ags = 0;
      sp_carried = 0;
      sp_cache_ii = -1;
      sp_fmark = Copy_flow.push_mark flow;
      sp_fwd_len = 0;
      scr = None;
    }
  in
  Copy_flow.undo_to_mark t.flow t.sp_fmark;
  Array.iter
    (fun (nd : Problem.node) ->
      match nd.pinned with
      | Some c ->
          t.place.(nd.id) <- c;
          t.assigned <- t.assigned + 1
      | None -> ())
    (Problem.nodes problem);
  t

let clone t =
  if t.sp_active then invalid_arg "State.clone: speculation in flight";
  {
    t with
    place = Array.copy t.place;
    flow = Copy_flow.clone t.flow;
    dem_alus = Array.copy t.dem_alus;
    dem_ags = Array.copy t.dem_ags;
    fwd_val = Hca_util.Vec.copy t.fwd_val;
    fwd_via = Hca_util.Vec.copy t.fwd_via;
    fl = Array.copy t.fl;
    node_util = Array.copy t.node_util;
    node_proj = Array.copy t.node_proj;
    node_fanin = Array.copy t.node_fanin;
    scr = None;
  }
(* [regs]/[is_reg]/capacity caches/[scc] are immutable, so clones
   share them; the speculation scratch is pooled, so clones carry
   none. *)

(* One cluster's cost terms, recomputed from its demand accumulators and
   the flow's O(1) counters.  [id] must be a regular cluster. *)
let refresh_node t ~ii id =
  let slots = t.slots_sum.(id) in
  if slots > 0 then begin
    let used = t.dem_alus.(id) + t.dem_ags.(id) in
    t.node_util.(id) <- float_of_int used /. float_of_int (slots * ii)
  end;
  t.node_proj.(id) <-
    Cost.cluster_mii_flat ~d_alus:t.dem_alus.(id) ~d_ags:t.dem_ags.(id)
      ~c_alus:t.cap_alus.(id) ~c_ags:t.cap_ags.(id)
      ~receives:(Copy_flow.in_pressure t.flow id)
      ~max_in:t.max_in;
  let sat =
    float_of_int (Copy_flow.real_in_count t.flow id)
    /. float_of_int t.max_in
  in
  t.node_fanin.(id) <- sat *. sat

let refresh_all t ~ii =
  for k = 0 to Array.length t.regs - 1 do
    refresh_node t ~ii t.regs.(k)
  done;
  t.cache_ii <- ii

let ensure_cache t ~ii = if t.cache_ii <> ii then refresh_all t ~ii

(* Fold the cached per-cluster terms; same iteration order as a
   from-scratch walk, so incremental and reference costs are
   bit-identical.  [aggregate] builds the summary record for the cold
   API; [score_now] is its allocation-free twin for the probe loop —
   the two loops must mirror each other exactly. *)
let aggregate t ~ii =
  let max_util = ref 0.0 and min_util = ref infinity in
  let projected = ref 1 in
  let fanin_sat = ref 0.0 in
  for k = 0 to Array.length t.regs - 1 do
    let id = t.regs.(k) in
    if t.slots_sum.(id) > 0 then begin
      let util = t.node_util.(id) in
      if util > !max_util then max_util := util;
      if util < !min_util then min_util := util
    end;
    if t.node_proj.(id) > !projected then projected := t.node_proj.(id);
    fanin_sat := !fanin_sat +. t.node_fanin.(id)
  done;
  let min_util = if !min_util = infinity then 0.0 else !min_util in
  {
    Cost.copies = Copy_flow.copy_count t.flow;
    max_util = !max_util;
    util_spread = !max_util -. min_util;
    projected_ii = !projected;
    target_ii = ii;
    used_in_ports = Copy_flow.used_in_ports_count t.flow;
    fanin_sat = !fanin_sat;
    carried_cuts = t.carried_cuts;
  }

let score_now t ~ii ~weights =
  let max_util = ref 0.0 and min_util = ref infinity in
  let projected = ref 1 in
  let fanin_sat = ref 0.0 in
  for k = 0 to Array.length t.regs - 1 do
    let id = t.regs.(k) in
    if t.slots_sum.(id) > 0 then begin
      let util = t.node_util.(id) in
      if util > !max_util then max_util := util;
      if util < !min_util then min_util := util
    end;
    if t.node_proj.(id) > !projected then projected := t.node_proj.(id);
    fanin_sat := !fanin_sat +. t.node_fanin.(id)
  done;
  let min_util = if !min_util = infinity then 0.0 else !min_util in
  Cost.score_flat weights
    ~copies:(Copy_flow.copy_count t.flow)
    ~max_util:!max_util
    ~util_spread:(!max_util -. min_util)
    ~projected_ii:!projected ~target_ii:ii
    ~used_in_ports:(Copy_flow.used_in_ports_count t.flow)
    ~fanin_sat:!fanin_sat ~carried_cuts:t.carried_cuts

let summary t ~ii =
  ensure_cache t ~ii;
  aggregate t ~ii

let cost t = t.fl.(0) +. t.fl.(1)

let add_penalty t p = t.fl.(1) <- t.fl.(1) +. p

let free_issue_slots t ~cluster ~ii =
  (t.slots_issue.(cluster) * ii) - (t.dem_alus.(cluster) + t.dem_ags.(cluster))

(* Route-Allocator hop feasibility: would [via] still fit its resource
   table after spending one ALU slot re-emitting a value?  The flat
   twin of [is_regular && Resource.fits (demand + 1 alu)] — the BFS
   asks this per visited node, so it must not build records. *)
let can_host_forward t ~via ~ii =
  via >= 0 && via < t.pg_n
  && Bytes.unsafe_get t.is_reg via <> '\000'
  &&
  let d_alus = t.dem_alus.(via) + 1 in
  let d_ags = t.dem_ags.(via) in
  d_alus <= t.cap_alus.(via) * ii
  && d_ags <= t.cap_ags.(via) * ii
  && d_alus + d_ags <= t.slots_issue.(via) * ii

let recompute_cost t ~target_ii ~weights =
  refresh_all t ~ii:target_ii;
  t.fl.(0) <- Cost.score weights (aggregate t ~ii:target_ii)

let same_circuit t a b = t.scc.(a) >= 0 && t.scc.(a) = t.scc.(b)

(* Inlined [Resource.fits] on the struct-of-arrays demand. *)
let fits t ~cluster ~d_alus ~d_ags ~ii =
  d_alus <= t.cap_alus.(cluster) * ii
  && d_ags <= t.cap_ags.(cluster) * ii
  && d_alus + d_ags <= t.slots_issue.(cluster) * ii

(* Touched-cluster recording: deduplicated via the bitset, ports
   filtered out at the source (only regular clusters have cost
   contributions to refresh). *)
let touch t s c =
  if
    Bytes.unsafe_get t.is_reg c <> '\000'
    && not (Hca_util.Bitset.mem s.tmask c)
  then begin
    Hca_util.Bitset.set s.tmask c;
    s.touched.(s.touched_len) <- c;
    s.touched_len <- s.touched_len + 1
  end

let clear_touched s =
  for i = 0 to s.touched_len - 1 do
    Hca_util.Bitset.clear s.tmask s.touched.(i)
  done;
  s.touched_len <- 0

(* Route every arc between [node] (going to [cluster]) and its
   already-placed neighbours, recording touched clusters and carried
   cuts.  Returns -1 on success, or the flat [src * pg_n + dst] of the
   first blocked arc — partial mutations are NOT rolled back, the
   caller owns the rewind (or discards the clone).  Hand-rolled
   recursion: the per-probe loop must not allocate closures. *)
let rec route_preds t s cluster = function
  | [] -> -1
  | (e : Problem.edge) :: rest ->
      let src = t.place.(e.src) in
      if src < 0 || src = cluster then route_preds t s cluster rest
      else if Copy_flow.can_add t.flow ~src ~dst:cluster then begin
        Copy_flow.add_copy t.flow ~src ~dst:cluster e.value;
        touch t s cluster;
        if e.distance > 0 || same_circuit t e.src e.dst then
          t.carried_cuts <- t.carried_cuts + 1;
        route_preds t s cluster rest
      end
      else (src * t.pg_n) + cluster

let rec route_succs t s cluster = function
  | [] -> -1
  | (e : Problem.edge) :: rest ->
      let d = t.place.(e.dst) in
      if d < 0 || d = cluster then route_succs t s cluster rest
      else if Copy_flow.can_add t.flow ~src:cluster ~dst:d then begin
        Copy_flow.add_copy t.flow ~src:cluster ~dst:d e.value;
        touch t s d;
        if e.distance > 0 || same_circuit t e.src e.dst then
          t.carried_cuts <- t.carried_cuts + 1;
        route_succs t s cluster rest
      end
      else (cluster * t.pg_n) + d

let route_arcs t s ~node ~cluster =
  let r = route_preds t s cluster (Problem.preds t.problem node) in
  if r >= 0 then r else route_succs t s cluster (Problem.succs t.problem node)

(* Incremental twin of {!recompute_cost}: refresh only the clusters the
   move touched (consumes and clears the arena). *)
let update_cost t s ~target_ii ~weights =
  if t.cache_ii <> target_ii then refresh_all t ~ii:target_ii
  else
    for i = 0 to s.touched_len - 1 do
      refresh_node t ~ii:target_ii s.touched.(i)
    done;
  clear_touched s;
  t.fl.(0) <- score_now t ~ii:target_ii ~weights

let err_assigned = "node already assigned"
let err_not_regular = "target is not a regular cluster"
let err_exhausted = "resource table exhausted under target II"

let try_assign t ~node ~cluster ~ii ~target_ii ~weights =
  let nd = Problem.node t.problem node in
  if t.place.(node) >= 0 then Error err_assigned
  else if not (is_reg t cluster) then Error err_not_regular
  else
    let d_alus = t.dem_alus.(cluster) + nd.Problem.demand.Resource.alus in
    let d_ags = t.dem_ags.(cluster) + nd.Problem.demand.Resource.ags in
    if not (fits t ~cluster ~d_alus ~d_ags ~ii) then Error err_exhausted
    else begin
      let t' = clone t in
      t'.place.(node) <- cluster;
      t'.dem_alus.(cluster) <- d_alus;
      t'.dem_ags.(cluster) <- d_ags;
      t'.assigned <- t'.assigned + 1;
      let sc = acquire_scratch t.pg_n in
      touch t' sc cluster;
      let blocked = route_arcs t' sc ~node ~cluster in
      if blocked < 0 then begin
        update_cost t' sc ~target_ii ~weights;
        release_scratch sc;
        Ok t'
      end
      else begin
        clear_touched sc;
        release_scratch sc;
        (* The mutated clone is discarded wholesale. *)
        Error
          (Printf.sprintf "no communication pattern %d->%d" (blocked / t.pg_n)
             (blocked mod t.pg_n))
      end
    end

(* Shared by [speculate_assign] and [score_moves]: refresh the touched
   clusters under [target_ii], snapshotting each pre-move contribution
   at its arena slot first (each cluster appears once, so any restore
   order lands on the pre-move values).  The cold cache-miss move
   snapshots the full arrays instead. *)
let refresh_speculative t s ~target_ii =
  if t.cache_ii <> target_ii then begin
    s.sp_full <- true;
    let n_dem = Array.length t.node_util in
    Array.blit t.node_util 0 s.full_util 0 n_dem;
    Array.blit t.node_proj 0 s.full_proj 0 n_dem;
    Array.blit t.node_fanin 0 s.full_fanin 0 n_dem;
    refresh_all t ~ii:target_ii
  end
  else begin
    s.sp_full <- false;
    for i = 0 to s.touched_len - 1 do
      let id = s.touched.(i) in
      s.tr_util.(i) <- t.node_util.(id);
      s.tr_proj.(i) <- t.node_proj.(id);
      s.tr_fanin.(i) <- t.node_fanin.(id);
      refresh_node t ~ii:target_ii id
    done
  end

let restore_speculative t s =
  if s.sp_full then begin
    let n_dem = Array.length t.node_util in
    Array.blit s.full_util 0 t.node_util 0 n_dem;
    Array.blit s.full_proj 0 t.node_proj 0 n_dem;
    Array.blit s.full_fanin 0 t.node_fanin 0 n_dem
  end
  else
    for i = s.touched_len - 1 downto 0 do
      let id = s.touched.(i) in
      t.node_util.(id) <- s.tr_util.(i);
      t.node_proj.(id) <- s.tr_proj.(i);
      t.node_fanin.(id) <- s.tr_fanin.(i)
    done

(* Trail-based twin of {!try_assign}: the same move, the same checks,
   the same arithmetic — applied to [t] itself under the preallocated
   arena instead of a clone.  The member rows are deliberately left
   untouched: no cost term reads them, and the round trip restores the
   state bit for bit without them (property tested against
   [debug_identical]). *)
let speculate_assign t ~node ~cluster ~ii ~target_ii ~weights =
  if t.sp_active then invalid_arg "State.speculate_assign: already in flight";
  let nd = Problem.node t.problem node in
  if t.place.(node) >= 0 then Error err_assigned
  else if not (is_reg t cluster) then Error err_not_regular
  else
    let d_alus = t.dem_alus.(cluster) + nd.Problem.demand.Resource.alus in
    let d_ags = t.dem_ags.(cluster) + nd.Problem.demand.Resource.ags in
    if not (fits t ~cluster ~d_alus ~d_ags ~ii) then Error err_exhausted
    else begin
      t.sp_node <- node;
      t.sp_cluster <- cluster;
      t.sp_dem_alus <- t.dem_alus.(cluster);
      t.sp_dem_ags <- t.dem_ags.(cluster);
      t.sp_carried <- t.carried_cuts;
      t.sp_cache_ii <- t.cache_ii;
      t.sp_fmark <- Copy_flow.push_mark t.flow;
      let sc = acquire_scratch t.pg_n in
      sc.spf.(0) <- t.fl.(0);
      sc.spf.(1) <- t.fl.(1);
      t.place.(node) <- cluster;
      t.dem_alus.(cluster) <- d_alus;
      t.dem_ags.(cluster) <- d_ags;
      t.assigned <- t.assigned + 1;
      touch t sc cluster;
      let blocked = route_arcs t sc ~node ~cluster in
      if blocked >= 0 then begin
        t.place.(node) <- -1;
        t.dem_alus.(cluster) <- t.sp_dem_alus;
        t.dem_ags.(cluster) <- t.sp_dem_ags;
        t.assigned <- t.assigned - 1;
        t.carried_cuts <- t.sp_carried;
        Copy_flow.undo_to_mark t.flow t.sp_fmark;
        clear_touched sc;
        release_scratch sc;
        Hca_obs.Obs.count "state.spec_reject" 1;
        (* The SEE discards speculative error text; the arc ids stay
           available through the retained clone-based [try_assign],
           which the no-candidate diagnosis uses. *)
        Error "no communication pattern"
      end
      else begin
        refresh_speculative t sc ~target_ii;
        t.fl.(0) <- score_now t ~ii:target_ii ~weights;
        t.sp_active <- true;
        t.scr <- Some sc;
        Hca_obs.Obs.count "state.spec_apply" 1;
        Ok ()
      end
    end

let undo_speculation t =
  if not t.sp_active then
    invalid_arg "State.undo_speculation: nothing in flight";
  let sc = match t.scr with Some s -> s | None -> assert false in
  restore_speculative t sc;
  t.cache_ii <- t.sp_cache_ii;
  t.fl.(0) <- sc.spf.(0);
  t.fl.(1) <- sc.spf.(1);
  t.carried_cuts <- t.sp_carried;
  t.place.(t.sp_node) <- -1;
  t.dem_alus.(t.sp_cluster) <- t.sp_dem_alus;
  t.dem_ags.(t.sp_cluster) <- t.sp_dem_ags;
  t.assigned <- t.assigned - 1;
  Copy_flow.undo_to_mark t.flow t.sp_fmark;
  clear_touched sc;
  release_scratch sc;
  t.scr <- None;
  t.sp_active <- false;
  Hca_obs.Obs.count "state.spec_undo" 1

(* Batched frontier scoring: evaluate every candidate cluster for
   [node] in one pass, reusing the speculation arena per candidate.
   [scores.(k)] receives the would-be {!cost} of the move to
   [clusters.(k)] — including the region-tear penalty the SEE would
   apply — or [nan] when the move is infeasible.  Returns the feasible
   count.  The state is restored bit for bit between candidates and
   before returning; the float arithmetic is shared with the
   speculative path ([score_now] / [Cost.score_flat]), so the batch is
   bit-identical to a speculate/penalise/undo loop (property
   tested). *)
let score_moves t ~node ~clusters ~ii ~target_ii ~weights ~tail_of_region
    ~scores =
  if t.sp_active then invalid_arg "State.score_moves: speculation in flight";
  if t.place.(node) >= 0 then
    invalid_arg "State.score_moves: node already assigned";
  let nd = Problem.node t.problem node in
  let nd_alus = nd.Problem.demand.Resource.alus in
  let nd_ags = nd.Problem.demand.Resource.ags in
  let base_extra = t.fl.(1) in
  let feasible = ref 0 in
  let sc = acquire_scratch t.pg_n in
  for k = 0 to Array.length clusters - 1 do
    let cluster = clusters.(k) in
    scores.(k) <- nan;
    if is_reg t cluster then begin
    let d_alus = t.dem_alus.(cluster) + nd_alus in
    let d_ags = t.dem_ags.(cluster) + nd_ags in
    if fits t ~cluster ~d_alus ~d_ags ~ii then begin
      let sv_dem_alus = t.dem_alus.(cluster) in
      let sv_dem_ags = t.dem_ags.(cluster) in
      let sv_carried = t.carried_cuts in
      let sv_cache = t.cache_ii in
      let fmark = Copy_flow.push_mark t.flow in
      t.place.(node) <- cluster;
      t.dem_alus.(cluster) <- d_alus;
      t.dem_ags.(cluster) <- d_ags;
      t.assigned <- t.assigned + 1;
      touch t sc cluster;
      let blocked = route_arcs t sc ~node ~cluster in
      if blocked >= 0 then Hca_obs.Obs.count "state.spec_reject" 1
      else begin
        refresh_speculative t sc ~target_ii;
        let cost_v = score_now t ~ii:target_ii ~weights in
        (* The region-tear lookahead the SEE applies to each surviving
           move, with the exact float-op order of
           [add_penalty]-then-[cost]. *)
        let deficit =
          tail_of_region - 1
          - ((t.slots_issue.(cluster) * ii) - (d_alus + d_ags))
        in
        let extra =
          if deficit > 0 then
            base_extra +. (weights.Cost.w_tear *. float_of_int deficit)
          else base_extra
        in
        scores.(k) <- cost_v +. extra;
        incr feasible;
        Hca_obs.Obs.count "state.spec_apply" 1;
        restore_speculative t sc;
        t.cache_ii <- sv_cache;
        Hca_obs.Obs.count "state.spec_undo" 1
      end;
      t.place.(node) <- -1;
      t.dem_alus.(cluster) <- sv_dem_alus;
      t.dem_ags.(cluster) <- sv_dem_ags;
      t.assigned <- t.assigned - 1;
      t.carried_cuts <- sv_carried;
      Copy_flow.undo_to_mark t.flow fmark;
      clear_touched sc
    end
    end
  done;
  release_scratch sc;
  !feasible

(* Route-Allocator entry: blocked arcs are collected instead of
   failing the move.  Cold path — the per-call closure is fine. *)
let force_assign t ~node ~cluster ~ii =
  let nd = Problem.node t.problem node in
  if t.place.(node) >= 0 then Error err_assigned
  else if not (is_reg t cluster) then Error err_not_regular
  else
    let d_alus = t.dem_alus.(cluster) + nd.Problem.demand.Resource.alus in
    let d_ags = t.dem_ags.(cluster) + nd.Problem.demand.Resource.ags in
    if not (fits t ~cluster ~d_alus ~d_ags ~ii) then Error err_exhausted
    else begin
      let t' = clone t in
      t'.place.(node) <- cluster;
      t'.dem_alus.(cluster) <- d_alus;
      t'.dem_ags.(cluster) <- d_ags;
      t'.assigned <- t'.assigned + 1;
      t'.cache_ii <- -1;
      let blocked = ref [] in
      let route ~src ~dst ~carried value =
        if src <> dst then
          if Copy_flow.can_add t'.flow ~src ~dst then begin
            Copy_flow.add_copy t'.flow ~src ~dst value;
            if carried then t'.carried_cuts <- t'.carried_cuts + 1
          end
          else blocked := (value, src, dst) :: !blocked
      in
      List.iter
        (fun (e : Problem.edge) ->
          let s = t'.place.(e.src) in
          if s >= 0 then
            route ~src:s ~dst:cluster
              ~carried:(e.distance > 0 || same_circuit t e.src e.dst)
              e.value)
        (Problem.preds t.problem node);
      List.iter
        (fun (e : Problem.edge) ->
          let d = t'.place.(e.dst) in
          if d >= 0 then
            route ~src:cluster ~dst:d
              ~carried:(e.distance > 0 || same_circuit t e.src e.dst)
              e.value)
        (Problem.succs t.problem node);
      Ok (t', List.rev !blocked)
    end

(* Trail-based feasibility twin of {!force_assign}: the same move and
   the same direct-arc routing sequence, applied to [t] itself under a
   flow mark instead of a clone.  The Route Allocator probes an attempt
   here first — detouring the returned blocked values on [t] with
   {!add_forward}/[Copy_flow.add_copy] — and only pays a clone (via the
   retained {!force_assign} replay) for the attempts whose detours all
   went through; {!abort_force} rewinds the probe, forwards included,
   bit for bit.  Cost caches are never touched: the probe answers
   feasibility only. *)
let probe_force t ~node ~cluster ~ii =
  if t.sp_active then invalid_arg "State.probe_force: speculation in flight";
  let nd = Problem.node t.problem node in
  if t.place.(node) >= 0 then Error err_assigned
  else if not (is_reg t cluster) then Error err_not_regular
  else
    let d_alus = t.dem_alus.(cluster) + nd.Problem.demand.Resource.alus in
    let d_ags = t.dem_ags.(cluster) + nd.Problem.demand.Resource.ags in
    if not (fits t ~cluster ~d_alus ~d_ags ~ii) then Error err_exhausted
    else begin
      t.sp_node <- node;
      t.sp_cluster <- cluster;
      t.sp_dem_alus <- t.dem_alus.(cluster);
      t.sp_dem_ags <- t.dem_ags.(cluster);
      t.sp_carried <- t.carried_cuts;
      t.sp_cache_ii <- t.cache_ii;
      t.sp_fwd_len <- Hca_util.Vec.length t.fwd_val;
      t.sp_fmark <- Copy_flow.push_mark t.flow;
      t.sp_active <- true;
      t.place.(node) <- cluster;
      t.dem_alus.(cluster) <- d_alus;
      t.dem_ags.(cluster) <- d_ags;
      t.assigned <- t.assigned + 1;
      (* Mirror [force_assign]'s routing loop exactly: same arc order,
         same [can_add] decisions against the same intermediate flow,
         so the blocked list is identical to the clone path's. *)
      let blocked = ref [] in
      let route ~src ~dst ~carried value =
        if src <> dst then
          if Copy_flow.can_add t.flow ~src ~dst then begin
            Copy_flow.add_copy t.flow ~src ~dst value;
            if carried then t.carried_cuts <- t.carried_cuts + 1
          end
          else blocked := (value, src, dst) :: !blocked
      in
      List.iter
        (fun (e : Problem.edge) ->
          let s = t.place.(e.src) in
          if s >= 0 then
            route ~src:s ~dst:cluster
              ~carried:(e.distance > 0 || same_circuit t e.src e.dst)
              e.value)
        (Problem.preds t.problem node);
      List.iter
        (fun (e : Problem.edge) ->
          let d = t.place.(e.dst) in
          if d >= 0 then
            route ~src:cluster ~dst:d
              ~carried:(e.distance > 0 || same_circuit t e.src e.dst)
              e.value)
        (Problem.succs t.problem node);
      Ok (List.rev !blocked)
    end

(* Materialise a successful probe as a fresh successor state: copy the
   per-state arrays exactly as they stand — move, direct arcs and
   detours applied — and re-score from scratch, as the Route
   Allocator's commit always has.  The caller still owns the probe on
   [t] and must {!abort_force} it afterwards; the snapshot shares
   nothing mutable with [t], so the rewind cannot disturb it. *)
let commit_probe t ~target_ii ~weights =
  if not t.sp_active then invalid_arg "State.commit_probe: nothing in flight";
  let t' =
    {
      t with
      place = Array.copy t.place;
      flow = Copy_flow.snapshot t.flow;
      dem_alus = Array.copy t.dem_alus;
      dem_ags = Array.copy t.dem_ags;
      fwd_val = Hca_util.Vec.copy t.fwd_val;
      fwd_via = Hca_util.Vec.copy t.fwd_via;
      fl = Array.copy t.fl;
      node_util = Array.copy t.node_util;
      node_proj = Array.copy t.node_proj;
      node_fanin = Array.copy t.node_fanin;
      sp_active = false;
      scr = None;
    }
  in
  recompute_cost t' ~target_ii ~weights;
  t'

let abort_force t =
  if not t.sp_active then invalid_arg "State.abort_force: nothing in flight";
  (* Forwards the Route Allocator injected since the probe: pop their
     demand contributions, then truncate the vectors. *)
  let len = Hca_util.Vec.length t.fwd_via in
  for i = t.sp_fwd_len to len - 1 do
    let via = Hca_util.Vec.get t.fwd_via i in
    t.dem_alus.(via) <- t.dem_alus.(via) - 1
  done;
  Hca_util.Vec.truncate t.fwd_val t.sp_fwd_len;
  Hca_util.Vec.truncate t.fwd_via t.sp_fwd_len;
  t.place.(t.sp_node) <- -1;
  t.dem_alus.(t.sp_cluster) <- t.sp_dem_alus;
  t.dem_ags.(t.sp_cluster) <- t.sp_dem_ags;
  t.assigned <- t.assigned - 1;
  t.carried_cuts <- t.sp_carried;
  t.cache_ii <- t.sp_cache_ii;
  Copy_flow.undo_to_mark t.flow t.sp_fmark;
  t.sp_active <- false

let add_forward t ~value ~via =
  t.dem_alus.(via) <- t.dem_alus.(via) + 1;
  (* The Route Allocator mutates the flow behind our back as well; its
     commit always ends in a full [recompute_cost], so just mark the
     contribution caches stale. *)
  t.cache_ii <- -1;
  ignore (Hca_util.Vec.push t.fwd_val value : int);
  ignore (Hca_util.Vec.push t.fwd_via via : int)

(* Signature over everything that makes two partial solutions behave
   identically downstream — placement, routed flow, forwards, carried
   cuts and the (bit-exact) cost terms.  Test oracle only. *)
let signature t =
  let h = Hca_util.Sig_hash.create () in
  Hca_util.Sig_hash.add_int h t.assigned;
  Hca_util.Sig_hash.add_int h t.carried_cuts;
  Hca_util.Sig_hash.add_float h t.fl.(0);
  Hca_util.Sig_hash.add_float h t.fl.(1);
  Hca_util.Sig_hash.add_int_array h t.place;
  Copy_flow.hash_into t.flow h;
  (* Newest first, the order of the forwards list this replaced. *)
  for i = Hca_util.Vec.length t.fwd_val - 1 downto 0 do
    Hca_util.Sig_hash.add_int h (Hca_util.Vec.get t.fwd_val i);
    Hca_util.Sig_hash.add_int h (Hca_util.Vec.get t.fwd_via i)
  done;
  Hca_util.Sig_hash.value h

let fwds_equal a b =
  let n = Hca_util.Vec.length a.fwd_val in
  n = Hca_util.Vec.length b.fwd_val
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if
      Hca_util.Vec.get a.fwd_val i <> Hca_util.Vec.get b.fwd_val i
      || Hca_util.Vec.get a.fwd_via i <> Hca_util.Vec.get b.fwd_via i
    then ok := false
  done;
  !ok

let equal a b =
  a.assigned = b.assigned
  && a.carried_cuts = b.carried_cuts
  && a.fl.(0) = b.fl.(0)
  && a.fl.(1) = b.fl.(1)
  && a.place = b.place
  && fwds_equal a b
  && Copy_flow.equal a.flow b.flow

(* Test hook: [equal] plus the derived structures (members, demand)
   and the incremental-cost caches, so the trail property test can
   assert a speculation round trip restores *every* field bit for
   bit. *)
let debug_identical a b =
  equal a b
  && a.dem_alus = b.dem_alus
  && a.dem_ags = b.dem_ags
  && a.cache_ii = b.cache_ii
  && a.node_util = b.node_util
  && a.node_proj = b.node_proj
  && a.node_fanin = b.node_fanin

let pp ppf t =
  Format.fprintf ppf "@[<v>state (%d/%d assigned, cost %.2f)" t.assigned
    (Problem.size t.problem) (cost t);
  Array.iteri
    (fun id c ->
      if c >= 0 then
        Format.fprintf ppf "@,  %s -> @%d"
          (Problem.node t.problem id).Problem.label c)
    t.place;
  Format.fprintf ppf "@]"

