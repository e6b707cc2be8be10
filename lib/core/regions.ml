open Hca_ddg

(* A region stops growing once its best candidate's affinity to the
   region falls below this: a single broadcast edge (weight 1) is not
   reason enough to co-locate. *)
let min_affinity = 2

(* Affinity graph in CSR form: the neighbours of [a] are
   [adj.(start.(a)) .. adj.(start.(a + 1) - 1)], with the summed pair
   weight alongside in [wt]. *)
type graph = { start : int array; adj : int array; wt : int array }

(* [pairs f] calls [f a b w] once per affinity contribution between two
   distinct nodes; it is walked twice (degrees, then fill) and repeated
   pairs are merged into one entry carrying the weight sum. *)
let build_graph n pairs =
  let start = Array.make (n + 1) 0 in
  pairs (fun a b _ ->
      start.(a + 1) <- start.(a + 1) + 1;
      start.(b + 1) <- start.(b + 1) + 1);
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let adj = Array.make start.(n) 0 and wt = Array.make start.(n) 0 in
  let next = Array.sub start 0 n in
  let add a b w =
    adj.(next.(a)) <- b;
    wt.(next.(a)) <- w;
    next.(a) <- next.(a) + 1
  in
  pairs (fun a b w ->
      add a b w;
      add b a w);
  (* Merge repeated neighbours in place; [slot.(b)] is where [b] already
     sits in the row being compacted (stale from earlier rows if below
     the row's new start). *)
  let slot = Array.make n (-1) in
  let out = ref 0 in
  for a = 0 to n - 1 do
    let lo = start.(a) and hi = start.(a + 1) in
    start.(a) <- !out;
    for k = lo to hi - 1 do
      let b = adj.(k) in
      if slot.(b) >= start.(a) then wt.(slot.(b)) <- wt.(slot.(b)) + wt.(k)
      else begin
        slot.(b) <- !out;
        adj.(!out) <- b;
        wt.(!out) <- wt.(k);
        incr out
      end
    done
  done;
  start.(n) <- !out;
  { start; adj; wt }

(* Shared region-growing engine over [n] nodes, of which [free] ones get
   a region.  Seeds are taken by decreasing [criticality] (id
   tie-break); a region repeatedly absorbs the unassigned node with the
   largest affinity to its members (smallest id on ties) while that
   affinity is at least [min_affinity] and the region is below
   [capacity].

   [gain.(v)] holds v's affinity to the region being grown, raised
   edge by edge as members join.  Candidates live in a max-heap of
   packed (gain, id) keys; a key is stale once its node is placed or its
   gain has grown since the push, and is skipped on pop.  Every node
   joins one region, so each CSR entry is relaxed at most once over the
   whole call: O((n + E) log E) in total. *)
let grow_regions ~n ~free ~graph ~criticality ~capacity =
  let { start; adj; wt } = graph in
  let region = Array.make n (-1) in
  let seeds = Array.of_list (List.filter (fun i -> free.(i)) (List.init n Fun.id)) in
  Array.sort
    (fun a b ->
      let c = Int.compare criticality.(b) criticality.(a) in
      if c <> 0 then c else Int.compare a b)
    seeds;
  let gain = Array.make n 0 in
  let touched = Array.make n 0 and n_touched = ref 0 in
  (* Larger key = better candidate: gain first, then the smaller id. *)
  let key v = (gain.(v) * n) + (n - 1 - v) in
  let heap = Array.make (max 1 (Array.length adj)) 0 and size = ref 0 in
  let push k =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) < k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let k = heap.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) > heap.(l) then l + 1 else l in
        if heap.(c) > k then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- k;
    top
  in
  (* Best live candidate, or -1 when the frontier is exhausted. *)
  let rec best () =
    if !size = 0 then -1
    else
      let k = pop () in
      let v = n - 1 - (k mod n) in
      if region.(v) < 0 && key v = k then v else best ()
  in
  let absorb r v =
    region.(v) <- r;
    for i = start.(v) to start.(v + 1) - 1 do
      let u = adj.(i) in
      if region.(u) < 0 then begin
        if gain.(u) = 0 then begin
          touched.(!n_touched) <- u;
          incr n_touched
        end;
        gain.(u) <- gain.(u) + wt.(i);
        push (key u)
      end
    done
  in
  let next_region = ref 0 in
  Array.iter
    (fun seed ->
      if region.(seed) < 0 then begin
        let r = !next_region in
        incr next_region;
        absorb r seed;
        let members = ref 1 and growing = ref true in
        while !growing && !members < capacity do
          let v = best () in
          if v >= 0 && gain.(v) >= min_affinity then begin
            absorb r v;
            incr members
          end
          else growing := false
        done;
        for i = 0 to !n_touched - 1 do
          gain.(touched.(i)) <- 0
        done;
        n_touched := 0;
        size := 0
      end)
    seeds;
  region

(* Weight of a plain dependence out of a producer with [fanout] uses.
   Broadcast producers (constants, shared inductions) link every
   consumer to every other; discounting their edges by fan-out keeps
   them from welding unrelated regions together. *)
let broadcast_weight fanout = if fanout >= 6 then 1 else max 2 (8 / (1 + fanout))

let is_out_port problem id =
  let nd = Problem.node problem id in
  nd.Problem.pinned <> None && Problem.succs problem id = []

let is_in_port problem id =
  let nd = Problem.node problem id in
  nd.Problem.pinned <> None && Problem.preds problem id = []

(* Consumers of each value an input port delivers, one deduplicated
   group per value, from the port's (value, consumer) pairs. *)
let consumers_by_value (pairs : (int * int) list) =
  let sorted =
    List.sort_uniq
      (fun (v, a) (v', a') ->
        let c = Int.compare v v' in
        if c <> 0 then c else Int.compare a a')
      pairs
  in
  List.fold_right
    (fun (v, a) groups ->
      match groups with
      | (v', g) :: rest when v' = v -> (v, a :: g) :: rest
      | _ -> (v, [ a ]) :: groups)
    sorted []
  |> List.map snd

let partition problem ~capacity =
  if capacity < 1 then invalid_arg "Regions.partition: capacity must be >= 1";
  let n = Problem.size problem in
  let free = Array.make n false in
  Array.iter
    (fun (nd : Problem.node) -> free.(nd.Problem.id) <- nd.Problem.pinned = None)
    (Problem.nodes problem);
  let edges = Problem.edges problem in
  let fanout = Array.make n 0 in
  Array.iter
    (fun (e : Problem.edge) -> fanout.(e.src) <- fanout.(e.src) + 1)
    edges;
  let scc = Problem.scc_of problem in
  (* Co-location pressure through the ports, as cliques of free nodes
     with a per-pair weight.  Feeders of one output port must share a
     cluster (6 each way); consumers of the same value delivered by an
     input port share one copy slot (1 each way). *)
  let cliques = ref [] in
  let clique w members =
    cliques := (w, Array.of_list (List.filter (fun a -> free.(a)) members)) :: !cliques
  in
  for id = 0 to n - 1 do
    if is_out_port problem id then
      clique 12
        (List.sort_uniq Int.compare
           (List.map (fun (e : Problem.edge) -> e.src) (Problem.preds problem id)))
    else if is_in_port problem id then
      List.iter (clique 2)
        (consumers_by_value
           (List.map
              (fun (e : Problem.edge) -> (e.Problem.value, e.Problem.dst))
              (Problem.succs problem id)))
  done;
  let pairs f =
    Array.iter
      (fun (e : Problem.edge) ->
        if e.src <> e.dst && free.(e.src) && free.(e.dst) then
          (* Any edge inside a recurrence circuit: tearing it across
             clusters stretches the circuit by the copy latency and
             inflates MIIRec, so circuit members stick hard. *)
          f e.src e.dst
            (if
               e.Problem.distance > 0
               || (scc.(e.src) >= 0 && scc.(e.src) = scc.(e.dst))
             then 10
             else broadcast_weight fanout.(e.src)))
      edges;
    List.iter
      (fun (w, members) ->
        let k = Array.length members in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            f members.(i) members.(j) w
          done
        done)
      !cliques
  in
  grow_regions ~n ~free ~graph:(build_graph n pairs)
    ~criticality:(Problem.height problem) ~capacity

let partition_ddg ddg ~members ~capacity =
  if capacity < 1 then
    invalid_arg "Regions.partition_ddg: capacity must be >= 1";
  let n = Ddg.size ddg in
  let free = Array.make n false in
  List.iter (fun g -> free.(g) <- true) members;
  let fanout = Array.make n 0 in
  Ddg.iter_edges (fun e -> fanout.(e.src) <- fanout.(e.src) + 1) ddg;
  let pairs f =
    Ddg.iter_edges
      (fun e ->
        if e.src <> e.dst && free.(e.src) && free.(e.dst) then
          f e.src e.dst
            (if e.distance > 0 then 10 else broadcast_weight fanout.(e.src)))
      ddg
  in
  let region =
    grow_regions ~n ~free ~graph:(build_graph n pairs)
      ~criticality:(Graph_algo.height ddg) ~capacity
  in
  fun g -> if g >= 0 && g < n then region.(g) else -1
