type outcome = {
  state : State.t;
  alternatives : State.t list;
  explored : int;
  routed : int;
}

(* Priority list of unassigned nodes, computed once per subproblem: the
   exploration picks nodes in this fixed order so that all the partial
   solutions of a frontier talk about the same prefix of the list.

   Nodes wired to an output port jump the queue, grouped by port: a port
   accepts a single real in-arc, so its feeders must agree on a cluster
   — a constraint best surfaced while the resource tables are empty
   (Fig. 10 shows exactly this forced co-location). *)
let out_port_group problem id =
  List.fold_left
    (fun acc (e : Problem.edge) ->
      let dst = Problem.node problem e.dst in
      match dst.Problem.pinned with
      | Some _ when Problem.succs problem e.dst = [] -> min acc e.dst
      | _ -> acc)
    max_int
    (Problem.succs problem id)

(* [free] sorted by the per-node int [keys], compared in turn, then by
   id. *)
let sort_by keys free =
  let rec cmp a b = function
    | [] -> Int.compare a b
    | k :: ks ->
        let c = Int.compare k.(a) k.(b) in
        if c <> 0 then c else cmp a b ks
  in
  List.stable_sort (fun a b -> cmp a b keys) free

let priority_order config problem ~ii =
  let free = Problem.free_nodes problem in
  let group () =
    let g = Array.make (Problem.size problem) max_int in
    List.iter (fun id -> g.(id) <- out_port_group problem id) free;
    g
  in
  let neg_height () = Array.map (fun h -> -h) (Problem.height problem) in
  match config.Config.priority with
  | Config.Affinity ->
      let capacity =
        let regs = Hca_machine.Pattern_graph.regular_nodes (Problem.pg problem) in
        match regs with
        | [] -> 1
        | nd :: _ -> max 1 (Hca_machine.Resource.issue_slots nd.capacity * ii)
      in
      let region = Regions.partition problem ~capacity in
      (sort_by [ region; group (); neg_height () ] free, Some region)
  | Config.Source_order -> (free, None)
  | Config.Topological ->
      (* Producers before consumers: ASAP cycle ascending, id tie-break. *)
      (sort_by [ Problem.depth problem ] free, None)
  | Config.Criticality ->
      (* Port feeders first (per port), then most critical first; ties:
         more demanding node first, then id. *)
      let neg_demand =
        Array.map
          (fun (nd : Problem.node) ->
            -(nd.Problem.demand.alus + nd.Problem.demand.ags))
          (Problem.nodes problem)
      in
      (sort_by [ group (); neg_height (); neg_demand ] free, None)

let candidate_clusters problem =
  Hca_machine.Pattern_graph.regular_nodes (Problem.pg problem)
  |> List.map (fun (nd : Hca_machine.Pattern_graph.node) -> nd.id)

(* A scored child of the frontier.  [Spec] is a move that was applied
   to the parent's trail, scored, and undone — it holds no clone, only
   the recipe to replay it.  [Mat] is a state the Route Allocator
   already had to build (its detours have no trail twin). *)
type cand =
  | Spec of {
      parent : State.t;
      cluster : Hca_machine.Pattern_graph.node_id;
      cost : float;
    }
  | Mat of State.t

let cand_cost = function Spec { cost; _ } -> cost | Mat st -> State.cost st

let solve_traced ~config ?target_ii ~backbone problem ~ii =
  let target_ii = Option.value ~default:ii target_ii in
  let weights = config.Config.weights in
  let order, region_of = priority_order config problem ~ii in
  (* Region-tear lookahead: how many nodes of the current node's region
     are still unplaced at each position of the priority list. *)
  let remaining_region =
    match region_of with
    | None -> Array.make (List.length order) 0
    | Some region ->
        let arr = Array.of_list order in
        let n = Array.length arr in
        let rem = Array.make n 0 in
        let counts = Array.make (Array.length region) 0 in
        for i = n - 1 downto 0 do
          let r = region.(arr.(i)) in
          counts.(r) <- counts.(r) + 1;
          rem.(i) <- counts.(r)
        done;
        rem
  in
  let clusters = candidate_clusters problem in
  (* Batch-scoring scratch, reused across every frontier expansion:
     candidate clusters as a flat array and one score slot each. *)
  let clusters_arr = Array.of_list clusters in
  let scores = Array.make (max 1 (Array.length clusters_arr)) nan in
  let explored = ref 1 and routed = ref 0 in
  (* A child of the current frontier, either still speculative (the
     move was scored on the parent's trail and undone — no clone paid
     yet) or already materialised (the Route Allocator's fallback has
     no trail twin, so it clones as before). *)
  let penalise ~tail_of_region st c =
    let deficit = tail_of_region - 1 - State.free_issue_slots st ~cluster:c ~ii in
    if deficit > 0 then
      State.add_penalty st (weights.Cost.w_tear *. float_of_int deficit)
  in
  let expand ~tail_of_region node state =
    (* One pass over the state's flat arrays scores every candidate
       cluster (tear penalty included), reusing one pooled speculation
       arena (it still allocates about 31 words per call, see
       {!State.score_moves}); the candidate-width cut happens inside
       the batch, so only the winners pay a [Spec] record.  Scores are
       bit-identical to [State.try_assign] plus [penalise] (property
       tested), and ties keep the cluster order, so the cut picks the
       same winners. *)
    let feasible =
      State.score_moves state ~node ~clusters:clusters_arr ~ii ~target_ii
        ~weights ~tail_of_region ~scores
    in
    explored := !explored + feasible;
    if feasible > 0 then
      List.map
        (fun k ->
          Spec { parent = state; cluster = clusters_arr.(k); cost = scores.(k) })
        (Hca_util.Topk.smallest_indices ~k:config.Config.candidate_width scores
           ~len:(Array.length clusters_arr))
    else if config.Config.enable_router then
        (* No-candidates action: try the Route Allocator towards every
           cluster, cheapest resulting state first. *)
        List.filter_map
          (fun c ->
            match
              Router.assign_with_routing state ~node ~cluster:c ~ii ~target_ii
                ~weights ~max_hops:config.Config.max_route_hops
            with
            | Ok st ->
                incr explored;
                incr routed;
                Some (Mat st)
            | Error _ -> None)
          clusters
    else []
  in
  (* Clones are paid here, for beam survivors only: replaying the move
     through the clone-based [try_assign] reproduces the batch score
     bit for bit. *)
  let materialise ~tail_of_region node = function
    | Mat st -> st
    | Spec { parent; cluster; cost } -> (
        match
          State.try_assign parent ~node ~cluster ~ii ~target_ii ~weights
        with
        | Ok st ->
            penalise ~tail_of_region st cluster;
            assert (State.cost st = cost);
            st
        | Error _ -> assert false (* the scored move was feasible *))
  in
  let by_cost a b = compare (State.cost a) (State.cost b) in
  (* Frontier cuts: stable top-k selection instead of sorting whole
     child lists only to drop everything past the beam.  Both cuts now
     rank candidates, not clones: the cost was computed on the trail,
     so losing candidates never pay an allocation. *)
  let best_k_cand k cands = Hca_util.Topk.smallest ~k ~key:cand_cost cands in
  let rec loop pos frontier = function
    | [] -> (
        match List.sort by_cost frontier with
        | best :: rest ->
            Ok
              {
                state = best;
                alternatives = rest;
                explored = !explored;
                routed = !routed;
              }
        | [] -> Error (Problem.name problem ^ ": empty frontier"))
    | node :: rest ->
        let tail_of_region = remaining_region.(pos) in
        (* Observation only — list lengths are paid when tracing. *)
        if Hca_obs.Obs.enabled () then
          Hca_obs.Obs.observe "see.frontier"
            (float_of_int (List.length frontier));
        let children =
          List.concat_map
            (fun st ->
              best_k_cand config.Config.candidate_width
                (expand ~tail_of_region node st))
            frontier
        in
        if Hca_obs.Obs.enabled () then
          Hca_obs.Obs.observe "see.children"
            (float_of_int (List.length children));
        (match children with
        | [] ->
            let pg = Problem.pg problem in
            let diagnosis =
              match frontier with
              | [] -> ""
              | st :: _ ->
                  let per_cluster =
                    List.map
                      (fun c ->
                        match
                          State.try_assign st ~node ~cluster:c ~ii ~target_ii
                            ~weights
                        with
                        | Ok _ -> Printf.sprintf "@%d: ok?!" c
                        | Error m -> Printf.sprintf "@%d: %s" c m)
                      clusters
                  in
                  " | " ^ String.concat "; " per_cluster
            in
            Error
              (Printf.sprintf
                 "%s: no candidates for node %s at II=%d (pg: %d regular, %d \
                  in-ports [%s], %d out-ports [%s], max_in=%d)%s"
                 (Problem.name problem)
                 (Problem.node problem node).Problem.label ii
                 (List.length (Hca_machine.Pattern_graph.regular_nodes pg))
                 (List.length (Hca_machine.Pattern_graph.in_ports pg))
                 (String.concat ";"
                    (List.map
                       (fun nd ->
                         string_of_int
                           (List.length
                              (Hca_machine.Pattern_graph.port_values nd)))
                       (Hca_machine.Pattern_graph.in_ports pg)))
                 (List.length (Hca_machine.Pattern_graph.out_ports pg))
                 (String.concat ";"
                    (List.map
                       (fun nd ->
                         string_of_int
                           (List.length
                              (Hca_machine.Pattern_graph.port_values nd)))
                       (Hca_machine.Pattern_graph.out_ports pg)))
                 (Hca_machine.Pattern_graph.max_in pg)
                 diagnosis)
        | _ ->
            let winners = best_k_cand config.Config.beam_width children in
            loop (pos + 1)
              (List.map (materialise ~tail_of_region node) winners)
              rest)
  in
  loop 0 [ State.create ~backbone problem ] order

let solve ?(config = Config.default) ?target_ii ?(backbone = []) problem ~ii =
  Hca_obs.Obs.span "see.solve"
    ~args:[ ("problem", Problem.name problem); ("ii", string_of_int ii) ]
    (fun () -> solve_traced ~config ?target_ii ~backbone problem ~ii)

