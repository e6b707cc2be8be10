(* The reproduction experiments behind [hca bench] (and [hca table1]):
   Table 1 plus the paper's claims, the baselines, the oracle gap and
   the post-mapping pipeline.

   With [json] the per-kernel experiments (table1, fig_scaling,
   extended, optgap) print newline-delimited JSON records instead of a
   table — one object per kernel with at least "kernel", "final_mii",
   "copies" and "runtime_s" — so the bench trajectory can be tracked
   across changes by machines instead of eyeballs.  Every row carries
   "config_hash" (the fabric and configuration the row ran on) and
   "git" so it can be tied back to the code state that produced it.

   With [profile] the lib/obs tracer runs around each kernel of those
   experiments and appends per-phase wall-clock columns (phase_probe_s,
   phase_see_s, phase_mapper_s, phase_router_s, phase_oracle_s,
   spec_applies) to every JSON row; kernel-axis parallelism drops to 1
   so the attribution window brackets exactly one kernel.

   [jobs] sizes the domain pool: table1 fans out the portfolio
   configurations, fig_scaling/extended fan out over kernels, and
   optgap probes oracle MII bounds concurrently.  Results are emitted
   in the sequential order and are identical at every N; only the wall
   clock changes.

   Absolute numbers are NOT expected to match the paper (the substrate
   is a reconstruction); the shapes — who is legal, who degrades, where
   the bounds sit — are the reproduction target. *)

open Hca_ddg
open Hca_machine
open Hca_core
module Json = Hca_util.Json

type ctx = {
  json : bool;
  profile : bool;
  jobs : int;
  oracle_budget : float option;  (** optgap: per-kernel oracle budget *)
  max_n : int option;  (** optgap: skip kernels above this size *)
}

let reference = Dspfabric.reference

let heading ctx title =
  if not ctx.json then Printf.printf "\n=== %s ===\n%!" title

(* One NDJSON record, stamped with the machine and configuration it ran
   on.  [Dspfabric.id], not [name]: the name elides fan-outs and port
   counts, so two different machines could stamp alike. *)
let emit ?(fabric = reference) ?(config = Config.default) ~experiment ~kernel
    fields =
  print_string
    (Json.row ~experiment ~kernel
       (fields
       @ [
           ( "config_hash",
             Json.Str (Hca_util.Stamp.hash (config, Dspfabric.id fabric)) );
           ("git", Json.Str (Hca_util.Stamp.git_describe ()));
         ]))

let jint i = Json.Num (float_of_int i)

let jopt_int = function Some i -> jint i | None -> Json.Null

let jfloat = Json.decimals 6

let jbool b = Json.Bool b

(* Allocation-churn columns, appended to every NDJSON row built from a
   [Report.t]: the flat-layout work is judged on these as much as on the
   wall clock.  Meaningful at [--jobs 1] (the counters are per-domain). *)
let alloc_fields (r : Report.t) =
  [ ("alloc_mb", jfloat r.alloc_mb); ("minor_gcs", jint r.minor_gcs) ]

let left h = (h, Hca_util.Tabular.Left)

let right h = (h, Hca_util.Tabular.Right)

let mii_cell = function Some m -> string_of_int m | None -> "-"

(* Per-kernel phase attribution under [profile]: reset the tracer, run
   one kernel's work, and summarise what accumulated.  The window
   brackets a single kernel, so any inner parallelism (the portfolio or
   oracle fan-out) is fully contained in it and every domain's buffer
   merges into the same summary.  Experiments that fan out over kernels
   must iterate them sequentially in profile mode for the attribution to
   hold — they drop to [~jobs:1] on the kernel axis when profiling. *)
let profiled ctx f =
  if not ctx.profile then (f (), [])
  else begin
    Hca_obs.Obs.reset ();
    Hca_obs.Obs.enable ();
    let v = Fun.protect ~finally:Hca_obs.Obs.disable f in
    let s = Hca_obs.Obs.Summary.collect () in
    let phase col name = (col, jfloat (Hca_obs.Obs.Summary.phase_s s name)) in
    ( v,
      [
        phase "phase_probe_s" "report.probe";
        phase "phase_see_s" "see.solve";
        phase "phase_mapper_s" "mapper.map";
        phase "phase_router_s" "router.route";
        phase "phase_oracle_s" "oracle.run";
        ( "spec_applies",
          jint (Hca_obs.Obs.Summary.counter s "state.spec_apply") );
      ] )
  end

let kernel_jobs ctx = if ctx.profile then 1 else ctx.jobs

(* ------------------------------------------------------------------ *)
(* Table 1: HCA test on four multimedia application loops.             *)
(* ------------------------------------------------------------------ *)

let table1 ?(fabric = reference) ?(config = Config.default) ctx =
  heading ctx
    (Printf.sprintf "Table 1: HCA on four multimedia loops (%s)"
       (if fabric == reference then "N=M=K=8, 64 CNs"
        else Dspfabric.name fabric));
  let t =
    Hca_util.Tabular.create
      (List.map2
         (fun h align -> (h, align))
         Report.header
         Hca_util.Tabular.[ Left; Right; Right; Right; Left; Right ]
      @ [ right "Portfolio"; right "Optimum"; right "Paper final" ])
  in
  (* The run's configuration is the portfolio's "default" entry. *)
  let configs =
    ("default", config) :: List.remove_assoc "default" Portfolio.default_configs
  in
  let paper_final = [ 3; 3; 8; 6 ] in
  List.iter2
    (fun (name, f) paper ->
      let ddg = f () in
      (* One portfolio sweep per kernel: the "default" entry doubles as
         the plain [Report.run] row, so the default configuration is
         searched once, not twice. *)
      let reports, phases =
        profiled ctx (fun () ->
            Portfolio.run_all ~jobs:ctx.jobs ~configs fabric ddg)
      in
      let r = List.assoc "default" reports in
      let best, _ = Portfolio.best_of reports in
      let optimum = Hca_baseline.Unified.mii ddg fabric in
      if ctx.json then
        emit ~fabric ~config ~experiment:"table1" ~kernel:name
          ([
             ("n_instr", jint r.n_instr);
             ("legal", jbool r.legal);
             ("final_mii", jopt_int r.final_mii);
             ("portfolio_mii", jopt_int best.final_mii);
             ("unified_mii", jint optimum);
             ("copies", jint r.copies);
             ("runtime_s", jfloat r.runtime_s);
             ("cache_hits", jint r.cache_hits);
             ("cache_misses", jint r.cache_misses);
             ("reused_subproblems", jint r.reused_subproblems);
           ]
          @ alloc_fields r @ phases)
      else
        Hca_util.Tabular.add_row t
          (Report.row r
          @ [
              (if best.legal then mii_cell best.final_mii else "-");
              string_of_int optimum;
              string_of_int paper;
            ]))
    Hca_kernels.Registry.all paper_final;
  if not ctx.json then Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* §5 bandwidth claim: sweep the MUX capacities.                       *)
(* ------------------------------------------------------------------ *)

let fig_bandwidth ctx =
  heading ctx
    "Bandwidth sweep (§5): final MII as N=M=K shrinks ('-' = no legal \
     clusterization)";
  let widths = [ 16; 8; 4; 2; 1 ] in
  let t =
    Hca_util.Tabular.create
      (left "Loop" :: List.map (fun w -> right (Printf.sprintf "N=M=K=%d" w)) widths)
  in
  List.iter
    (fun (name, f) ->
      let cells =
        List.map
          (fun w ->
            let r = Report.run (Dspfabric.make ~n:w ~m:w ~k:w ()) (f ()) in
            if r.legal then mii_cell r.final_mii else "-")
          widths
      in
      Hca_util.Tabular.add_row t (name :: cells))
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t;
  Printf.printf
    "Expected shape: MII grows (or clusterization fails) as the wires thin \
     out.\n"

(* ------------------------------------------------------------------ *)
(* §7 scaling claim: flat ICA explodes, HCA cuts the state space.      *)
(* ------------------------------------------------------------------ *)

let fig_scaling ctx =
  heading ctx "State-space scaling (§7): HCA vs flat K64 ICA";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "HCA states"; right "HCA time(s)";
        right "Flat states"; right "Flat time(s)"; right "Flat MUX violations";
      ]
  in
  let rows =
    (* Independent kernels fan out; the row list comes back in registry
       order, so the table reads the same at every [jobs]. *)
    Hca_util.Domain_pool.parallel_map ~jobs:(kernel_jobs ctx)
      (fun (name, f) ->
        let ddg = f () in
        let (hca, flat), phases =
          profiled ctx (fun () ->
              (Report.run reference ddg, Hca_baseline.Flat_ica.run reference ddg))
        in
        (name, hca, flat, phases))
      Hca_kernels.Registry.all
  in
  List.iter
    (fun (name, (hca : Report.t), (flat : Hca_baseline.Flat_ica.t), phases) ->
      let violations =
        Option.map (Hca_baseline.Flat_ica.hierarchy_violations reference)
          flat.outcome
      in
      if ctx.json then
        emit ~experiment:"fig_scaling" ~kernel:name
          ([
             ("final_mii", jopt_int hca.final_mii);
             ("copies", jint hca.copies);
             ("runtime_s", jfloat hca.runtime_s);
             ("hca_states", jint hca.explored_states);
             ("cache_hits", jint hca.cache_hits);
             ("cache_misses", jint hca.cache_misses);
             ("reused_subproblems", jint hca.reused_subproblems);
             ("flat_states", jint flat.explored);
             ("flat_runtime_s", jfloat flat.runtime_s);
             ("flat_mux_violations", jopt_int violations);
           ]
          @ alloc_fields hca @ phases)
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int hca.explored_states;
            Printf.sprintf "%.3f" hca.runtime_s;
            string_of_int flat.explored;
            Printf.sprintf "%.3f" flat.runtime_s;
            (match violations with Some v -> string_of_int v | None -> "failed");
          ])
    rows;
  if not ctx.json then begin
    Hca_util.Tabular.print t;
    Printf.printf
      "The flat view is also optimistic: its MUX-violation count shows how \
       often\nthe 'legal' flat result could not actually be configured on the \
       fabric.\n"
  end

(* ------------------------------------------------------------------ *)
(* Fig. 1: the RCP ring picks a feasible topology under K ports.        *)
(* ------------------------------------------------------------------ *)

let fig_rcp ctx =
  heading ctx
    "RCP ring (Fig. 1): single-level assignment under the input-port limit";
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "ports"; left "Feasible"; right "II used";
        right "copies"; right "max in-degree";
      ]
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun ports ->
          match Rcp_driver.solve (Rcp.make ~in_ports:ports ()) (f ()) with
          | Error _ ->
              Hca_util.Tabular.add_row t
                [ name; string_of_int ports; "no"; "-"; "-"; "-" ]
          | Ok r ->
              let flow = State.flow r.state in
              let max_in =
                List.fold_left
                  (fun acc (nd : Pattern_graph.node) ->
                    max acc
                      (List.length (Copy_flow.real_in_neighbors flow nd.id)))
                  0
                  (Pattern_graph.regular_nodes (Rcp.pattern_graph r.rcp))
              in
              Hca_util.Tabular.add_row t
                [
                  name;
                  string_of_int ports;
                  "yes";
                  string_of_int r.ii;
                  string_of_int (Copy_flow.copy_count flow);
                  string_of_int max_in;
                ])
        [ 4; 2; 1 ])
    [ ("fir2dim", Hca_kernels.Fir2dim.ddg); ("idcthor", Hca_kernels.Idcthor.ddg) ];
  Hca_util.Tabular.print t;
  Printf.printf
    "The selected topology never uses more in-neighbours than the port \
     budget.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 9: broadcast merging and copy balancing in the Mapper.          *)
(* ------------------------------------------------------------------ *)

let fig_mapper ctx =
  heading ctx
    "Mapper policy (Fig. 9): broadcasts share one wire, spread mode balances \
     the rest";
  (* Rebuild the paper's worked example: cluster 0 produces x (broadcast
     to 1 and 2), z (broadcast to 2 and 3) and a, b, c all flowing to 1. *)
  let b = Ddg.Builder.create ~name:"fig9" () in
  let x = Ddg.Builder.add_instr b ~name:"x" Opcode.Add in
  let z = Ddg.Builder.add_instr b ~name:"z" Opcode.Add in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Add in
  let b' = Ddg.Builder.add_instr b ~name:"b" Opcode.Add in
  let c = Ddg.Builder.add_instr b ~name:"c" Opcode.Add in
  let consumer src =
    let u = Ddg.Builder.add_instr b Opcode.Mov in
    Ddg.Builder.add_dep b ~src ~dst:u;
    u
  in
  let ux1 = consumer x and ux2 = consumer x in
  let uz1 = consumer z and uz2 = consumer z in
  let ua = consumer a and ub = consumer b' and uc = consumer c in
  let ddg = Ddg.Builder.freeze b in
  let pg =
    Pattern_graph.complete ~name:"fig9"
      ~capacities:(Array.make 4 { Resource.alus = 8; ags = 8 })
      ~max_in:4
  in
  let problem = Problem.of_ddg ~name:"fig9" ~ddg ~pg () in
  let w = Cost.default_weights in
  let place node cluster st =
    Result.get_ok
      (State.try_assign st ~node ~cluster ~ii:8 ~target_ii:8 ~weights:w)
  in
  let st =
    State.create problem
    |> place x 0 |> place z 0 |> place a 0 |> place b' 0 |> place c 0
    |> place ux1 1 |> place ux2 2 |> place uz1 2 |> place uz2 3 |> place ua 1
    |> place ub 1 |> place uc 1
  in
  match
    Mapper.map ~consolidate:false ~problem ~state:st ~in_capacity:4
      ~out_capacity:4 ()
  with
  | Error e -> Printf.printf "mapper failed: %s\n" e
  | Ok res ->
      let model = res.Mapper.model in
      List.iter
        (fun wire ->
          Printf.printf "  wire %d of cluster 0 -> clusters [%s] carrying [%s]\n"
            wire
            (String.concat ","
               (List.map string_of_int (Machine_model.wire_sinks model wire)))
            (String.concat ","
               (List.map
                  (fun v -> (Ddg.instr ddg v).Instr.name)
                  (Machine_model.wire_values model wire))))
        (Machine_model.used_out_wires model 0);
      Printf.printf "  max wire load: %d\n" res.Mapper.max_wire_load

(* ------------------------------------------------------------------ *)
(* Baselines: HCA vs unified optimum vs random floor vs Chu partition. *)
(* ------------------------------------------------------------------ *)

let baselines ctx =
  heading ctx "Baselines: projected/achieved MII and copies";
  let t =
    Hca_util.Tabular.create
      [
        left "Loop"; right "Unified opt"; right "HCA final"; right "HCA copies";
        right "Chu proj."; right "Chu copies"; right "Chu viol.";
        right "Random proj."; right "Random copies";
      ]
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let opt = Hca_baseline.Unified.mii ddg reference in
      let hca = Report.run reference ddg in
      let ii = max 4 hca.ii_used in
      let chu = Result.to_option (Hca_baseline.Chu_partition.run reference ddg ~ii) in
      let rand = Result.to_option (Hca_baseline.Random_assign.run reference ddg ~ii) in
      let cell get o = match o with Some v -> string_of_int (get v) | None -> "-" in
      Hca_util.Tabular.add_row t
        [
          name;
          string_of_int opt;
          mii_cell hca.final_mii;
          string_of_int hca.copies;
          cell (fun (c : Hca_baseline.Chu_partition.t) -> c.projected_mii) chu;
          cell (fun (c : Hca_baseline.Chu_partition.t) -> c.copies) chu;
          cell (fun (c : Hca_baseline.Chu_partition.t) -> c.violations) chu;
          cell (fun (r : Hca_baseline.Random_assign.t) -> r.projected_mii) rand;
          cell (fun (r : Hca_baseline.Random_assign.t) -> r.copies) rand;
        ])
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Optimality gap: HCA vs the exact SAT oracle (lib/exact).             *)
(* ------------------------------------------------------------------ *)

let optgap ctx =
  let module O = Hca_exact.Oracle in
  heading ctx
    "Optimality gap: HCA vs the exact SAT oracle on a scaled-down fabric \
     (8 CNs, N=M=K=4)";
  let fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 () in
  let synthetic size seed =
    ( Printf.sprintf "syn%d" size,
      fun () ->
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size;
            layers = 3;
            recurrences = 1;
            seed;
          } )
  in
  (* Small kernels the oracle can close; the Table-1 loops then show the
     graceful degradation to bounded-feasible under the time budget. *)
  let kernels =
    [ synthetic 10 1; synthetic 14 2; synthetic 18 3 ] @ Hca_kernels.Registry.all
  in
  let kernels =
    match ctx.max_n with
    | None -> kernels
    | Some mx -> List.filter (fun (_, f) -> Ddg.size (f ()) <= mx) kernels
  in
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "N_Instr"; right "HCA final"; left "Oracle";
        right "Oracle MII"; right "Lower bound"; right "Gap <=";
        right "Probes"; right "Reused"; right "SAT time(s)";
      ]
  in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let n = Ddg.size ddg in
      let budget_s =
        match ctx.oracle_budget with
        | Some b -> b
        | None -> if n <= 24 then 10. else 5.
      in
      let ((hca : Report.t), (oracle : O.t)), phases =
        profiled ctx (fun () ->
            let hca = Report.run fabric ddg in
            (* Seed the oracle's downward walk with the heuristic's
               result: in relaxed mode the incumbent is feasible by
               construction, so the budget is spent tightening the
               bound, not rediscovering a model. *)
            let incumbent = if hca.legal then hca.final_mii else None in
            (hca, O.run ~budget_s ?incumbent fabric ddg))
      in
      let gap =
        match hca.final_mii with
        | Some achieved when hca.legal -> O.gap oracle ~achieved
        | _ -> None
      in
      if ctx.json then
        emit ~fabric ~experiment:"optgap" ~kernel:name
          ([
             ("n_instr", jint n);
             ("hca_final_mii", jopt_int hca.final_mii);
             ("hca_legal", jbool hca.legal);
             ("hca_cache_hits", jint hca.cache_hits);
             ("status", Json.Str (O.status_to_string oracle.status));
             ("final_mii", jopt_int oracle.final_mii);
             ("lower_bound", jint oracle.lower_bound);
             ("copies", jint oracle.copies);
             ("gap", match gap with Some g -> jfloat g | None -> Json.Null);
             ("sat_conflicts", jint oracle.explored);
             ("sat_propagations", jint oracle.propagations);
             ("sat_learnt", jint oracle.learnt_total);
             ("sat_reused_hits", jint oracle.reused_hits);
             ("sat_probes", jint (List.length oracle.probes));
             ("oracle_alloc_mb", jfloat oracle.alloc_mb);
             ("oracle_minor_gcs", jint oracle.minor_gcs);
             ("runtime_s", jfloat oracle.runtime_s);
           ]
          @ alloc_fields hca @ phases)
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int n;
            (if hca.legal then mii_cell hca.final_mii else "-");
            O.status_to_string oracle.status;
            mii_cell oracle.final_mii;
            string_of_int oracle.lower_bound;
            (match gap with Some g -> Printf.sprintf "%.2f" g | None -> "-");
            string_of_int (List.length oracle.probes);
            string_of_int oracle.reused_hits;
            Printf.sprintf "%.2f" oracle.runtime_s;
          ])
    kernels;
  if not ctx.json then begin
    Hca_util.Tabular.print t;
    Printf.printf
      "'optimal' rows certify the flat projected-MII optimum; on the rest \
       the\ngap column is an upper bound computed against the certified \
       lower bound.\n"
  end

(* ------------------------------------------------------------------ *)
(* After mapping: schedule and simulate (the paper's future work).      *)
(* ------------------------------------------------------------------ *)

(* [Hca_sim.Pipeline.run] on every Table-1 kernel, one row each: [ok]
   fills the cells after the name on success; a failure prints [prefix]
   then the error, padded with dashes.  A divergence from the reference
   interpreter fails the experiment; an unschedulable kernel is only a
   row. *)
let pipeline_table ctx ~title ~columns ~prefix ~ok =
  heading ctx title;
  let t = Hca_util.Tabular.create columns in
  let passed = ref true in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let r = Report.run reference ddg in
      let cells =
        match Hca_sim.Pipeline.run reference ~original:ddg r with
        | Ok p -> ok ddg r p
        | Error e ->
            let msg =
              match e with
              | Not_clusterised -> "no clusterisation"
              | Unschedulable m -> m
              | Diverged m ->
                  passed := false;
                  "DIVERGED: " ^ m
            in
            let cells = prefix r @ [ msg ] in
            cells @ List.init (List.length columns - 1 - List.length cells) (fun _ -> "-")
      in
      Hca_util.Tabular.add_row t (name :: cells))
    Hca_kernels.Registry.all;
  Hca_util.Tabular.print t;
  !passed

let sched ctx =
  pipeline_table ctx
    ~title:"Kernel-only modulo scheduling on the HCA placement (paper future work)"
    ~columns:
      [
        left "Loop"; right "final MII"; right "achieved II"; right "stages";
        right "occupancy"; right "max live"; right "speedup@100";
      ]
    ~prefix:(fun r -> [ mii_cell r.final_mii ])
    ~ok:(fun ddg r p ->
      let s = p.schedule in
      let rp =
        Hca_sched.Regpress.analyse ~ddg:p.expanded.ddg
          ~cn_of_instr:p.expanded.cn_of_node ~copy_latency:0 s
      in
      [
        mii_cell r.final_mii;
        string_of_int s.ii;
        string_of_int s.stages;
        Printf.sprintf "%.2f" s.occupancy;
        string_of_int rp.max_live;
        Printf.sprintf "%.1fx"
          (Hca_sched.Koms.speedup_vs_unpipelined (Hca_sched.Koms.analyse s)
             ~trip:100
             ~schedule_length:(Graph_algo.critical_path ddg + 1));
      ])

let simulate ctx =
  pipeline_table ctx
    ~title:
      "Machine simulation: the clusterised + scheduled kernel computes the \
       reference values"
    ~columns:
      [
        left "Loop"; left "Trace match"; right "II"; right "stages in flight";
        right "cycles (8 iters)"; right "dyn. instrs";
      ]
    ~prefix:(fun _ -> [])
    ~ok:(fun _ _ p ->
      [
        "yes";
        string_of_int p.schedule.ii;
        string_of_int p.stats.max_inflight;
        string_of_int p.stats.cycles;
        string_of_int p.stats.issued;
      ])

(* ------------------------------------------------------------------ *)
(* Ablations over the design choices listed in DESIGN.md §6.            *)
(* ------------------------------------------------------------------ *)

let ablation ctx =
  heading ctx
    "Ablations: final MII under degraded configurations (fir2dim / idcthor)";
  let variants =
    [
      ("default", Config.default);
      ("greedy (beam 1)", { Config.default with beam_width = 1; candidate_width = 1 });
      ("beam 16", { Config.default with beam_width = 16 });
      ("no router", { Config.default with enable_router = false });
      ("criticality order", { Config.default with priority = Config.Criticality });
      ("source order", { Config.default with priority = Config.Source_order });
      ("spread wires", { Config.default with mapper_spread = true });
      ("no backtracking", { Config.default with max_alternatives = 1 });
    ]
  in
  let kernels =
    [ ("fir2dim", Hca_kernels.Fir2dim.ddg); ("idcthor", Hca_kernels.Idcthor.ddg) ]
  in
  let t =
    Hca_util.Tabular.create
      (left "Variant"
      :: List.concat_map
           (fun (n, _) -> [ right (n ^ " MII"); right "legal" ])
           kernels)
  in
  List.iter
    (fun (vname, config) ->
      let cells =
        List.concat_map
          (fun (_, f) ->
            let r = Report.run ~config reference (f ()) in
            [ mii_cell r.final_mii; (if r.legal then "yes" else "no") ])
          kernels
      in
      Hca_util.Tabular.add_row t (vname :: cells))
    variants;
  Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let bechamel ctx =
  heading ctx "Bechamel timing (one Test.make per experiment family)";
  let open Bechamel in
  let open Toolkit in
  let hca_test name f =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Report.run ~jobs:ctx.jobs reference (f ()))))
  in
  (* One mid-size SEE problem: fir2dim on a complete 4-cluster pattern
     graph, as at one set level of the hierarchy. *)
  let see_problem name =
    let ddg = Hca_kernels.Fir2dim.ddg () in
    let pg =
      Pattern_graph.complete ~name
        ~capacities:(Array.make 4 { Resource.alus = 8; ags = 8 })
        ~max_in:4
    in
    Problem.of_ddg ~name ~ddg ~pg ()
  in
  let tests =
    List.map (fun (name, f) -> hca_test ("table1/" ^ name) f) Hca_kernels.Registry.all
    @ [
      Test.make ~name:"fig_bandwidth/fir2dim-narrow"
        (Staged.stage (fun () ->
             ignore
               (Report.run
                  (Dspfabric.make ~n:2 ~m:2 ~k:2 ())
                  (Hca_kernels.Fir2dim.ddg ()))));
      Test.make ~name:"fig_scaling/flat-fir2dim"
        (Staged.stage (fun () ->
             ignore
               (Hca_baseline.Flat_ica.run reference (Hca_kernels.Fir2dim.ddg ()))));
      Test.make ~name:"mii/rec-h264"
        (Staged.stage
           (let g = Hca_kernels.H264deblock.ddg () in
            fun () -> ignore (Mii.rec_mii g)));
      (* The hot paths the incremental-cost work targets: one SEE
         packing pass, the warm-cache cost summary, and the from-scratch
         recompute it replaced on the move path. *)
      (let see_problem = see_problem "bench-see" in
       let rec solved ii =
         if ii > 64 then invalid_arg "bench-see: no feasible II"
         else
           match See.solve see_problem ~ii with
           | Ok o -> (ii, o.See.state)
           | Error _ -> solved (ii + 1)
       in
       let see_ii, see_state =
         solved (Mii.rec_mii (Hca_kernels.Fir2dim.ddg ()))
       in
       Test.make_grouped ~name:"core" ~fmt:"%s/%s"
         [
           Test.make ~name:"see-solve-fir2dim"
             (Staged.stage (fun () -> ignore (See.solve see_problem ~ii:see_ii)));
           Test.make ~name:"state-summary-fir2dim"
             (Staged.stage (fun () -> ignore (State.summary see_state ~ii:see_ii)));
           Test.make ~name:"state-recompute-fir2dim"
             (Staged.stage (fun () ->
                  State.recompute_cost see_state ~target_ii:see_ii
                    ~weights:Cost.default_weights));
         ]);
      (* Batched frontier scoring, the SEE's move evaluator: one
         mid-search frontier state, every candidate cluster scored with
         its region-tear penalty. *)
      (let spec_problem = see_problem "bench-spec" in
       let ii = 8 and weights = Cost.default_weights in
       let st = ref (State.create spec_problem) in
       (* Park every node but the last on some legal cluster, leaving a
          deep frontier state with one unassigned node to score. *)
       let node = Problem.size spec_problem - 1 in
       for n = 0 to node - 1 do
         let rec try_from c =
           if c < 4 then
             match
               State.try_assign !st ~node:n ~cluster:c ~ii ~target_ii:ii
                 ~weights
             with
             | Ok st' -> st := st'
             | Error _ -> try_from (c + 1)
         in
         try_from 0
       done;
       let st = !st in
       let clusters = [| 0; 1; 2; 3 |] in
       let scores = Array.make (Array.length clusters) nan in
       Test.make ~name:"spec/batched-score-moves"
         (Staged.stage (fun () ->
              ignore
                (State.score_moves st ~node ~clusters ~ii ~target_ii:ii
                   ~weights ~tail_of_region:3 ~scores
                  : int))));
      Test.make ~name:"sched/modulo-fir2dim"
        (Staged.stage
           (let ddg = Hca_kernels.Fir2dim.ddg () in
            let r = Report.run reference ddg in
            let res = Option.get r.result in
            fun () ->
              ignore
                (Hca_sched.Modulo.run ~ddg
                   ~cn_of_instr:res.Hierarchy.cn_of_instr ~cns:64 ~dma_ports:8
                   ~start_ii:(Option.get r.final_mii) ())));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Extended workloads: loop shapes beyond Table 1.                      *)
(* ------------------------------------------------------------------ *)

let extended ctx =
  heading ctx "Extended kernels: loop shapes beyond Table 1";
  let t =
    Hca_util.Tabular.create
      [
        left "Kernel"; right "N_Instr"; right "ini MII"; left "Legal";
        right "Final MII"; right "copies"; right "wires";
      ]
  in
  let rows =
    Hca_util.Domain_pool.parallel_map ~jobs:(kernel_jobs ctx)
      (fun (name, f) ->
        let ddg = f () in
        let r, phases = profiled ctx (fun () -> Report.run reference ddg) in
        (name, r, phases))
      Hca_kernels.Extended.all
  in
  List.iter
    (fun (name, (r : Report.t), phases) ->
      let wires =
        Option.map (fun res -> Topology.wire_count (Topology.of_result res)) r.result
      in
      if ctx.json then
        emit ~experiment:"extended" ~kernel:name
          ([
             ("n_instr", jint r.n_instr);
             ("ini_mii", jint r.ini_mii);
             ("legal", jbool r.legal);
             ("final_mii", jopt_int r.final_mii);
             ("copies", jint r.copies);
             ("runtime_s", jfloat r.runtime_s);
             ("cache_hits", jint r.cache_hits);
             ("cache_misses", jint r.cache_misses);
             ("reused_subproblems", jint r.reused_subproblems);
             ("wires", jopt_int wires);
           ]
          @ alloc_fields r @ phases)
      else
        Hca_util.Tabular.add_row t
          [
            name;
            string_of_int r.n_instr;
            string_of_int r.ini_mii;
            (if r.legal then "yes" else "no");
            mii_cell r.final_mii;
            string_of_int r.copies;
            (match wires with Some w -> string_of_int w | None -> "-");
          ])
    rows;
  if not ctx.json then Hca_util.Tabular.print t

(* ------------------------------------------------------------------ *)

(* Name, one-line description, and the experiment; [false] means a
   check inside it failed. *)
let all : (string * string * (ctx -> bool)) list =
  let always f ctx = f ctx; true in
  [
    ("table1", "Table 1 (the paper's only table)", always (fun ctx -> table1 ctx));
    ("fig_bandwidth", "§5 claim: low bandwidth degrades MII", always fig_bandwidth);
    ("fig_scaling", "§7 claim: flat ICA vs HCA state space", always fig_scaling);
    ("fig_rcp", "Fig. 1: feasible topology on the RCP ring", always fig_rcp);
    ("fig_mapper", "Fig. 9: broadcast merge + copy balancing", always fig_mapper);
    ("baselines", "HCA vs unified / random / Chu partitioning", always baselines);
    ("optgap", "HCA vs the exact SAT oracle (8-CN fabric)", always optgap);
    ("extended", "loop shapes beyond Table 1", always extended);
    ("sched", "modulo scheduling on top of HCA (paper future work)", sched);
    ( "simulate",
      "the scheduled kernel against the reference interpreter (exits 1 on \
       divergence)",
      simulate );
    ("ablation", "design-choice ablations (DESIGN.md §6)", always ablation);
    ("bechamel", "wall-clock micro benchmarks (Bechamel)", always bechamel);
  ]
