(* hca: command-line front-end to the HCA reproduction.

   Subcommands:
     stats  <kernel>   static DDG statistics and MII bounds
     run    <kernel>   full HCA pass on a DSPFabric instance
     exact  <kernel>   SAT-based exact cluster-assignment oracle
     table1            reproduce Table 1 of the paper
     bench [EXP]...    the reproduction experiments (see bin/experiments.ml)
     dse               design-space sweep over machine descriptions
     dot    <kernel>   DOT dump (optionally clustered by assignment)
     serve             compile daemon (socket/stdio, persistent memo store)
     loadtest          replay generator traffic against a running daemon
     list              available kernels *)

open Cmdliner
open Hca_ddg
open Hca_machine
open Hca_core
open Hca_kernels

let kernel_conv =
  let parse s =
    match Registry.find s with
    | Some f -> Ok (s, f)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown kernel %S (try: %s)" s
               (String.concat ", " Registry.sorted)))
  in
  let print ppf (name, _) = Format.pp_print_string ppf name in
  Arg.conv (parse, print)

let kernel_arg =
  Arg.(
    required
    & pos 0 (some kernel_conv) None
    & info [] ~docv:"KERNEL" ~doc:"Kernel name (see $(b,hca list)).")

(* Parses a [.machine] file into (path, description) at option-parsing
   time, so a bad file is a usage error, not a mid-run crash. *)
let machine_file_conv =
  let parse s =
    match Hca_machine.Machine_io.read_file s with
    | Ok m -> Ok (s, m)
    | Error e -> Error (`Msg (Printf.sprintf "%s: %s" s e))
  in
  let print ppf (path, _) = Format.pp_print_string ppf path in
  Arg.conv (parse, print)

let fabric_term =
  let n =
    Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Level-0 MUX capacity.")
  in
  let m =
    Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Level-1 MUX capacity.")
  in
  let k =
    Arg.(
      value & opt int 8 & info [ "k" ] ~docv:"K" ~doc:"Leaf crossbar capacity.")
  in
  let machine =
    Arg.(
      value
      & opt (some machine_file_conv) None
      & info [ "machine" ]
          ~docv:"FILE"
          ~doc:
            "Load the machine from a .machine description $(docv) (see \
             $(b,hca dse)); overrides $(b,--n)/$(b,--m)/$(b,--k).")
  in
  let make machine n m k =
    match machine with
    | Some (_, desc) -> desc
    | None -> Dspfabric.make ~n ~m ~k ()
  in
  Term.(const make $ machine $ n $ m $ k)

let config_term =
  let beam =
    Arg.(
      value & opt int Config.default.Config.beam_width
      & info [ "beam" ] ~docv:"W" ~doc:"SEE beam width.")
  in
  let cand =
    Arg.(
      value
      & opt int Config.default.Config.candidate_width
      & info [ "candidates" ] ~docv:"C" ~doc:"Candidate-filter width.")
  in
  let spread =
    Arg.(
      value & flag
      & info [ "spread" ] ~doc:"Spread copies over all wires (Fig. 9 policy).")
  in
  let fanin_cap =
    Arg.(
      value
      & opt int Config.default.Config.leaf_feed_fanin_cap
      & info [ "fanin-cap" ] ~docv:"F"
          ~doc:"In-neighbour cap at the leaf-feeding level.")
  in
  let make beam_width candidate_width mapper_spread leaf_feed_fanin_cap =
    {
      Config.default with
      beam_width;
      candidate_width;
      mapper_spread;
      leaf_feed_fanin_cap;
    }
  in
  Term.(const make $ beam $ cand $ spread $ fanin_cap)

let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Size of the domain pool used to probe candidate IIs (or oracle \
           MII bounds) concurrently.  Results are identical at every N.")

let resources_of fabric = Dspfabric.resources fabric

let trace_meta () = [ ("git", Hca_util.Stamp.git_describe ()) ]

(* [--trace FILE]: record the run and save a Chrome trace-event /
   Perfetto JSON file next to whatever the subcommand prints. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path -> (
      Hca_obs.Obs.reset ();
      Hca_obs.Obs.enable ();
      (* Ctrl-C must unwind as [Sys.Break], or the [finally] below never
         runs and a long traced run dies with nothing on disk. *)
      Sys.catch_break true;
      match
        Fun.protect
          ~finally:(fun () ->
            Hca_obs.Obs.disable ();
            Hca_obs.Obs.Trace.write ~meta:(trace_meta ()) path;
            Printf.eprintf "trace written to %s\n%!" path)
          f
      with
      | v -> v
      | exception Sys.Break ->
          Printf.eprintf "interrupted; partial trace flushed\n%!";
          Stdlib.exit 130)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON file \
           (load it at https://ui.perfetto.dev): one track per domain, \
           spans for hierarchy levels / SEE / mapper / II probes.")

let stats_cmd =
  let run (name, f) fabric =
    let ddg = f () in
    let r = resources_of fabric in
    Format.printf "kernel %s@." name;
    Format.printf "  instructions : %d@." (Ddg.size ddg);
    Format.printf "  edges        : %d@." (Array.length (Ddg.edges ddg));
    Format.printf "  memory ops   : %d@." (Ddg.memory_ops ddg);
    Format.printf "  MIIRec       : %d@." (Mii.rec_mii ddg);
    Format.printf "  MIIRes       : %d (on %s)@." (Mii.res_mii ddg r)
      (Dspfabric.name fabric);
    Format.printf "  critical path: %d@." (Graph_algo.critical_path ddg)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Static DDG statistics and MII bounds")
    Term.(const run $ kernel_arg $ fabric_term)

let run_cmd =
  let run (name, f) fabric config jobs no_memo stats trace ii =
    ignore name;
    with_trace trace @@ fun () ->
    match ii with
    | None ->
        let report =
          Report.run ~config ~jobs ~memo:(not no_memo) fabric (f ())
        in
        Format.printf "%a@." Report.pp report;
        if stats then
          (* The memo block prints even when all counters are zero;
             a disabled memo is labelled, not elided. *)
          Format.printf
            "search stats: explored=%d routed=%d %s@."
            report.Report.explored_states report.Report.routed_moves
            (if not report.Report.memo_enabled then
               "memo disabled (--no-memo)"
             else
               Printf.sprintf "memo hits=%d misses=%d reused subproblems=%d"
                 report.Report.cache_hits report.Report.cache_misses
                 report.Report.reused_subproblems)
    | Some ii -> (
        (* Debug mode: a single HCA pass at a fixed II. *)
        let ddg = f () in
        let target_ii = Mii.mii ddg (Dspfabric.resources fabric) in
        match Hierarchy.solve ~config ~target_ii fabric ddg ~ii with
        | Error e -> Format.printf "II=%d failed: %s@." ii e
        | Ok res ->
            let m = Metrics.of_result res in
            let legal = Coherency.is_legal res in
            Format.printf "II=%d: %a legal=%b@." ii Metrics.pp m legal)
  in
  let ii_arg =
    Arg.(
      value & opt (some int) None
      & info [ "ii" ] ~docv:"II" ~doc:"Single fixed II (debug).")
  in
  let no_memo =
    Arg.(
      value & flag
      & info [ "no-memo" ]
          ~doc:
            "Disable the cross-probe subproblem memo cache.  Every field \
             except the runtime is identical with or without it.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print a search-statistics line (explored states, routed moves, \
             memo hits/misses, reused subproblems).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run HCA on one kernel")
    Term.(
      const run $ kernel_arg $ fabric_term $ config_term $ jobs_term $ no_memo
      $ stats $ trace_arg $ ii_arg)

let profile_cmd =
  let run (name, f) fabric config jobs no_memo trace =
    ignore name;
    Hca_obs.Obs.reset ();
    Hca_obs.Obs.enable ();
    let report = Report.run ~config ~jobs ~memo:(not no_memo) fabric (f ()) in
    Hca_obs.Obs.disable ();
    Format.printf "%a@.@." Report.pp report;
    Hca_obs.Obs.Summary.print (Hca_obs.Obs.Summary.collect ());
    match trace with
    | None -> ()
    | Some path ->
        Hca_obs.Obs.Trace.write ~meta:(trace_meta ()) path;
        Printf.eprintf "trace written to %s\n%!" path
  in
  let no_memo =
    Arg.(
      value & flag
      & info [ "no-memo" ] ~doc:"Profile without the subproblem memo cache.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run HCA on one kernel under the tracer and print aggregated \
          per-phase wall-clock/self-time, counter and histogram tables")
    Term.(
      const run $ kernel_arg $ fabric_term $ config_term $ jobs_term $ no_memo
      $ trace_arg)

let tracecheck_cmd =
  let run file expects quiet =
    match Hca_obs.Trace_check.validate_file file with
    | Error e ->
        Printf.eprintf "INVALID trace %s: %s\n" file e;
        exit 1
    | Ok st ->
        Printf.printf "valid Chrome trace: %d events, %d track(s)\n"
          st.Hca_obs.Trace_check.events
          (List.length st.Hca_obs.Trace_check.tracks);
        if not quiet then begin
          List.iter
            (fun (tid, n) -> Printf.printf "  domain %d: %d span(s)\n" tid n)
            st.Hca_obs.Trace_check.tracks;
          List.iter
            (fun (name, n) -> Printf.printf "  span %-20s x%d\n" name n)
            st.Hca_obs.Trace_check.span_names
        end;
        let missing =
          List.filter
            (fun e ->
              not (List.mem_assoc e st.Hca_obs.Trace_check.span_names))
            expects
        in
        if missing <> [] then begin
          Printf.eprintf "missing expected span(s): %s\n"
            (String.concat ", " missing);
          exit 1
        end
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.json" ~doc:"Trace file to validate.")
  in
  let expects =
    Arg.(
      value & opt_all string []
      & info [ "expect" ] ~docv:"NAME"
          ~doc:"Fail unless at least one completed span has this name \
                (repeatable).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the verdict.")
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:
         "Validate a Chrome trace-event JSON file (well-formed JSON, \
          balanced per-track span nesting)")
    Term.(const run $ file $ expects $ quiet)

let table1_cmd =
  let run fabric config =
    Experiments.table1 ~fabric ~config
      { json = false; profile = false; jobs = 1; oracle_budget = None; max_n = None }
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table 1 of the paper")
    Term.(const run $ fabric_term $ config_term)

let bench_cmd =
  let experiments =
    Arg.(
      value
      & pos_all (enum (List.map (fun ((n, _, _) as e) -> (n, e)) Experiments.all)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run, in order (default: all of them).")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let json =
    flag "json"
      "Print the per-kernel experiments (table1, fig_scaling, extended, \
       optgap) as NDJSON rows, each stamped with config_hash and git."
  in
  let profile =
    flag "profile"
      "Trace each kernel of the JSON experiments and append per-phase \
       wall-clock columns; kernel-axis parallelism drops to 1."
  in
  let telemetry =
    flag "telemetry"
      "Arm the daemon's flight-recorder ring for the whole run.  Rows keep \
       their names, so a plain and an armed run compare row for row."
  in
  let oracle_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "oracle-budget" ] ~docv:"SECONDS"
          ~doc:"optgap: per-kernel oracle budget (default 10 s up to 24 \
                instructions, else 5 s).")
  in
  let max_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-n" ] ~docv:"N" ~doc:"optgap: skip kernels above $(docv) instructions.")
  in
  let run experiments json profile telemetry jobs oracle_budget max_n =
    let bad p = function Some v -> not (p v) | None -> false in
    if jobs < 1 || bad (fun b -> b > 0.) oracle_budget || bad (fun m -> m >= 1) max_n
    then `Error (true, "--jobs, --oracle-budget and --max-n must be positive")
    else begin
      if telemetry then Hca_obs.Obs.Ring.arm ();
      let ctx = { Experiments.json; profile; jobs; oracle_budget; max_n } in
      let chosen = if experiments = [] then Experiments.all else experiments in
      (* Run every chosen experiment, then fail if any check failed. *)
      let passed = List.map (fun (_, _, f) -> f ctx) chosen in
      if List.for_all Fun.id passed then `Ok () else exit 1
    end
  in
  let man =
    `S Manpage.s_description
    :: `P "The paper's evaluation, one experiment per claim:"
    :: List.map (fun (name, doc, _) -> `I (name, doc)) Experiments.all
  in
  Cmd.v
    (Cmd.info "bench" ~man
       ~doc:"Run the reproduction experiments (Table 1 and the paper's claims)")
    Term.(
      ret
        (const run $ experiments $ json $ profile $ telemetry $ jobs_term
       $ oracle_budget $ max_n))

(* hca dse: enumerate/sample machine points, evaluate every (machine x
   kernel) pair on the domain pool, and report the Pareto front over
   (suite MII, machine wire cost, CN count).  The NDJSON is a pure
   function of the sweep spec, so CI can diff it against a committed
   baseline at any --jobs. *)
let dse_cmd =
  let fanout_shapes_conv =
    let parse s =
      let shape_of t =
        let parts = String.split_on_char 'x' t in
        let dims = List.filter_map int_of_string_opt parts in
        if List.length dims = List.length parts && dims <> [] then
          Ok (Array.of_list dims)
        else Error (`Msg (Printf.sprintf "bad fan-out shape %S (want e.g. 4x4)" t))
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: tl -> (
            match shape_of t with
            | Ok shape -> go (shape :: acc) tl
            | Error _ as e -> e)
      in
      go [] (String.split_on_char ',' s)
    in
    let print ppf shapes =
      Format.pp_print_string ppf
        (String.concat ","
           (List.map
              (fun a ->
                String.concat "x"
                  (Array.to_list (Array.map string_of_int a)))
              shapes))
    in
    Arg.conv (parse, print)
  in
  let machines =
    Arg.(
      value
      & opt_all machine_file_conv []
      & info [ "machine" ] ~docv:"FILE"
          ~doc:"Explicit sweep point from a .machine $(docv) (repeatable).")
  in
  let grid_fanouts =
    Arg.(
      value
      & opt fanout_shapes_conv []
      & info [ "grid-fanouts" ] ~docv:"SHAPES"
          ~doc:
            "Comma-separated hierarchy shapes for the grid, e.g. \
             $(b,4x4x4,2x2).")
  in
  let grid_caps =
    Arg.(
      value & opt (list int) []
      & info [ "grid-caps" ] ~docv:"CAPS"
          ~doc:"MUX capacities for the grid (each $(i,c) is N=M=K=c).")
  in
  let grid_dma =
    Arg.(
      value & opt (list int) [ 8 ]
      & info [ "grid-dma" ] ~docv:"PORTS" ~doc:"DMA port counts for the grid.")
  in
  let random =
    Arg.(
      value & opt int 0
      & info [ "random" ] ~docv:"N"
          ~doc:"Sample $(docv) additional points with the seeded generator.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"First seed of the random points.")
  in
  let hetero =
    Arg.(
      value & opt float 0.
      & info [ "hetero" ] ~docv:"P"
          ~doc:
            "Probability of a heterogeneous resource table per CN in the \
             random points.")
  in
  let kernels =
    Arg.(
      value
      & opt (list kernel_conv) Registry.all
      & info [ "kernels" ] ~docv:"NAMES"
          ~doc:"Kernel suite to score against (default: the paper kernels).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the NDJSON rows to $(docv).")
  in
  let timing =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Append a dse_meta/sweep row with the wall clock to the NDJSON \
             (off by default: without it the output is byte-identical at \
             any --jobs).")
  in
  let run machines grid_fanouts grid_caps grid_dma random seed hetero kernels
      config jobs out timing =
    let t0 = Hca_util.Clock.now () in
    let explicit = Hca_gen.Dse.machine_points machines in
    let grid =
      if grid_fanouts = [] || grid_caps = [] then []
      else
        Hca_gen.Dse.grid_points ~dma:grid_dma ~fanouts:grid_fanouts
          ~caps:grid_caps ()
    in
    let sampled =
      if random <= 0 then []
      else Hca_gen.Dse.random_points ~hetero ~count:random ~seed ()
    in
    let points =
      match explicit @ grid @ sampled with
      | [] ->
          (* The stock 8-point space: every shape the fuzzer draws, at
             starved and paper capacities. *)
          Hca_gen.Dse.grid_points ~dma:grid_dma
            ~fanouts:[ [| 4; 4; 4 |]; [| 4; 4 |]; [| 2; 2; 2 |]; [| 4; 2 |] ]
            ~caps:[ 4; 8 ] ()
      | pts -> pts
    in
    let kernels = List.map (fun (name, f) -> (name, f ())) kernels in
    let result = Hca_gen.Dse.run ~config ~jobs ~kernels points in
    print_string (Hca_gen.Dse.ranked_table result);
    Format.printf "@.Pareto front (MII x wires x CNs):@.";
    List.iter
      (fun (s : Hca_gen.Dse.summary) ->
        Format.printf "  %s  score=%d wires=%d cns=%d (%s)@." s.point
          (Option.get s.score) s.machine_wires s.cns s.machine)
      result.Hca_gen.Dse.front;
    if result.Hca_gen.Dse.front = [] then
      Format.printf "  (no point mapped the whole suite)@.";
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Hca_gen.Dse.to_ndjson result);
        if timing then
          output_string oc
            (let open Hca_util.Json in
             let count l = Num (float_of_int (List.length l)) in
             row ~experiment:"dse_meta" ~kernel:"sweep"
               [
                 ("points", count points);
                 ("kernels", count kernels);
                 ("rows", count result.Hca_gen.Dse.evals);
                 ("runtime_s", decimals 3 (Hca_util.Clock.now () -. t0));
               ]);
        close_out oc;
        Printf.printf "rows written to %s\n" path);
    match Hca_gen.Dse.check result with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "dse: self-check failed: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Design-space sweep: score machine descriptions across a kernel \
          suite and report the Pareto front")
    Term.(
      const run $ machines $ grid_fanouts $ grid_caps $ grid_dma $ random
      $ seed $ hetero $ kernels $ config_term $ jobs_term $ out $ timing)

let dot_cmd =
  let run (name, f) fabric assigned =
    ignore name;
    let ddg = f () in
    if not assigned then print_string (Ddg_io.to_dot ddg)
    else
      let report = Report.run fabric ddg in
      match report.Report.result with
      | None -> prerr_endline "clusterisation failed; dumping flat DDG";
               print_string (Ddg_io.to_dot ddg)
      | Some res ->
          let cluster_of i =
            Some (Printf.sprintf "CN %d" res.Hierarchy.cn_of_instr.(i))
          in
          print_string (Ddg_io.to_dot ~cluster_of ddg)
  in
  let assigned =
    Arg.(
      value & flag
      & info [ "assigned" ] ~doc:"Group nodes by their assigned CN.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Dump the kernel DDG as Graphviz DOT")
    Term.(const run $ kernel_arg $ fabric_term $ assigned)

let fixed_ii_arg =
  Arg.(
    value & opt (some int) None
    & info [ "ii" ] ~docv:"II" ~doc:"Fixed II (default: iniMII).")

let explain_cmd =
  let run (name, f) fabric config ii =
    ignore name;
    let ddg = f () in
    let ii =
      match ii with
      | Some ii -> ii
      | None -> Mii.mii ddg (Dspfabric.resources fabric)
    in
    match Hierarchy.solve ~config fabric ddg ~ii with
    | Error e -> Format.printf "II=%d failed: %s@." ii e
    | Ok res ->
        Format.printf "II=%d solved; per-subproblem breakdown:@." ii;
        List.iter
          (fun (sub : Hierarchy.subresult) ->
            let flow = State.flow sub.Hierarchy.state in
            let pg = Problem.pg sub.Hierarchy.problem in
            let regs = Hca_machine.Pattern_graph.regular_nodes pg in
            let loads =
              List.map
                (fun (nd : Hca_machine.Pattern_graph.node) ->
                  List.length
                    (State.cluster_nodes sub.Hierarchy.state nd.id))
                regs
            in
            Format.printf
              "  [%s] ws=%s copies=%d in-ports=%d out-ports=%d wire<=%d@."
              (String.concat "," (List.map string_of_int sub.Hierarchy.path))
              (String.concat "/" (List.map string_of_int loads))
              (Hca_machine.Copy_flow.copy_count flow)
              (List.length (Hca_machine.Pattern_graph.in_ports pg))
              (List.length (Hca_machine.Pattern_graph.out_ports pg))
              sub.Hierarchy.mapres.Mapper.max_wire_load)
          (Hierarchy.subresults res);
        let m = Metrics.of_result res in
        Format.printf "%a legal=%b@." Metrics.pp m (Coherency.is_legal res)
  in
  Cmd.v (Cmd.info "explain" ~doc:"Per-subproblem breakdown of one HCA pass")
    Term.(const run $ kernel_arg $ fabric_term $ config_term $ fixed_ii_arg)

let level0_cmd =
  let run (name, f) fabric config ii =
    ignore name;
    let ddg = f () in
    let ii =
      match ii with
      | Some ii -> ii
      | None -> Mii.mii ddg (Dspfabric.resources fabric)
    in
    let view = Dspfabric.level_view fabric ~level:0 in
    let pg =
      Hca_machine.Pattern_graph.complete ~name:"level0"
        ~capacities:(Dspfabric.child_capacities fabric ~path:[])
        ~max_in:view.Dspfabric.mux_capacity
    in
    let problem = Problem.of_ddg ~name:"level0" ~ddg ~pg () in
    match See.solve ~config problem ~ii with
    | Error e -> Format.printf "level0 failed: %s@." e
    | Ok outcome ->
        let st = outcome.See.state in
        let flow = State.flow st in
        Format.printf "ws:";
        List.iter
          (fun (nd : Hca_machine.Pattern_graph.node) ->
            Format.printf " %d" (List.length (State.cluster_nodes st nd.id)))
          (Hca_machine.Pattern_graph.regular_nodes pg);
        Format.printf "@.arcs:@.";
        List.iter
          (fun (src, dst, vs) ->
            Format.printf "  %d -> %d : %d values@." src dst (List.length vs))
          (Hca_machine.Copy_flow.arcs flow);
        Format.printf "total copies: %d@."
          (Hca_machine.Copy_flow.copy_count flow)
  in
  Cmd.v
    (Cmd.info "level0" ~doc:"Solve and dump only the level-0 subproblem")
    Term.(const run $ kernel_arg $ fabric_term $ config_term $ fixed_ii_arg)

let topology_cmd =
  let run (name, f) fabric config =
    ignore name;
    let report = Report.run ~config fabric (f ()) in
    match report.Report.result with
    | None -> prerr_endline "clusterisation failed"; exit 1
    | Some res -> print_string (Topology.to_string (Topology.of_result res))
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Emit the reconfiguration program of the selected topology")
    Term.(const run $ kernel_arg $ fabric_term $ config_term)

(* Compile, then run the post-mapping pipeline; any pipeline error is
   printed and exits 1. *)
let pipeline_cmd (_, f) fabric config ?iterations k =
  let ddg = f () in
  let report = Report.run ~config fabric ddg in
  match Hca_sim.Pipeline.run ?iterations fabric ~original:ddg report with
  | Ok p -> k report p
  | Error e ->
      prerr_endline (Hca_sim.Pipeline.error_to_string e);
      exit 1

let sched_cmd =
  let run kernel fabric config =
    pipeline_cmd kernel fabric config @@ fun report p ->
    let exp = p.expanded and s = p.schedule in
    Printf.printf "expanded DDG: %d nodes (%d receives, %d forwards)\n"
      (Ddg.size exp.ddg) exp.recv_count exp.forward_count;
    Printf.printf
      "modulo schedule: II=%d (final MII %d), %d stages, occupancy %.2f\n"
      s.ii (Option.get report.Report.final_mii) s.stages s.occupancy
  in
  Cmd.v (Cmd.info "sched" ~doc:"Modulo-schedule the clusterised kernel end to end")
    Term.(const run $ kernel_arg $ fabric_term $ config_term)

let simulate_cmd =
  let run kernel fabric config iterations =
    pipeline_cmd kernel fabric config ~iterations @@ fun _ p ->
    Printf.printf
      "simulated %d iterations: trace matches the reference (%d stores, %d \
       cycles, %d dynamic instructions)\n"
      iterations
      (List.length p.stats.trace)
      p.stats.cycles p.stats.issued
  in
  let iters =
    Arg.(
      value & opt int 8
      & info [ "iterations" ] ~docv:"N" ~doc:"Loop iterations to simulate.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the compiled kernel on the machine simulator and check \
             it against the reference interpreter (exits 1 on divergence)")
    Term.(const run $ kernel_arg $ fabric_term $ config_term $ iters)

let portfolio_cmd =
  let run (name, f) fabric jobs trace =
    ignore name;
    with_trace trace @@ fun () ->
    let report, winner = Portfolio.run ~jobs fabric (f ()) in
    Format.printf "%a@.winning configuration: %s@." Report.pp report winner
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Run the configuration portfolio and keep the best result")
    Term.(const run $ kernel_arg $ fabric_term $ jobs_term $ trace_arg)

let rcp_cmd =
  let run (name, f) ports =
    ignore name;
    let rcp = Rcp.make ~in_ports:ports () in
    match Rcp_driver.solve rcp (f ()) with
    | Error e ->
        Printf.printf "no feasible topology: %s\n" e;
        exit 1
    | Ok r ->
        Format.printf "%a@." Rcp_driver.pp r;
        (match Rcp_driver.validate r with
        | Ok () -> print_endline "topology validated"
        | Error es ->
            List.iter print_endline es;
            exit 1)
  in
  let ports =
    Arg.(
      value & opt int 2
      & info [ "ports" ] ~docv:"K" ~doc:"Input ports per cluster.")
  in
  Cmd.v
    (Cmd.info "rcp" ~doc:"Map a kernel onto the RCP ring (Fig. 1)")
    Term.(const run $ kernel_arg $ ports)

let exact_cmd =
  let module O = Hca_exact.Oracle in
  let run (name, f) fabric budget strict max_ii jobs no_hca no_reuse trace =
    ignore jobs;
    let ddg = f () in
    with_trace trace @@ fun () ->
    Format.printf "kernel %s on %s@." name (Dspfabric.name fabric);
    (* Heuristic first: its final MII seeds the oracle's downward walk
       (feasible by construction in relaxed mode), so the budget goes
       into tightening the bound instead of rediscovering a model. *)
    let report = if no_hca then None else Some (Report.run fabric ddg) in
    let incumbent =
      match report with
      | Some r when r.Report.legal -> r.Report.final_mii
      | _ -> None
    in
    let oracle =
      O.run ~strict ~budget_s:budget ?max_ii ?incumbent ~reuse:(not no_reuse)
        fabric ddg
    in
    Format.printf "%a@." O.pp oracle;
    List.iter
      (fun (p : O.probe) ->
        Format.printf
          "  probe k=%d: %s in %.3fs (conflicts %d, props %d, learnt %d, \
           reused %d)@."
          p.O.k
          (match p.O.verdict with
          | Hca_exact.Sat.Sat -> "sat"
          | Hca_exact.Sat.Unsat -> "unsat"
          | Hca_exact.Sat.Unknown -> "unknown")
          p.O.time_s p.O.conflicts p.O.propagations p.O.learnt p.O.reused)
      oracle.O.probes;
    match report with
    | None -> ()
    | Some report -> (
        match report.Report.final_mii with
        | None -> Format.printf "HCA heuristic: no legal clusterisation@."
        | Some hca -> (
            Format.printf "HCA heuristic final MII: %d@." hca;
            match (O.gap oracle ~achieved:hca, oracle.O.status) with
            | Some g, O.Optimal -> Format.printf "optimality gap: %.2f@." g
            | Some g, _ ->
                Format.printf
                  "gap upper bound: %.2f (vs certified lower bound %d)@." g
                  oracle.O.lower_bound
            | None, _ -> ()))
  in
  let budget =
    Arg.(
      value & opt float 10.
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the whole MII binary search.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Also encode structural MUX fan-in and out-wire clauses \
                (models the fabric wiring instead of the certified \
                lower-bound relaxation).")
  in
  let max_ii =
    Arg.(
      value & opt (some int) None
      & info [ "max-ii" ] ~docv:"K" ~doc:"Cap the MII search range.")
  in
  let no_hca =
    Arg.(
      value & flag
      & info [ "no-hca" ]
          ~doc:"Skip the HCA heuristic run, the gap comparison and the \
                incumbent seeding of the oracle walk.")
  in
  let no_reuse =
    Arg.(
      value & flag
      & info [ "no-reuse" ]
          ~doc:"Drop learnt clauses between MII probes instead of carrying \
                them across the walk (the control arm of the incremental \
                solver; verdicts are identical, only the work differs).")
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Exact SAT-based cluster-assignment oracle (optimality gap)")
    Term.(
      const run $ kernel_arg $ fabric_term $ budget $ strict $ max_ii
      $ jobs_term $ no_hca $ no_reuse $ trace_arg)

let fuzz_cmd =
  let module G = Hca_gen.Gen in
  let run seed count minimize corpus replay gap jobs verbose max_size =
    let log = print_endline in
    match replay with
    | Some dir ->
        let opts = { Hca_gen.Corpus.replay_opts with Hca_gen.Diff.jobs } in
        let total, bad = Hca_gen.Fuzz.replay_dir ~opts ~log dir in
        Printf.printf "replayed %d reproducers, %d mismatches\n" total bad;
        if bad > 0 then exit 1
    | None ->
        let opts = { Hca_gen.Diff.default_opts with Hca_gen.Diff.jobs } in
        let ddg_knobs =
          match max_size with
          | None -> G.default_ddg_knobs
          | Some m ->
              {
                G.default_ddg_knobs with
                G.max_size = m;
                min_size = min m G.default_ddg_knobs.G.min_size;
              }
        in
        let stats =
          Hca_gen.Fuzz.run ~opts ~ddg_knobs ~minimize ~corpus_dir:corpus
            ?gap_threshold:gap ~verbose ~log ~seed ~count ()
        in
        if stats.Hca_gen.Fuzz.failed > 0 then exit 1
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"First seed of the campaign.")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of seeds to fuzz.")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Shrink every finding to a minimal reproducer and write it \
                to the corpus directory.")
  in
  let corpus =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Where minimized reproducers are written.")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:"Replay every reproducer in $(docv) instead of fuzzing; \
                exits non-zero on any verdict mismatch.")
  in
  let gap =
    Arg.(
      value & opt (some int) None
      & info [ "find-gap" ] ~docv:"G"
          ~doc:"Also report (and shrink) instances whose proven optimality \
                gap reaches $(docv) — mines heuristic-miss regression \
                instances.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print the verdict line of passing seeds too.")
  in
  let max_size =
    Arg.(
      value & opt (some int) None
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Cap the generated kernel size (default 24).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random kernels and machines through the \
             whole pipeline, cross-checked against the coherency checker, \
             the SAT oracle and the machine simulator")
    Term.(
      const run $ seed $ count $ minimize $ corpus $ replay $ gap $ jobs_term
      $ verbose $ max_size)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/hca.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Persistent memo store: the cross-request subproblem cache is \
           loaded from $(docv) at startup (ignored when stale) and flushed \
           back on graceful shutdown, so a restarted daemon starts warm.")

let serve_cmd =
  let run socket stdio jobs store trace log log_level trace_sample trace_dir
      slow_ms no_flight flight_capacity =
    (* The log sink comes up before anything else so that even the
       store loading at daemon creation is covered. *)
    (match log with
    | None -> ()
    | Some "stderr" -> Hca_obs.Obs.Log.to_stderr ()
    | Some file -> Hca_obs.Obs.Log.to_file file);
    (match Hca_obs.Obs.Log.level_of_string log_level with
    | Some l -> Hca_obs.Obs.Log.set_level l
    | None ->
        Printf.eprintf "hca serve: unknown log level %S (want debug|info|warn|error)\n"
          log_level;
        exit 2);
    let telemetry =
      {
        Hca_serve.Daemon.trace_sample;
        slow_ms;
        flight = not no_flight;
        flight_capacity;
        trace_dir =
          Option.value
            ~default:Hca_serve.Daemon.default_telemetry.Hca_serve.Daemon.trace_dir
            trace_dir;
      }
    in
    if stdio then
      Hca_serve.Daemon.run_stdio ~jobs ?store_path:store ~telemetry ()
    else
      Hca_serve.Daemon.run_socket ~path:socket ~jobs ?store_path:store ?trace
        ~telemetry ()
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve one client over stdin/stdout instead of binding the \
             socket (EOF shuts the daemon down gracefully).")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains solving queued requests (the serving loop is \
             not one of them).")
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Structured logging: append one JSON object per lifecycle event \
             (submit, start, finish, cancel, expiry, crash, store flush, \
             connection churn) to $(docv), or to stderr when $(docv) is \
             $(b,stderr).")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Minimum level reaching the log sink: debug|info|warn|error.")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Trace every $(docv)-th request (by id) into a per-request \
             Chrome trace file, as if it had been submitted with \
             trace:true.  0 (default) traces only explicit requests.")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Where per-request traces (req-<id>.json) and flight-recorder \
             dumps (flight-<id>.json) are written (created on demand; \
             default: hca-traces under the system temp directory).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Dump the flight recorder for any request slower than $(docv) \
             milliseconds end-to-end, even when it succeeds.")
  in
  let no_flight =
    Arg.(
      value & flag
      & info [ "no-flight" ]
          ~doc:
            "Disarm the always-on flight recorder (a fixed-size ring of \
             recent events dumped post-mortem when a request crashes, \
             misses its deadline or trips $(b,--slow-ms)).")
  in
  let flight_capacity =
    Arg.(
      value & opt int 4096
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Flight-recorder ring slots per domain.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile daemon: line-delimited JSON requests (submit / \
          status / result / cancel / stats / metrics) over a Unix socket \
          or stdio, with a persistent cross-request subproblem memo store, \
          structured logging, live metrics, per-request tracing and a \
          flight recorder")
    Term.(
      const run $ socket_arg $ stdio $ jobs $ store_arg $ trace_arg $ log
      $ log_level $ trace_sample $ trace_dir $ slow_ms $ no_flight
      $ flight_capacity)

let loadtest_cmd =
  let run socket count jobs seed max_size deadline verify out =
    match
      Hca_serve.Loadtest.run ~path:socket ~count ~jobs ~seed0:seed ?max_size
        ?deadline_s:deadline ~verify ?json_out:out ()
    with
    | Error e ->
        Printf.eprintf "loadtest failed: %s\n" e;
        exit 1
    | Ok s ->
        Hca_serve.Loadtest.print_summary s;
        if s.Hca_serve.Loadtest.verify_mismatches > 0 then begin
          Printf.eprintf
            "loadtest: %d served result(s) differ from local one-shot runs\n"
            s.Hca_serve.Loadtest.verify_mismatches;
          exit 1
        end
  in
  let count =
    Arg.(
      value & opt int 25
      & info [ "count" ] ~docv:"N" ~doc:"Requests to submit.")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Client workers, one connection each.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"First generator seed.")
  in
  let max_size =
    Arg.(
      value & opt (some int) None
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Cap the generated kernel size (default 24).")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline (queue wait included).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-run every request locally and require the served result to \
             be bit-identical (exit 1 otherwise).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write bench-style NDJSON rows (per seed + aggregate).")
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Replay seeded generator traffic against a running daemon and \
          report throughput, latency tails and cache effectiveness")
    Term.(
      const run $ socket_arg $ count $ jobs $ seed $ max_size $ deadline
      $ verify $ out)

let top_cmd =
  let module J = Hca_util.Json in
  let fetch socket line =
    match Hca_serve.Loadtest.rpc_once ~path:socket line with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "hca top: %s\n" e;
        exit 1
  in
  (* Client-side sanity check of the exposition: every non-comment line
     must be "<series> <float>".  A scrape that passes here parses in
     any Prometheus-text consumer. *)
  let check_prometheus text =
    let bad = ref 0 in
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' then
          let ok =
            match String.rindex_opt line ' ' with
            | None -> false
            | Some i ->
                String.length line > i + 1
                && float_of_string_opt
                     (String.sub line (i + 1) (String.length line - i - 1))
                   <> None
          in
          if not ok then begin
            incr bad;
            Printf.eprintf "hca top: bad series line %S\n" line
          end)
      (String.split_on_char '\n' text);
    !bad = 0
  in
  let fnum j k =
    Option.value ~default:0. (Option.bind (J.member k j) J.num)
  in
  let inum j k = int_of_float (fnum j k) in
  let fields = function Some (J.Obj l) -> l | _ -> [] in
  let render socket stats metrics =
    Printf.printf "hca daemon @ %s  (up %.1f s, stamp %s)\n" socket
      (fnum stats "uptime_s")
      (Option.value ~default:"-"
         (Option.bind (J.member "stamp" stats) J.str));
    Printf.printf
      "jobs: %d submitted | %d finished | %d queued | %d running | %d \
       cancelled | %d expired | %d crashed\n"
      (inum stats "submitted") (inum stats "finished") (inum stats "queued")
      (inum stats "running")
      (inum stats "cancelled")
      (inum stats "expired") (inum stats "crashed")
;
    Printf.printf
      "cache: +%d hits / +%d misses | %d entries (%d loaded at start)\n"
      (inum stats "cache_hits") (inum stats "cache_misses")
      (inum stats "cache_entries")
      (inum stats "loaded_entries");
    Printf.printf
      "latency ms: p50 %.1f  p95 %.1f  p99 %.1f | %d trace file(s), %d \
       flight dump(s)\n"
      (fnum stats "latency_p50_ms")
      (fnum stats "latency_p95_ms")
      (fnum stats "latency_p99_ms")
      (inum stats "trace_files")
      (inum stats "flight_dumps");
    let m = J.member "metrics" metrics in
    let section name =
      Option.bind m (fun m -> J.member name m) |> fun o -> fields o
    in
    let counters = section "counters" and gauges = section "gauges" in
    if counters <> [] then begin
      print_endline "counters:";
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-48s %d\n" name
            (Option.value ~default:0 (J.int v)))
        counters
    end;
    if gauges <> [] then begin
      print_endline "gauges:";
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-48s %g\n" name (Option.value ~default:0. (J.num v)))
        gauges
    end;
    let hists = section "histograms" in
    if hists <> [] then begin
      print_endline "histograms (count / mean):";
      List.iter
        (fun (name, h) ->
          let count = inum h "count" and sum = fnum h "sum" in
          Printf.printf "  %-48s %6d  %g\n" name count
            (if count > 0 then sum /. float_of_int count else 0.))
        hists
    end
  in
  let run socket interval once prometheus check =
    if prometheus then begin
      let j = fetch socket {|{"verb":"metrics","format":"prometheus"}|} in
      let text =
        Option.value ~default:""
          (Option.bind (J.member "prometheus" j) J.str)
      in
      print_string text;
      if check && not (check_prometheus text) then exit 1
    end
    else
      let rec loop () =
        let stats = fetch socket {|{"verb":"stats"}|} in
        let metrics = fetch socket {|{"verb":"metrics"}|} in
        if not once then print_string "\027[2J\027[H";
        render socket stats metrics;
        flush stdout;
        if not once then begin
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ()
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print one snapshot and exit (no screen clear).")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Print one raw Prometheus text exposition scrape instead of the \
             dashboard, ready to pipe into a scraper or a file.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "With $(b,--prometheus): validate every series line client-side \
             (name then float) and exit non-zero on any malformed line.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running daemon: polls the stats and metrics \
          verbs and renders queue depth, outcome counters, memo \
          effectiveness and latency tails")
    Term.(const run $ socket_arg $ interval $ once $ prometheus $ check)

let list_cmd =
  let run () =
    let table1 = List.sort compare Registry.names in
    print_endline "Table 1 kernels:";
    List.iter (fun n -> print_endline ("  " ^ n)) table1;
    print_endline "extended kernels:";
    List.iter
      (fun n -> if not (List.mem n table1) then print_endline ("  " ^ n))
      Registry.sorted
  in
  Cmd.v (Cmd.info "list" ~doc:"List available kernels") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "hca" ~version:"1.0.0"
      ~doc:"Hierarchical Cluster Assignment for DSPFabric (IPPS 2007 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info [ stats_cmd; run_cmd; profile_cmd; tracecheck_cmd; exact_cmd; table1_cmd; bench_cmd; dse_cmd; dot_cmd; explain_cmd; level0_cmd; topology_cmd; sched_cmd; simulate_cmd; portfolio_cmd; rcp_cmd; fuzz_cmd; serve_cmd; loadtest_cmd; top_cmd; list_cmd ]))
