(* Cross-module integration and property tests: the full HCA pipeline
   on synthetic workloads, architecture sweeps, and end-to-end
   invariants tying assignment, coherence and scheduling together. *)

open Hca_machine
open Hca_core

let reference = Dspfabric.reference

let run_hca ?(fabric = reference) ddg = Report.run fabric ddg

(* --- synthetic pipeline sweeps ------------------------------------------- *)

let synth ~size ~seed ~recurrence =
  Hca_kernels.Synthetic.generate
    {
      Hca_kernels.Synthetic.default with
      size;
      seed;
      recurrences = (if recurrence > 0 then 1 else 0);
      recurrence_latency = max 1 recurrence;
    }

let test_synthetic_pipeline_legal () =
  (* A spread of sizes and shapes must all clusterise legally. *)
  List.iter
    (fun (size, seed, recurrence) ->
      let ddg = synth ~size ~seed ~recurrence in
      let report = run_hca ddg in
      Alcotest.(check bool)
        (Printf.sprintf "legal size=%d seed=%d" size seed)
        true report.Report.legal)
    [ (16, 1, 0); (24, 2, 2); (48, 3, 3); (64, 4, 0); (96, 5, 4) ]

let test_final_mii_dominates_bounds () =
  List.iter
    (fun seed ->
      let ddg = synth ~size:40 ~seed ~recurrence:2 in
      let report = run_hca ddg in
      match report.Report.final_mii with
      | None -> Alcotest.fail "should clusterise"
      | Some final ->
          Alcotest.(check bool) "final >= rec" true (final >= report.Report.mii_rec);
          Alcotest.(check bool) "final >= res" true (final >= report.Report.mii_res))
    [ 10; 11; 12 ]

(* --- architecture sweep (§5 bandwidth claim) ----------------------------- *)

let test_bandwidth_degradation () =
  (* "Lower bandwidths cause a rapid degradation of the clusterization
     quality": the final MII on the N=M=K=2 machine must not beat the
     N=M=K=8 machine. *)
  let ddg () = Hca_kernels.Fir2dim.ddg () in
  let wide = run_hca ~fabric:(Dspfabric.make ~n:8 ~m:8 ~k:8 ()) (ddg ()) in
  let narrow = run_hca ~fabric:(Dspfabric.make ~n:2 ~m:2 ~k:2 ()) (ddg ()) in
  match (wide.Report.final_mii, narrow.Report.final_mii) with
  | Some w, Some n -> Alcotest.(check bool) "degrades" true (n >= w)
  | Some _, None -> () (* outright failure is the extreme of degradation *)
  | None, _ -> Alcotest.fail "reference machine must clusterise fir2dim"

(* --- determinism ---------------------------------------------------------- *)

let test_pipeline_deterministic () =
  let a = run_hca (Hca_kernels.Fir2dim.ddg ()) in
  let b = run_hca (Hca_kernels.Fir2dim.ddg ()) in
  Alcotest.(check (option int)) "same final MII" a.Report.final_mii b.Report.final_mii;
  match (a.Report.result, b.Report.result) with
  | Some ra, Some rb ->
      Alcotest.(check (array int)) "same placement" ra.Hierarchy.cn_of_instr
        rb.Hierarchy.cn_of_instr
  | _ -> Alcotest.fail "both runs must succeed"

(* --- placement invariants -------------------------------------------------- *)

let test_placement_respects_issue_budget () =
  List.iter
    (fun (_, f) ->
      let report = run_hca (f ()) in
      match (report.Report.result, report.Report.final_mii) with
      | Some res, Some final ->
          for cn = 0 to Dspfabric.total_cns reference - 1 do
            let load = Hierarchy.cn_count res cn + Hierarchy.recv_count res cn in
            Alcotest.(check bool) "per-CN load within final MII" true (load <= final)
          done
      | _ -> Alcotest.fail "must clusterise")
    Hca_kernels.Registry.all

let test_wire_loads_within_final_mii () =
  List.iter
    (fun (_, f) ->
      let report = run_hca (f ()) in
      match (report.Report.result, report.Report.final_mii) with
      | Some res, Some final ->
          List.iter
            (fun (sub : Hierarchy.subresult) ->
              Alcotest.(check bool) "wire load bounded" true
                (sub.Hierarchy.mapres.Mapper.max_wire_load <= final))
            (Hierarchy.subresults res)
      | _ -> Alcotest.fail "must clusterise")
    Hca_kernels.Registry.all

(* --- property: random kernels never produce an illegal "legal" ------------- *)

let prop_no_false_legality =
  QCheck.Test.make ~name:"coherency accepts only what it can re-verify" ~count:12
    QCheck.(pair (int_range 8 48) (int_range 0 1000))
    (fun (size, seed) ->
      let ddg = synth ~size ~seed ~recurrence:(seed mod 3) in
      let report = run_hca ddg in
      match report.Report.result with
      | None -> true (* failure reported as failure is fine *)
      | Some res -> report.Report.legal = Coherency.is_legal res)

(* --- property: full pipeline preserves semantics --------------------------- *)

let prop_pipeline_preserves_semantics =
  QCheck.Test.make
    ~name:"compile+schedule+simulate matches the reference interpreter"
    ~count:8
    QCheck.(pair (int_range 12 40) (int_range 0 500))
    (fun (size, seed) ->
      let ddg = synth ~size ~seed ~recurrence:(seed mod 3) in
      match
        Hca_sim.Pipeline.run ~iterations:4 reference ~original:ddg (run_hca ddg)
      with
      | Ok _ -> true
      | Error (Not_clusterised | Unschedulable _) ->
          true (* failures reported as failures are not the property *)
      | Error (Diverged _) -> false)

(* --- property: topology stays within the wire budget ----------------------- *)

let prop_topology_within_budget =
  QCheck.Test.make ~name:"selected wires never exceed the MUX capacities"
    ~count:8
    QCheck.(int_range 0 500)
    (fun seed ->
      let ddg = synth ~size:32 ~seed ~recurrence:0 in
      let report = run_hca ddg in
      match report.Report.result with
      | None -> true
      | Some res ->
          let topo = Topology.of_result res in
          (* Group entries per (path, owner): out wires <= 8 at set
             levels, <= 1 at leaves. *)
          let counts = Hashtbl.create 32 in
          List.iter
            (fun (e : Topology.entry) ->
              let key = (e.Topology.path, e.Topology.owner) in
              Hashtbl.replace counts key
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
            topo.Topology.entries;
          Hashtbl.fold
            (fun (path, _) c acc ->
              let cap = if List.length path = 2 then 1 else 8 in
              acc && c <= cap)
            counts true)

(* --- schedule end-to-end ---------------------------------------------------- *)

let test_schedule_validates_hca_mii () =
  (* The scheduler achieves an II within a small factor of the
     clusterisation's final MII — evidence the reported MII is not a
     fantasy bound. *)
  let ddg = Hca_kernels.Idcthor.ddg () in
  let report = run_hca ddg in
  match (report.Report.result, report.Report.final_mii) with
  | Some res, Some final -> (
      match
        Hca_sched.Modulo.run ~ddg ~cn_of_instr:res.Hierarchy.cn_of_instr
          ~cns:(Dspfabric.total_cns reference)
          ~dma_ports:(Dspfabric.dma_ports reference) ~start_ii:final ()
      with
      | Error e -> Alcotest.fail e
      | Ok s ->
          Alcotest.(check bool) "within 3x of final MII" true
            (s.Hca_sched.Modulo.ii <= 3 * final))
  | _ -> Alcotest.fail "idcthor must clusterise"

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "synthetic legal" `Slow test_synthetic_pipeline_legal;
          Alcotest.test_case "bounds dominated" `Slow test_final_mii_dominates_bounds;
          Alcotest.test_case "deterministic" `Slow test_pipeline_deterministic;
          QCheck_alcotest.to_alcotest prop_no_false_legality;
          QCheck_alcotest.to_alcotest prop_pipeline_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_topology_within_budget;
        ] );
      ( "architecture",
        [
          Alcotest.test_case "bandwidth degradation" `Slow test_bandwidth_degradation;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "issue budget" `Slow test_placement_respects_issue_budget;
          Alcotest.test_case "wire loads" `Slow test_wire_loads_within_final_mii;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "validates MII" `Slow test_schedule_validates_hca_mii;
        ] );
    ]
