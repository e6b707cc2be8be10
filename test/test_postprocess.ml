(* Tests for the post-HCA artefacts: the expanded DDG with receive
   primitives, the reconfiguration-program emitter, and the portfolio
   driver. *)

open Hca_ddg
open Hca_machine
open Hca_core

let reference = Dspfabric.reference

let solved_fir2dim =
  lazy
    (let ddg = Hca_kernels.Fir2dim.ddg () in
     let report = Report.run reference ddg in
     match report.Report.result with
     | Some res -> (ddg, report, res)
     | None -> failwith "fir2dim must clusterise")

(* --- postprocess ---------------------------------------------------- *)

let test_expand_preserves_instructions () =
  let ddg, _, res = Lazy.force solved_fir2dim in
  let exp = Postprocess.expand res in
  Alcotest.(check bool) "grew" true (Ddg.size exp.Postprocess.ddg >= Ddg.size ddg);
  Array.iter
    (fun (i : Instr.t) ->
      Alcotest.(check bool) "opcode kept" true
        (Opcode.equal i.opcode (Ddg.instr exp.Postprocess.ddg i.id).Instr.opcode))
    (Ddg.instrs ddg)

let test_expand_validates () =
  let _, _, res = Lazy.force solved_fir2dim in
  let exp = Postprocess.expand res in
  match Postprocess.validate exp res with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_expand_recv_are_recv () =
  let ddg, _, res = Lazy.force solved_fir2dim in
  let exp = Postprocess.expand res in
  let recvs =
    Ddg.count exp.Postprocess.ddg (fun i -> i.Instr.opcode = Opcode.Recv)
  in
  Alcotest.(check int) "count matches" exp.Postprocess.recv_count recvs;
  Alcotest.(check bool) "cross-CN edges exist" true (recvs > 0);
  ignore ddg

let test_expand_issue_load_counts_everything () =
  let _, _, res = Lazy.force solved_fir2dim in
  let exp = Postprocess.expand res in
  let load = Postprocess.issue_load exp in
  Alcotest.(check int) "total = expanded size"
    (Ddg.size exp.Postprocess.ddg)
    (Array.fold_left ( + ) 0 load)

let test_hop_distance () =
  let _, _, res = Lazy.force solved_fir2dim in
  Alcotest.(check int) "same cn" 0 (Postprocess.hop_distance res ~src_cn:5 ~dst_cn:5);
  (* Same quad (leaf sets of 4): one level crossed. *)
  Alcotest.(check int) "same quad" 1 (Postprocess.hop_distance res ~src_cn:0 ~dst_cn:1);
  (* Opposite corners of the 64-CN machine: all three levels. *)
  Alcotest.(check int) "far" 5 (Postprocess.hop_distance res ~src_cn:0 ~dst_cn:63)

let test_expanded_schedulable () =
  let ddg, report, _ = Lazy.force solved_fir2dim in
  match Hca_sim.Pipeline.run reference ~original:ddg report with
  | Error e -> Alcotest.fail (Hca_sim.Pipeline.error_to_string e)
  | Ok p ->
      Alcotest.(check bool) "valid" true
        (Hca_sched.Modulo.validate ~ddg:p.expanded.ddg
           ~cn_of_instr:p.expanded.cn_of_node ~copy_latency:0 p.schedule
        = Ok ())

(* --- topology --------------------------------------------------------- *)

let test_topology_entries () =
  let _, _, res = Lazy.force solved_fir2dim in
  let topo = Topology.of_result res in
  Alcotest.(check bool) "wires selected" true (Topology.wire_count topo > 0);
  Alcotest.(check bool) "selects >= wires" true
    (Topology.select_count topo >= Topology.wire_count topo);
  List.iter
    (fun (e : Topology.entry) ->
      Alcotest.(check bool) "entry is live" true
        (e.Topology.sinks <> [] || e.Topology.uplink <> None))
    topo.Topology.entries

let test_topology_to_string () =
  let _, _, res = Lazy.force solved_fir2dim in
  let s = Topology.to_string (Topology.of_result res) in
  Alcotest.(check bool) "mentions kernel" true
    (String.length s > 0
    &&
    let re = "fir2dim" in
    let rec search i =
      i + String.length re <= String.length s
      && (String.sub s i (String.length re) = re || search (i + 1))
    in
    search 0)

(* --- portfolio ---------------------------------------------------------- *)

let test_portfolio_beats_or_matches_default () =
  let ddg = Hca_kernels.Mpeg2inter.ddg () in
  let default = Report.run reference ddg in
  let best, winner = Portfolio.run reference ddg in
  Alcotest.(check bool) "legal" true best.Report.legal;
  Alcotest.(check bool) "winner named" true (winner <> "");
  match (best.Report.final_mii, default.Report.final_mii) with
  | Some b, Some d -> Alcotest.(check bool) "no worse" true (b <= d)
  | _ -> Alcotest.fail "both must clusterise"

let test_portfolio_rejects_empty () =
  Alcotest.check_raises "empty configs"
    (Invalid_argument "Portfolio.run: empty configuration list") (fun () ->
      ignore (Portfolio.run ~configs:[] reference (Hca_kernels.Fir2dim.ddg ())))

(* --- extended kernels through the pipeline ------------------------------- *)

let test_extended_kernels_legal () =
  List.iter
    (fun (name, f) ->
      let r = Report.run reference (f ()) in
      Alcotest.(check bool) (name ^ " legal") true r.Report.legal)
    Hca_kernels.Extended.all

let test_extended_registry () =
  Alcotest.(check int) "10 kernels total" 10
    (List.length Hca_kernels.Registry.extended);
  Alcotest.(check bool) "find extended" true
    (Hca_kernels.Registry.find "fft_stage" <> None)

(* --- rcp driver ------------------------------------------------------- *)


let test_rcp_driver_solves () =
  match Rcp_driver.solve Rcp.default (Hca_kernels.Fir2dim.ddg ()) with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      Alcotest.(check bool) "links selected" true (r.Rcp_driver.topology <> []);
      match Rcp_driver.validate r with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es))

let test_rcp_driver_respects_ports () =
  let rcp = Rcp.make ~in_ports:1 () in
  match Rcp_driver.solve rcp (Hca_kernels.Fir2dim.ddg ()) with
  | Error _ -> () (* failing is acceptable at one port *)
  | Ok r ->
      let in_deg = Array.make (Rcp.clusters rcp) 0 in
      List.iter
        (fun (_, dst) -> in_deg.(dst) <- in_deg.(dst) + 1)
        r.Rcp_driver.topology;
      Array.iter
        (fun d -> Alcotest.(check bool) "port budget" true (d <= 1))
        in_deg

let test_rcp_driver_heterogeneous () =
  (* All memory on cluster 0 only. *)
  let rcp = Rcp.make ~mem_clusters:[ 0 ] ~in_ports:2 () in
  match Rcp_driver.solve rcp (Hca_kernels.Fir2dim.ddg ()) with
  | Error _ -> () (* a single memory cluster may be infeasible; fine *)
  | Ok r -> (
      match Rcp_driver.validate r with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es))

let () =
  Alcotest.run "postprocess"
    [
      ( "expand",
        [
          Alcotest.test_case "preserves instructions" `Slow test_expand_preserves_instructions;
          Alcotest.test_case "validates" `Slow test_expand_validates;
          Alcotest.test_case "receives" `Slow test_expand_recv_are_recv;
          Alcotest.test_case "issue load" `Slow test_expand_issue_load_counts_everything;
          Alcotest.test_case "hop distance" `Slow test_hop_distance;
          Alcotest.test_case "schedulable" `Slow test_expanded_schedulable;
        ] );
      ( "topology",
        [
          Alcotest.test_case "entries" `Slow test_topology_entries;
          Alcotest.test_case "render" `Slow test_topology_to_string;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "no worse than default" `Slow test_portfolio_beats_or_matches_default;
          Alcotest.test_case "rejects empty" `Quick test_portfolio_rejects_empty;
        ] );
      ( "extended-kernels",
        [
          Alcotest.test_case "all legal" `Slow test_extended_kernels_legal;
          Alcotest.test_case "registry" `Quick test_extended_registry;
        ] );
      ( "rcp-driver",
        [
          Alcotest.test_case "solves + validates" `Slow test_rcp_driver_solves;
          Alcotest.test_case "port budget" `Slow test_rcp_driver_respects_ports;
          Alcotest.test_case "heterogeneous" `Slow test_rcp_driver_heterogeneous;
        ] );
    ]

