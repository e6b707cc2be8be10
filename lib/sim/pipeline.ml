open Hca_core

type t = {
  expanded : Postprocess.t;
  schedule : Hca_sched.Modulo.schedule;
  stats : Machine_sim.stats;
}

type error =
  | Not_clusterised
  | Unschedulable of string
  | Diverged of string

let run ?(iterations = 8) fabric ~original (report : Report.t) =
  match (report.result, report.final_mii) with
  | Some res, Some final -> (
      let expanded = Postprocess.expand res in
      let params = { Hca_sched.Modulo.default_params with copy_latency = 0 } in
      match
        Hca_sched.Modulo.run ~params ~ddg:expanded.ddg
          ~cn_of_instr:expanded.cn_of_node
          ~cns:(Hca_machine.Dspfabric.total_cns fabric)
          ~dma_ports:(Hca_machine.Dspfabric.dma_ports fabric)
          ~start_ii:final ()
      with
      | Error e -> Error (Unschedulable e)
      | Ok schedule -> (
          match
            Machine_sim.check_against_reference ~iterations ~original
              ~expanded:expanded.ddg ~cn_of_node:expanded.cn_of_node ~schedule
              ()
          with
          | Error e -> Error (Diverged e)
          | Ok stats -> Ok { expanded; schedule; stats }))
  | _ -> Error Not_clusterised

let error_to_string = function
  | Not_clusterised -> "clusterisation failed"
  | Unschedulable e -> "scheduling failed: " ^ e
  | Diverged e -> "simulation FAILED: " ^ e
