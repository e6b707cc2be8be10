(* The [certify] workload: the exact oracle on small flat instances,
   seeded by the HCA incumbent, under a conflict budget and no wall-clock
   budget, so every verdict is a pure function of the instance.

   A pass certifies the gated set, each instance right after a
   calibration probe: seven synthetics (sizes 10-22 on the 8-CN optgap
   fabric) and the anchor draw, [fuzz_count] fuzzer instances (6-24
   instructions on 4-16 CNs) drawn from the fixed seed [anchor_seed].
   The end-to-end timings are medians over the passes and the verdict
   sums cover the gated set, so neither depends on [--seed].  The seeded
   draw ([fuzz_count] instances from [--seed]) is certified once per run,
   timed apart and reported per layer: single instances take 4-400 ms,
   so its time varies from seed to seed more than a bound could carry. *)

open Hca_core
open Common
module Oracle = Hca_exact.Oracle
module Encode = Hca_exact.Encode

let max_conflicts = 4000
let fuzz_count = 4
let anchor_seed = 0

let optgap_fabric =
  Hca_machine.Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 ()

type instance = {
  name : string;
  fabric : Hca_machine.Dspfabric.t;
  ddg : Hca_ddg.Ddg.t;
  gated : bool;  (** part of the timed pass *)
}

(* The optgap synthetics (syn10/14/18 with their seeds) and four more
   sizes in between. *)
let synthetics () =
  List.map
    (fun (size, seed) ->
      {
        name = Printf.sprintf "syn%d" size;
        fabric = optgap_fabric;
        ddg =
          Hca_kernels.Synthetic.generate
            { Hca_kernels.Synthetic.default with size; layers = 3; recurrences = 1; seed };
        gated = true;
      })
    [ (10, 1); (12, 4); (14, 2); (16, 5); (18, 3); (20, 6); (22, 7) ]

let fuzzed ~seed ~gated =
  List.init fuzz_count (fun j ->
      let s = subseed seed 2 j in
      let inst = Hca_gen.Gen.instance ~seed:s () in
      {
        name = Printf.sprintf "fuzz-%d" s;
        fabric = inst.Hca_gen.Gen.fabric;
        ddg = inst.Hca_gen.Gen.ddg;
        gated;
      })

let gated_set () = synthetics () @ fuzzed ~seed:anchor_seed ~gated:true

type verdict = {
  status : Oracle.status;
  final_mii : int option;
  lower_bound : int;
  assignment : int array option;
}

type certified = {
  inst : instance;
  hca : Report.t;
  oracle : Oracle.t;
  hca_s : float;
}

let certify inst =
  let hca, hca_s = timed (fun () -> Report.run ~jobs:1 inst.fabric inst.ddg) in
  let einst = Encode.of_problem (Oracle.problem_of inst.fabric inst.ddg) in
  let achieved =
    match hca.Report.result with
    | Some res ->
        max hca.Report.ini_mii
          (Encode.cluster_mii_of_assignment einst res.Hierarchy.cn_of_instr)
    | None -> Hca_ddg.Ddg.size inst.ddg
  in
  let oracle =
    Oracle.run ~budget_s:infinity ~max_conflicts ~incumbent:achieved inst.fabric
      inst.ddg
  in
  ({ inst; hca; oracle; hca_s }, einst, achieved)

(* The verdict checks of one certified instance. *)
let check_verdict r (c, einst, achieved) =
  let o = c.oracle and name = c.inst.name in
  record r
    (Printf.sprintf "%s %s lb=%d final=%s model=%d" name
       (Oracle.status_to_string o.Oracle.status)
       o.Oracle.lower_bound
       (Option.fold ~none:"-" ~some:string_of_int o.Oracle.final_mii)
       (Option.fold ~none:0 ~some:Hca_util.Sig_hash.(fun a ->
            let h = create () in add_int_array h a; value h) o.Oracle.assignment));
  let ck ok msg = check r ok (fun () -> name ^ ": " ^ msg ()) in
  ck (c.hca.Report.legal && c.hca.Report.error = None) (fun () -> "HCA incumbent not legal");
  ck
    (o.Oracle.lower_bound <= achieved)
    (fun () ->
      Printf.sprintf "HCA flat MII %d below certified lower bound %d" achieved
        o.Oracle.lower_bound);
  (* [Timeout] (no model within the conflict budget, even at the
     incumbent) is a legitimate verdict; [Unsat] would mean the
     all-on-one-CN assignment was refuted. *)
  ck
    (match (o.Oracle.status, o.Oracle.final_mii) with
    | Oracle.Optimal, Some m -> m = o.Oracle.lower_bound
    | Oracle.Feasible, Some m -> m >= o.Oracle.lower_bound
    | Oracle.Timeout, None -> o.Oracle.assignment = None
    | (Oracle.Optimal | Oracle.Feasible | Oracle.Timeout | Oracle.Unsat), _ -> false)
    (fun () -> "verdict " ^ Oracle.status_to_string o.Oracle.status ^ " inconsistent");
  ck
    (match (o.Oracle.assignment, o.Oracle.final_mii) with
    | Some a, Some m ->
        max c.hca.Report.ini_mii (Encode.cluster_mii_of_assignment einst a) = m
    | None, None -> true
    | _ -> false)
    (fun () -> "model does not re-score to the reported final MII")

let verdict_of c =
  {
    status = c.oracle.Oracle.status;
    final_mii = c.oracle.Oracle.final_mii;
    lower_bound = c.oracle.Oracle.lower_bound;
    assignment = c.oracle.Oracle.assignment;
  }

let digest insts =
  let h = Hca_util.Sig_hash.create () in
  List.iter
    (fun i ->
      Hca_util.Sig_hash.add_string h (Hca_ddg.Ddg_io.to_string i.ddg);
      Hca_util.Sig_hash.add_string h (Hca_machine.Dspfabric.id i.fabric))
    insts;
  Hca_util.Sig_hash.value h

type pass_stats = {
  wall_ms : float;  (** rescaled to the reference probe *)
  raw_ms : float;
  probe_ms : float;
  alloc : float;
  incumbent_ms : float;
  encode_ms : float option;  (** traced passes only *)
  unsat_ms : float;
  sat_ms : float;
  unknown_ms : float;
  conflicts : int;
  probe_s : float;
  oracle_alloc : float;
}

let run ?(min_passes = 3) ~seed ~seconds ~trace () =
  let r = create () in
  let (gated, drawn), setup_s =
    timed_setup (fun () -> (gated_set (), fuzzed ~seed ~gated:false))
  in
  set r "setup_s" setup_s;
  let t0 = now () in
  (* The seeded draw, once, timed apart. *)
  let drawn_results, draw_raw, draw_probe, _ =
    calibrated_map ~after:(fun _ c _ -> c) certify drawn
  in
  List.iter (check_verdict r) drawn_results;
  let undecided =
    List.length
      (List.filter (fun (c, _, _) -> c.oracle.Oracle.status = Oracle.Timeout) drawn_results)
  in
  (* Timed passes over the gated set.  In traced runs every other pass
     also times the encoding on its own right after each certification
     ([Oracle.run] builds the same encoding inside); comparing those
     passes with the plain ones gives the tracing overhead. *)
  let stats = ref [] and inst_ms = ref [] and first = ref None in
  let pass i =
    let traced = trace && i mod 2 = 1 in
    let encode_s = ref 0. in
    let after _ (c, einst, achieved) dt =
      inst_ms := ms dt :: !inst_ms;
      if traced then
        encode_s :=
          !encode_s +. snd (timed (fun () -> ignore (Encode.make einst ~max_k:achieved)));
      (c, einst, achieved)
    in
    let results, raw, probe, alloc = calibrated_map ~after certify gated in
    List.iter (check_verdict r) results;
    let certified = List.map (fun (c, _, _) -> c) results in
    (match !first with
    | None -> first := Some certified
    | Some f0 ->
        check r
          (List.map verdict_of f0 = List.map verdict_of certified)
          (fun () -> "gated instances got different verdicts in a later pass"));
    let sumf f = List.fold_left (fun a c -> a +. f c) 0. certified in
    let probes v =
      sumf (fun c ->
          List.fold_left
            (fun a (p : Oracle.probe) -> if p.Oracle.verdict = v then a +. p.Oracle.time_s else a)
            0. c.oracle.Oracle.probes)
    in
    stats :=
      {
        wall_ms = ms (rescale ~raw ~probe);
        raw_ms = ms raw;
        probe_ms = ms probe;
        alloc;
        incumbent_ms = ms (sumf (fun c -> c.hca_s));
        encode_ms = (if traced then Some (ms !encode_s) else None);
        unsat_ms = ms (probes Hca_exact.Sat.Unsat);
        sat_ms = ms (probes Hca_exact.Sat.Sat);
        unknown_ms = ms (probes Hca_exact.Sat.Unknown);
        conflicts = List.fold_left (fun a c -> a + c.oracle.Oracle.explored) 0 certified;
        probe_s =
          sumf (fun c ->
              List.fold_left (fun a (p : Oracle.probe) -> a +. p.Oracle.time_s) 0.
                c.oracle.Oracle.probes);
        oracle_alloc = sumf (fun c -> c.oracle.Oracle.alloc_mb);
      }
      :: !stats
  in
  let n = passes ~seconds:(seconds -. (now () -. t0)) ~min_passes pass in
  let f0 = Option.get !first in
  let isum f = List.fold_left (fun a c -> a + f c) 0 f0 in
  let proven =
    List.length (List.filter (fun c -> c.oracle.Oracle.status = Oracle.Optimal) f0)
  in
  let plain = List.filter (fun s -> s.encode_ms = None) !stats in
  let traced = List.filter_map (fun s -> Option.map (fun e -> (s, e)) s.encode_ms) !stats in
  let per f = median (List.map f plain) in
  Printf.printf "certify: %d passes of %d gated instances (seed %d, inputs %x)\n" n
    (List.length gated) seed (digest (gated @ drawn));
  List.iter
    (fun c ->
      Printf.printf "  %-16s n=%-3d %-8s lb=%d final=%s hca=%s conflicts=%d\n"
        c.inst.name (Hca_ddg.Ddg.size c.inst.ddg)
        (Oracle.status_to_string c.oracle.Oracle.status)
        c.oracle.Oracle.lower_bound
        (match c.oracle.Oracle.final_mii with Some m -> string_of_int m | None -> "-")
        (match c.hca.Report.final_mii with Some m -> string_of_int m | None -> "-")
        c.oracle.Oracle.explored)
    f0;
  let p, t = tail !inst_ms in
  Printf.printf
    "  pass median %.1f ms rescaled (%.1f ms raw, probe %.2f ms), %d samples; \
     per-instance %s %.1f ms raw (%d samples)\n\
    \  seeded draw %.1f ms rescaled; %d of %d drawn instances undecided (no \
     model within the conflict budget)\n"
    (per (fun s -> s.wall_ms)) (per (fun s -> s.raw_ms)) (per (fun s -> s.probe_ms))
    (List.length plain) (pct_name p) t (List.length !inst_ms)
    (ms (rescale ~raw:draw_raw ~probe:draw_probe))
    undecided (List.length drawn);
  set r "latency_ms" (per (fun s -> s.wall_ms));
  set r "machine.probe_ms" (per (fun s -> s.probe_ms));
  set r "alloc_mb" (per (fun s -> s.alloc));
  set r "final_mii_sum"
    (float_of_int (isum (fun c -> Option.value ~default:0 c.oracle.Oracle.final_mii)));
  set r "copies_sum" (float_of_int (isum (fun c -> c.hca.Report.copies)));
  set r "lower_bound_sum" (float_of_int (isum (fun c -> c.oracle.Oracle.lower_bound)));
  set r "exact.proven_share" (float_of_int proven /. float_of_int (List.length f0));
  let conflicts = isum (fun c -> c.oracle.Oracle.explored)
  and props = isum (fun c -> c.oracle.Oracle.propagations) in
  set r "exact.sat.conflicts" (float_of_int conflicts);
  set r "exact.sat.propagations" (float_of_int props);
  set r "exact.sat.reuse_share"
    (float_of_int (isum (fun c -> c.oracle.Oracle.reused_hits)) /. float_of_int (max 1 props));
  set r "exact.fuzz_ms" (ms (rescale ~raw:draw_raw ~probe:draw_probe));
  set r "exact.probes" (float_of_int (isum (fun c -> List.length c.oracle.Oracle.probes)));
  set r "core.see.explored" (float_of_int (isum (fun c -> c.hca.Report.explored_states)));
  set r "exact.sat.conflicts_per_s"
    (per (fun s -> float_of_int s.conflicts /. s.probe_s));
  set r "exact.unsat_probe_ms" (per (fun s -> s.unsat_ms));
  set r "exact.sat_probe_ms" (per (fun s -> s.sat_ms));
  set r "exact.unknown_probe_ms" (per (fun s -> s.unknown_ms));
  set r "exact.alloc_mb" (per (fun s -> s.oracle_alloc));
  set r "core.incumbent_ms" (per (fun s -> s.incumbent_ms));
  if traced <> [] then begin
    let overhead =
      median (List.map (fun (s, _) -> s.wall_ms) traced) -. per (fun s -> s.wall_ms)
    in
    set r "exact.encode_ms" (median (List.map snd traced));
    set r "trace.overhead_ms" overhead;
    Printf.printf "  traced (%d passes): encode %.1f ms; overhead %.1f ms rescaled per pass\n"
      (List.length traced) (median (List.map snd traced)) overhead
  end;
  set r "ok_share"
    (1. -. (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
  set r "peak_rss_mb" (peak_rss_mb ());
  r
