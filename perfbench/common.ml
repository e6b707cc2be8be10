(* Shared plumbing of the benchmark workloads: the metric table, sample
   statistics, output checks accounting and process introspection. *)

let now = Hca_util.Clock.now

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)

(* The end-to-end metrics every workload prints with [--trace 0], and
   the per-layer metrics every workload prints with [--trace 1] (zero
   where the workload does not exercise that layer).  BENCHMARK.json
   declares exactly these names and units; run.py refuses a result
   whose keys differ. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_ms", "ms");
    ("alloc_mb", "MB");
    ("peak_rss_mb", "MB");
    ("final_mii_sum", "count");
    ("copies_sum", "count");
    ("lower_bound_sum", "count");
    ("ok_share", "share");
  ]

let per_layer =
  [
    ("core.report.ii_attempts", "count");
    ("core.report.unattributed_ms", "ms");
    ("core.hierarchy.infeasible_ms", "ms");
    ("core.hierarchy.feasible_ms", "ms");
    ("core.hierarchy.feasible_share", "share");
    ("core.see.solve_ms", "ms");
    ("core.see.explored", "count");
    ("core.router.routed_share", "share");
    ("core.mapper.map_ms", "ms");
    ("core.coherency.check_ms", "ms");
    ("core.postprocess.expand_ms", "ms");
    ("core.minor_gcs", "count");
    ("core.memo.hit_ratio", "share");
    ("core.generated_ms", "ms");
    ("core.refused_share", "share");
    ("core.incumbent_ms", "ms");
    ("ddg.mii_ms", "ms");
    ("sched.modulo_ms", "ms");
    ("sim.check_ms", "ms");
    ("exact.encode_ms", "ms");
    ("exact.sat.conflicts", "count");
    ("exact.sat.propagations", "count");
    ("exact.sat.conflicts_per_s", "1/s");
    ("exact.sat.reuse_share", "share");
    ("exact.fuzz_ms", "ms");
    ("exact.probes", "count");
    ("exact.unsat_probe_ms", "ms");
    ("exact.sat_probe_ms", "ms");
    ("exact.unknown_probe_ms", "ms");
    ("exact.alloc_mb", "MB");
    ("exact.proven_share", "share");
    ("serve.p50_ms", "ms");
    ("serve.p99_ms", "ms");
    ("serve.capacity_rps", "1/s");
    ("serve.submit_rtt_ms", "ms");
    ("serve.result_rtt_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.run_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.memo_hit_ratio", "share");
    ("serve.store_load_s", "s");
    ("serve.store_entries", "count");
    ("serve.daemon_rss_mb", "MB");
    ("serve.gen_late_ms", "ms");
    ("serve.slo_miss_share", "share");
    ("trace.overhead_ms", "ms");
    ("machine.probe_ms", "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  metrics : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first failure messages, newest first *)
  mutable invalid : string option;  (** the run measured nothing usable *)
  outputs : Hca_util.Sig_hash.t;
      (** digest of every checked output, in order: the self-check's
          evidence that a seed determines the results *)
}

let create () =
  {
    metrics = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    notes = [];
    invalid = None;
    outputs = Hca_util.Sig_hash.create ();
  }

let set r name v = Hashtbl.replace r.metrics name v

(* One output check: counts towards [attempted]; a failure is recorded
   with its message (the first few are printed). *)
let check r ok msg =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.notes < 20 then r.notes <- msg () :: r.notes
  end

let record r s = Hca_util.Sig_hash.add_string r.outputs s

let check_result r what = function
  | Ok _ -> check r true (fun () -> "")
  | Error e -> check r false (fun () -> what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)

let sorted xs = List.sort compare xs

(* Linear-interpolation quantile, q in [0, 1]. *)
let quantile xs q =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else
        let f = pos -. float_of_int i in
        a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* The highest of p50/p90/p95/p99/p99.9 that still has at least ten
   samples beyond it, so a tail figure is never one or two outliers. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let ok p = n *. (1. -. p) >= 10. in
  let p =
    List.fold_left
      (fun best p -> if ok p then p else best)
      0.5
      [ 0.9; 0.95; 0.99; 0.999 ]
  in
  (p, quantile xs p)

let pct_name p = Printf.sprintf "p%g" (p *. 100.)

(* ------------------------------------------------------------------ *)
(* Process introspection                                               *)

(* VmHWM (peak resident set) of a process, in MB; 0 when /proc is not
   readable. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)

(* Derived sub-seed: splitmix-style mixing of (seed, stream, index) so
   the streams of neighbouring seeds do not overlap. *)
let subseed seed stream i =
  let x = ref ((seed * 0x9E3779B1) + (stream * 0x85EBCA77) + (i * 0xC2B2AE3D)) in
  x := !x lxor (!x lsr 16);
  x := !x * 0x7feb352d;
  x := !x lxor (!x lsr 15);
  (!x land 0x3FFFFFFF) + 1

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let ms s = s *. 1000.

(* Runs [pass] (argument: pass index) until [seconds] have elapsed and at
   least [min_passes] passes were made. *)
let passes ~seconds ~min_passes pass =
  let t0 = now () in
  let rec go i =
    if i >= min_passes && now () -. t0 >= seconds then i
    else begin
      pass i;
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result r ~trace =
  let names = if trace then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (Hashtbl.find_opt r.metrics name) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      names
  in
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev r.notes);
  Option.iter (fun why -> Printf.printf "run invalid: %s\n" why) r.invalid;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.invalid = None)
    (max 1 r.attempted) r.failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)

(* A Stdlib-only probe of the machine's current speed for allocation-
   and cache-heavy OCaml code: short-lived allocation, hashing and
   random access over a working set larger than L2.  It shares no code
   with the compiler, so a change to the program never moves it. *)
let calib_table = Array.init (1 lsl 19) (fun i -> i)

let calib_probe () =
  let t0 = now () in
  let big = calib_table in
  let mask = Array.length big - 1 in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 and x = ref 12345 in
  for i = 0 to 30000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land mask in
    big.(j) <- big.(j) + i;
    acc := !acc + big.((j * 7) land mask);
    Hashtbl.replace h (!x land 16383) [ i; j ];
    if i land 7 = 0 then acc := !acc + List.length (List.init 8 (fun k -> k + i))
  done;
  ignore (Sys.opaque_identity (!acc + Hashtbl.length h));
  now () -. t0

(* Wall time rescaled to a machine on which one probe takes
   [reference_probe_s]: [raw * reference / probe], where [probe] was
   measured next to [raw].  The machines this benchmark runs on drift by
   up to 40% over minutes (co-tenant load); the probe drifts with them,
   so the rescaled figure stays put while a change to the program still
   moves it one for one. *)
let reference_probe_s = 0.010

let rescale ~raw ~probe = raw *. reference_probe_s /. probe

(* [f ()] timed right after a probe: (result, raw seconds, probe
   seconds, MB allocated by [f] on this domain). *)
let calibrated f =
  let probe = calib_probe () in
  let a0 = Gc.allocated_bytes () in
  let x, raw = timed f in
  (x, raw, probe, (Gc.allocated_bytes () -. a0) /. 1048576.)

(* [f x] for every [x], each right after a probe, then [after x y raw]
   outside the timed window.  Returns the [after] results, the raw
   seconds, the mean probe seconds and the MB the [f] calls allocated. *)
let calibrated_map ~after f xs =
  let ys, raw, probe, mb =
    List.fold_left
      (fun (ys, raw, probe, mb) x ->
        let y, dt, p, a = calibrated (fun () -> f x) in
        (after x y dt :: ys, raw +. dt, probe +. p, mb +. a))
      ([], 0., 0., 0.) xs
  in
  (List.rev ys, raw, probe /. float_of_int (max 1 (List.length xs)), mb)

(* Set-up time: [make ()] repeated back to back for at least 50 ms, the
   mean per call rescaled by the median of five probes taken just
   before; the median of five such windows.  Repeating amortises GC work
   and timer jitter over many calls of a set-up that can take well under
   a millisecond.  Returns a fresh [make ()] and the median time. *)
let timed_setup make =
  let window () =
    let probe = median (List.init 5 (fun _ -> calib_probe ())) in
    let t0 = now () in
    let rec go k =
      ignore (Sys.opaque_identity (make ()));
      if now () -. t0 < 0.05 then go (k + 1) else k + 1
    in
    let k = go 0 in
    rescale ~raw:((now () -. t0) /. float_of_int k) ~probe
  in
  let times = List.init 5 (fun _ -> window ()) in
  (make (), median times)
