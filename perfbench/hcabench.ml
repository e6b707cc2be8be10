(* Benchmark entry point.

     hcabench.exe --workload compile|certify --seed N --seconds S
                  --trace 0|1 [--hca PATH]
     hcabench.exe --selftest

   Prints a human-readable summary, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}, holding the
   end-to-end metrics with --trace 0 and the per-layer ones with
   --trace 1.  perfbench/README.md documents the workloads and metrics. *)

open Common

let usage () =
  prerr_endline
    "usage: hcabench.exe --workload compile|certify --seed N --seconds S \
     --trace 0|1 [--hca PATH]\n       hcabench.exe --selftest";
  exit 2

(* The same seed must give the same inputs, the same outputs (every
   compiled placement and oracle verdict, seeded draws included) and the
   same deterministic metrics; another seed must give other inputs and
   outputs and pass every check. *)
let selftest () =
  let deterministic =
    [ "final_mii_sum"; "copies_sum"; "lower_bound_sum"; "exact.proven_share";
      "core.see.explored" ]
  in
  let one seed =
    let c = Wl_compile.run ~min_passes:2 ~seed ~seconds:0. ~trace:true () in
    let e = Wl_certify.run ~min_passes:1 ~seed ~seconds:0. ~trace:false () in
    let digests =
      [
        Wl_compile.digest (Wl_compile.generated ~seed ~gated:false);
        Wl_certify.digest (Wl_certify.fuzzed ~seed ~gated:false);
        Wl_serve.digest ~seed;
      ]
    in
    let values r =
      List.map (fun m -> Option.value ~default:0. (Hashtbl.find_opt r.metrics m))
        deterministic
    in
    List.iter
      (fun (what, r) ->
        List.iter (fun n -> Printf.printf "  %s seed %d: %s\n" what seed n) r.notes)
      [ ("compile", c); ("certify", e) ];
    let outputs =
      List.map (fun r -> Hca_util.Sig_hash.value r.outputs) [ c; e ]
    in
    (digests @ outputs, values c, values e, c.failed + e.failed)
  in
  let a = one 1 and a' = one 1 and b = one 2 in
  let digests (d, _, _, _) = d and failed (_, _, _, f) = f in
  let metrics (_, c, e, _) = (c, e) in
  let results =
    [
      ("same seed, same inputs and outputs", digests a = digests a');
      ("same seed, same deterministic metrics", metrics a = metrics a');
      ( "another seed, other inputs and outputs",
        List.for_all2 ( <> ) (digests a) (digests b) );
      ("every output check passes on both seeds", failed a + failed a' + failed b = 0);
    ]
  in
  List.iter
    (fun (what, ok) -> Printf.printf "%s: %s\n" (if ok then "ok" else "FAIL") what)
    results;
  exit (if List.for_all snd results then 0 else 1)

(* The daemon's layers ride along on traced compile runs.  Served
   latencies drift with machine load by up to 2x between runs (see
   README.md), too much to carry a bound, so serving is no workload of
   its own; its per-layer figures come from a real daemon session
   here. *)
let add_serve_layers ~hca ~seed ~seconds r =
  let s = Wl_serve.run ~hca ~seed ~seconds in
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:"serve." name then
        Option.iter (set r name) (Hashtbl.find_opt s.metrics name))
    per_layer;
  r.attempted <- r.attempted + s.attempted;
  r.failed <- r.failed + s.failed;
  r.notes <- s.notes @ r.notes;
  if r.invalid = None then r.invalid <- s.invalid;
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and hca = ref "_build/default/bin/hca_cli.exe" in
  let rec parse = function
    | [] -> ()
    | "--selftest" :: _ -> selftest ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--hca" :: v :: rest ->
        hca := v;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds and trace = !trace in
  let r =
    match !workload with
    | "compile" when trace ->
        Wl_compile.run ~seed ~seconds:(0.6 *. seconds) ~trace ()
        |> add_serve_layers ~hca:!hca ~seed ~seconds:(0.4 *. seconds)
    | "compile" -> Wl_compile.run ~seed ~seconds ~trace ()
    | "certify" -> Wl_certify.run ~seed ~seconds ~trace ()
    | _ -> usage ()
  in
  print_result r ~trace
