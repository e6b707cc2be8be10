(* The multicore runtime and the incremental cost path.

   Everything here checks one contract: adding domains (or the
   incremental cache) never changes a result, only the wall clock.  The
   pool must preserve order and surface the sequential error; the top-k
   filter must equal the sorted prefix it replaced; the incremental
   cost must agree bit for bit with the from-scratch recompute; and the
   parallel portfolio/oracle drivers must reproduce their sequential
   runs field for field. *)

open Hca_machine
open Hca_core

(* ------------------------------------------------------------------ *)
(* Domain_pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order at jobs=%d" jobs)
        expect
        (Hca_util.Domain_pool.parallel_map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 8 ]

let test_pool_empty_and_single () =
  Alcotest.(check (list int))
    "empty" []
    (Hca_util.Domain_pool.parallel_map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int))
    "singleton" [ 7 ]
    (Hca_util.Domain_pool.parallel_map ~jobs:4 (fun i -> i + 1) [ 6 ])

let test_pool_first_error_wins () =
  (* The sequential run would die on index 5; the pool must raise that
     same failure no matter which domain finishes first. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "lowest-index error at jobs=%d" jobs)
        (Failure "boom5")
        (fun () ->
          ignore
            (Hca_util.Domain_pool.parallel_map ~jobs
               (fun i ->
                 if i >= 5 then failwith (Printf.sprintf "boom%d" i) else i)
               (List.init 10 Fun.id))))
    [ 1; 4 ]

let test_pool_reusable () =
  Hca_util.Domain_pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let got =
          Hca_util.Domain_pool.map pool (fun i -> i * round) [ 1; 2; 3 ]
        in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          [ round; 2 * round; 3 * round ]
          got
      done)

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

let prop_topk_matches_sorted_prefix =
  (* Small keys force ties, so this also pins the stability contract:
     among equal keys the earlier list element wins. *)
  QCheck.Test.make ~name:"Topk.smallest = sorted prefix (stable)" ~count:500
    QCheck.(pair (int_range 0 12) (small_list (int_range 0 5)))
    (fun (k, keys) ->
      let l = List.mapi (fun i key -> (float_of_int key, i)) keys in
      let key (x, _) = x in
      let reference =
        List.filteri
          (fun i _ -> i < k)
          (List.sort (fun a b -> compare (key a) (key b)) l)
      in
      Hca_util.Topk.smallest ~k ~key l = reference)

(* ------------------------------------------------------------------ *)
(* Incremental cost == from-scratch recompute                          *)
(* ------------------------------------------------------------------ *)

let synthetic_problem seed size =
  let ddg =
    Hca_kernels.Synthetic.generate
      {
        Hca_kernels.Synthetic.default with
        size;
        layers = 3;
        mem_ratio = 0.0;
        recurrences = 1;
        seed;
      }
  in
  let pg =
    Pattern_graph.complete ~name:"inc-cost"
      ~capacities:(Array.make 4 { Resource.alus = 8; ags = 8 })
      ~max_in:4
  in
  Problem.of_ddg ~name:"inc-cost" ~ddg ~pg ()

let prop_incremental_cost_exact =
  QCheck.Test.make
    ~name:"State cost after random moves = recompute_cost, bit for bit"
    ~count:60
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      let problem = synthetic_problem seed size in
      let rng = Hca_util.Prng.create (seed + 17) in
      let ii = 8 and target_ii = 8 in
      let weights = Cost.default_weights in
      (* Creation order is topological for the layered generator, so
         producers are placed before their consumers, as in the SEE. *)
      let st = ref (State.create problem) in
      for node = 0 to Problem.size problem - 1 do
        let start = Hca_util.Prng.int rng 4 in
        let rec try_from i =
          if i < 4 then
            match
              State.try_assign !st ~node
                ~cluster:((start + i) mod 4)
                ~ii ~target_ii ~weights
            with
            | Ok st' -> st := st'
            | Error _ -> try_from (i + 1)
        in
        try_from 0
      done;
      let incremental = State.cost !st in
      State.recompute_cost !st ~target_ii ~weights;
      let from_scratch = State.cost !st in
      incremental = from_scratch)

(* ------------------------------------------------------------------ *)
(* Speculative assignment == clone-based assignment                    *)
(* ------------------------------------------------------------------ *)

(* Random walk committing one legal move per node; at every step each
   cluster is probed first speculatively, so the probes run against
   states of every depth.  [probe] sees the current state and a
   pristine clone of it, and returns false to fail the property. *)
let walk_with_probes ~seed ~size probe =
  let problem = synthetic_problem seed size in
  let rng = Hca_util.Prng.create (seed + 23) in
  let ii = 8 and target_ii = 8 in
  let weights = Cost.default_weights in
  let st = ref (State.create problem) in
  let ok = ref true in
  for node = 0 to Problem.size problem - 1 do
    let pristine = State.clone !st in
    for cluster = 0 to 3 do
      if not (probe !st pristine ~node ~cluster ~ii ~target_ii ~weights) then
        ok := false
    done;
    let start = Hca_util.Prng.int rng 4 in
    let rec try_from i =
      if i < 4 then
        match
          State.try_assign !st ~node
            ~cluster:((start + i) mod 4)
            ~ii ~target_ii ~weights
        with
        | Ok st' -> st := st'
        | Error _ -> try_from (i + 1)
    in
    try_from 0
  done;
  !ok

let prop_speculation_roundtrip =
  QCheck.Test.make
    ~name:"speculate_assign + undo leaves the state bit-identical" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      walk_with_probes ~seed ~size
        (fun st pristine ~node ~cluster ~ii ~target_ii ~weights ->
          let sig0 = State.signature st in
          (match
             State.speculate_assign st ~node ~cluster ~ii ~target_ii ~weights
           with
          | Ok () -> State.undo_speculation st
          | Error _ -> () (* failed moves roll back on their own *));
          State.debug_identical st pristine
          && State.signature st = sig0
          && State.signature st = State.signature pristine))

let prop_speculative_cost_exact =
  QCheck.Test.make
    ~name:"speculative cost = clone-based try_assign cost, bit for bit"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      walk_with_probes ~seed ~size
        (fun st _pristine ~node ~cluster ~ii ~target_ii ~weights ->
          let spec =
            match
              State.speculate_assign st ~node ~cluster ~ii ~target_ii ~weights
            with
            | Ok () ->
                let c = State.cost st in
                State.undo_speculation st;
                Some c
            | Error _ -> None
          in
          let cloned =
            match
              State.try_assign st ~node ~cluster ~ii ~target_ii ~weights
            with
            | Ok st' -> Some (State.cost st')
            | Error _ -> None
          in
          match (spec, cloned) with
          | Some a, Some b -> Int64.bits_of_float a = Int64.bits_of_float b
          | None, None -> true
          | _ -> false))

(* The SEE's batched frontier scoring against the per-candidate
   speculate/penalise/undo loop it replaced: same feasibility verdicts,
   bit-equal scores (region-tear penalty included), and the state comes
   back bit-identical.  The candidate array deliberately carries a port
   id and a far out-of-range id to pin the [nan] path. *)
let prop_score_moves_exact =
  QCheck.Test.make
    ~name:"score_moves = speculate/penalise/undo per candidate, bit for bit"
    ~count:40
    QCheck.(triple (int_range 0 1000) (int_range 6 16) (int_range 1 6))
    (fun (seed, size, tail_of_region) ->
      walk_with_probes ~seed ~size
        (fun st pristine ~node ~cluster:_ ~ii ~target_ii ~weights ->
          let clusters = [| 0; 1; 2; 3; 4; 1000 |] in
          let scores = Array.make (Array.length clusters) nan in
          let feasible =
            State.score_moves st ~node ~clusters ~ii ~target_ii ~weights
              ~tail_of_region ~scores
          in
          let expect_feasible = ref 0 in
          let ok = ref (State.debug_identical st pristine) in
          Array.iteri
            (fun k cluster ->
              let reference =
                match
                  State.speculate_assign st ~node ~cluster ~ii ~target_ii
                    ~weights
                with
                | Ok () ->
                    let deficit =
                      tail_of_region - 1
                      - State.free_issue_slots st ~cluster ~ii
                    in
                    if deficit > 0 then
                      State.add_penalty st
                        (weights.Cost.w_tear *. float_of_int deficit);
                    let c = State.cost st in
                    State.undo_speculation st;
                    incr expect_feasible;
                    Some c
                | Error _ -> None
              in
              match reference with
              | Some c ->
                  if Int64.bits_of_float scores.(k) <> Int64.bits_of_float c
                  then ok := false
              | None -> if not (Float.is_nan scores.(k)) then ok := false)
            clusters;
          !ok && feasible = !expect_feasible))

(* ------------------------------------------------------------------ *)
(* Route-Allocator probes == clone-based force_assign                  *)
(* ------------------------------------------------------------------ *)

(* [probe_force]/[commit_probe]/[abort_force] against the retained
   clone path: same error, same blocked triples, a committed snapshot
   indistinguishable from the force_assign clone after its
   [recompute_cost], and the probed state rewound bit for bit. *)
let prop_probe_force_matches_clone_path =
  QCheck.Test.make
    ~name:"probe_force/commit/abort = force_assign on a clone" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, size) ->
      walk_with_probes ~seed ~size
        (fun st pristine ~node ~cluster ~ii ~target_ii ~weights ->
          match State.probe_force st ~node ~cluster ~ii with
          | Error e -> (
              State.debug_identical st pristine
              &&
              match State.force_assign st ~node ~cluster ~ii with
              | Error e' -> e = e'
              | Ok _ -> false)
          | Ok blocked -> (
              let committed =
                State.commit_probe st ~target_ii ~weights
              in
              State.abort_force st;
              State.debug_identical st pristine
              && State.signature st = State.signature pristine
              &&
              match State.force_assign st ~node ~cluster ~ii with
              | Error _ -> false
              | Ok (t', blocked') ->
                  State.recompute_cost t' ~target_ii ~weights;
                  blocked = blocked'
                  && State.debug_identical committed t'
                  && State.signature committed = State.signature t')))

(* ------------------------------------------------------------------ *)
(* Parallel drivers reproduce their sequential runs                    *)
(* ------------------------------------------------------------------ *)

let quality_fields (r : Report.t) =
  ( (r.Report.legal, r.Report.final_mii, r.Report.ii_used, r.Report.copies),
    ( r.Report.forwards,
      r.Report.max_wire_load,
      r.Report.explored_states,
      r.Report.routed_moves ) )

(* The memo counters are part of the jobs-invariance contract too:
   only attempts of the sequential walk count towards them. *)
let report_fields (r : Report.t) =
  ( quality_fields r,
    (r.Report.cache_hits, r.Report.cache_misses, r.Report.reused_subproblems)
  )

let test_portfolio_jobs_invariant () =
  let fabric = Dspfabric.reference in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let seq = Portfolio.run_all ~jobs:1 fabric ddg in
      let par = Portfolio.run_all ~jobs:4 fabric ddg in
      List.iter2
        (fun (cfg1, r1) (cfg4, r4) ->
          Alcotest.(check string)
            (name ^ ": config order") cfg1 cfg4;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: identical report" name cfg1)
            true
            (report_fields r1 = report_fields r4))
        seq par;
      let _, winner1 = Portfolio.best_of seq in
      let _, winner4 = Portfolio.best_of par in
      Alcotest.(check string) (name ^ ": same winner") winner1 winner4)
    Hca_kernels.Registry.all

let test_report_jobs_invariant () =
  let fabric = Dspfabric.reference in
  let ddg = Hca_kernels.Fir2dim.ddg () in
  let seq = Report.run ~jobs:1 fabric ddg in
  let par = Report.run ~jobs:4 fabric ddg in
  Alcotest.(check bool)
    "Report.run jobs=4 = jobs=1" true
    (report_fields seq = report_fields par);
  Alcotest.(check string)
    "invariant string jobs=4 = jobs=1"
    (Report.invariant_string seq)
    (Report.invariant_string par)

let test_memo_invariant () =
  let fabric = Dspfabric.reference in
  List.iter
    (fun (name, f) ->
      let ddg = f () in
      let on = Report.run ~memo:true fabric ddg in
      let off = Report.run ~memo:false fabric ddg in
      Alcotest.(check bool)
        (name ^ ": memo on = memo off")
        true
        (quality_fields on = quality_fields off);
      (* The placement digest too: replayed subproblems and SEE
         outcomes must commit the very same assignment. *)
      Alcotest.(check string)
        (name ^ ": invariant string memo on = memo off")
        (Report.invariant_string off)
        (Report.invariant_string on);
      Alcotest.(check bool)
        (name ^ ": memo off counts nothing")
        true
        ((off.Report.cache_hits, off.Report.cache_misses,
          off.Report.reused_subproblems)
        = (0, 0, 0)))
    Hca_kernels.Registry.all

let test_oracle_jobs_invariant () =
  let fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 () in
  let ddg =
    Hca_kernels.Synthetic.generate
      { Hca_kernels.Synthetic.default with size = 10; layers = 3; seed = 1 }
  in
  let seq = Hca_exact.Oracle.run ~budget_s:20. ~jobs:1 fabric ddg in
  let par = Hca_exact.Oracle.run ~budget_s:20. ~jobs:2 fabric ddg in
  let fields (o : Hca_exact.Oracle.t) =
    ( o.Hca_exact.Oracle.status,
      o.Hca_exact.Oracle.final_mii,
      o.Hca_exact.Oracle.lower_bound,
      o.Hca_exact.Oracle.copies )
  in
  (* [explored] counts conflicts over whichever probes ran, so it may
     differ; the certified answer may not. *)
  Alcotest.(check bool) "oracle jobs=2 = jobs=1" true (fields seq = fields par)

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "empty/singleton" `Quick test_pool_empty_and_single;
          Alcotest.test_case "first error wins" `Quick test_pool_first_error_wins;
          Alcotest.test_case "pool reusable" `Quick test_pool_reusable;
        ] );
      ("topk", [ QCheck_alcotest.to_alcotest prop_topk_matches_sorted_prefix ]);
      ( "incremental_cost",
        [ QCheck_alcotest.to_alcotest prop_incremental_cost_exact ] );
      ( "speculation",
        [
          QCheck_alcotest.to_alcotest prop_speculation_roundtrip;
          QCheck_alcotest.to_alcotest prop_speculative_cost_exact;
          QCheck_alcotest.to_alcotest prop_score_moves_exact;
          QCheck_alcotest.to_alcotest prop_probe_force_matches_clone_path;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "report jobs invariant" `Quick
            test_report_jobs_invariant;
          Alcotest.test_case "memo on/off invariant" `Slow test_memo_invariant;
          Alcotest.test_case "portfolio jobs invariant" `Slow
            test_portfolio_jobs_invariant;
          Alcotest.test_case "oracle jobs invariant" `Quick
            test_oracle_jobs_invariant;
        ] );
    ]
