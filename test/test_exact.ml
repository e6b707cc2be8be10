(* Tests for the exact SAT-based cluster-assignment oracle: the CDCL
   solver on hand-built CNFs, the cardinality encoder, and the oracle
   cross-checked against the flat-ICA heuristic. *)

open Hca_ddg
open Hca_machine
open Hca_exact

(* ------------------------------------------------------------------ *)
(* CDCL solver on hand-built formulas.                                 *)
(* ------------------------------------------------------------------ *)

let result =
  Alcotest.testable
    (fun ppf -> function
      | Sat.Sat -> Format.pp_print_string ppf "sat"
      | Sat.Unsat -> Format.pp_print_string ppf "unsat"
      | Sat.Unknown -> Format.pp_print_string ppf "unknown")
    ( = )

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a ];
  Alcotest.check result "sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "a false" false (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_unsat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a ];
  Alcotest.check result "unsat" Sat.Unsat (Sat.solve s)

let test_empty_clause () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Sat.add_clause s [];
  Alcotest.check result "unsat" Sat.Unsat (Sat.solve s)

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: needs real conflict learning to refute. *)
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 3 do
    Sat.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to 2 do
    for p = 0 to 3 do
      for q = p + 1 to 3 do
        Sat.add_clause s [ -v.(p).(h); -v.(q).(h) ]
      done
    done
  done;
  Alcotest.check result "php(4,3)" Sat.Unsat (Sat.solve s)

let test_assumptions_incremental () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.check result "sat under -a" Sat.Sat (Sat.solve ~assumptions:[ -a ] s);
  Alcotest.(check bool) "b forced" true (Sat.value s b);
  (* The clause set stays usable after an unsat-under-assumptions call. *)
  Sat.add_clause s [ -b ];
  Alcotest.check result "unsat under -a" Sat.Unsat
    (Sat.solve ~assumptions:[ -a ] s);
  Alcotest.check result "still sat" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "a forced" true (Sat.value s a)

(* Cross-check the solver against brute force on random 3-CNFs. *)
let test_random_3sat_vs_bruteforce () =
  let prng = Hca_util.Prng.create 20260805 in
  let nvars = 8 and nclauses = 32 in
  for _ = 1 to 40 do
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Hca_util.Prng.int prng nvars in
              if Hca_util.Prng.bool prng then v else -v))
    in
    let brute =
      let sat = ref false in
      for m = 0 to (1 lsl nvars) - 1 do
        if
          (not !sat)
          && List.for_all
               (List.exists (fun l ->
                    let v = abs l - 1 in
                    let bit = m land (1 lsl v) <> 0 in
                    if l > 0 then bit else not bit))
               clauses
        then sat := true
      done;
      if !sat then Sat.Sat else Sat.Unsat
    in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    Alcotest.check result "matches brute force" brute (Sat.solve s)
  done

(* [~max_conflicts:max_int] means "no cap".  The budget is relative to
   the conflicts already spent, so on a solver that has seen any it
   once overflowed into a negative limit and answered [Unknown] at the
   first conflict; it must saturate instead. *)
let test_max_conflicts_unbounded () =
  let prng = Hca_util.Prng.create 20261017 in
  let nvars = 30 and nclauses = 125 in
  let load clauses =
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    s
  in
  (* Near the 3-SAT threshold: a satisfiable instance where a first
     call stops at a 1-conflict cap and the uncapped rest of the search
     still needs another conflict. *)
  let rec pick tries =
    if tries = 0 then Alcotest.fail "no instance needing two conflicts"
    else
      let clauses =
        List.init nclauses (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Hca_util.Prng.int prng nvars in
                if Hca_util.Prng.bool prng then v else -v))
      in
      let s = load clauses in
      if
        Sat.solve ~max_conflicts:1 s = Sat.Unknown
        &&
        let spent = Sat.conflicts s in
        Sat.solve s = Sat.Sat && Sat.conflicts s > spent
      then clauses
      else pick (tries - 1)
  in
  let s = load (pick 500) in
  Alcotest.check result "capped first call" Sat.Unknown
    (Sat.solve ~max_conflicts:1 s);
  let spent = Sat.conflicts s in
  Alcotest.check result "sat under max_int" Sat.Sat
    (Sat.solve ~max_conflicts:max_int s);
  Alcotest.(check bool) "took a conflict" true (Sat.conflicts s > spent)

(* ------------------------------------------------------------------ *)
(* Cardinality encoding.                                               *)
(* ------------------------------------------------------------------ *)

let test_at_most () =
  let s = Sat.create () in
  let vars = List.init 5 (fun _ -> Sat.new_var s) in
  Encode.at_most s vars 2;
  (* Forcing three of the five true must contradict the counter. *)
  (match vars with
  | a :: b :: c :: _ ->
      Alcotest.check result "3 > 2" Sat.Unsat
        (Sat.solve ~assumptions:[ a; b; c ] s)
  | _ -> assert false);
  (match vars with
  | a :: b :: _ ->
      Alcotest.check result "2 <= 2" Sat.Sat (Sat.solve ~assumptions:[ a; b ] s)
  | _ -> assert false)

let test_at_most_zero () =
  let s = Sat.create () in
  let vars = List.init 3 (fun _ -> Sat.new_var s) in
  Encode.at_most s vars 0;
  Alcotest.check result "sat all-false" Sat.Sat (Sat.solve s);
  List.iter
    (fun v -> Alcotest.(check bool) "forced false" false (Sat.value s v))
    vars

(* ------------------------------------------------------------------ *)
(* Oracle on a hand-built kernel with a known optimum.                  *)
(* ------------------------------------------------------------------ *)

let small_fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:2 ~m:2 ~k:2 ()

let chain4 () =
  (* a -> b -> c -> d, all ALU ops.  On unit-capacity CNs every non-head
     segment of the chain pays one receive on its ALU slot, so feasible
     bounds k admit one head segment of k ops plus tail segments of
     k - 1 ops each: k = 1 packs at most 1 node, k = 2 packs 2+1+1 = 4.
     The proven optimum of the projected final MII is therefore 2. *)
  let b = Ddg.Builder.create ~name:"chain4" () in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Add in
  let b' = Ddg.Builder.add_instr b ~name:"b" Opcode.Add in
  let c = Ddg.Builder.add_instr b ~name:"c" Opcode.Add in
  let d = Ddg.Builder.add_instr b ~name:"d" Opcode.Add in
  Ddg.Builder.add_dep b ~src:a ~dst:b';
  Ddg.Builder.add_dep b ~src:b' ~dst:c;
  Ddg.Builder.add_dep b ~src:c ~dst:d;
  Ddg.Builder.freeze b

let test_oracle_chain_optimal () =
  let r = Oracle.run ~budget_s:20. small_fabric (chain4 ()) in
  (match r.Oracle.status with
  | Oracle.Optimal -> ()
  | s -> Alcotest.failf "expected optimal, got %s" (Oracle.status_to_string s));
  Alcotest.(check (option int)) "optimum 2" (Some 2) r.Oracle.final_mii;
  Alcotest.(check int) "lower bound matches" 2 r.Oracle.lower_bound;
  match r.Oracle.assignment with
  | None -> Alcotest.fail "optimal without a model"
  | Some a ->
      Alcotest.(check int) "every node placed" 0
        (Array.fold_left (fun acc c -> if c < 0 then acc + 1 else acc) 0 a)

let test_oracle_strict_no_better () =
  (* The structural wire clauses can only shrink the feasible set. *)
  let relaxed = Oracle.run ~budget_s:20. small_fabric (chain4 ()) in
  let strict = Oracle.run ~strict:true ~budget_s:20. small_fabric (chain4 ()) in
  match (relaxed.Oracle.final_mii, strict.Oracle.final_mii) with
  | Some r, Some s -> Alcotest.(check bool) "strict >= relaxed" true (s >= r)
  | _ -> Alcotest.fail "both searches should conclude on 4 nodes"

let test_encode_model_checks () =
  let problem = Oracle.problem_of small_fabric (chain4 ()) in
  let inst = Encode.of_problem problem in
  let enc = Encode.encode inst ~k:2 in
  Alcotest.check result "k=2 sat" Sat.Sat (Sat.solve enc.Encode.sat);
  let a = Encode.decode inst enc in
  Alcotest.(check bool) "recomputed MII within bound" true
    (Encode.cluster_mii_of_assignment inst a <= 2);
  let enc1 = Encode.encode inst ~k:1 in
  Alcotest.check result "k=1 unsat" Sat.Unsat (Sat.solve enc1.Encode.sat)

(* ------------------------------------------------------------------ *)
(* Counter ladder: the incremental probing brick.                       *)
(* ------------------------------------------------------------------ *)

let test_counter_ladder () =
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.new_var s) in
  let out = Encode.counter s vars ~width:4 in
  Alcotest.(check int) "width respected" 4 (Array.length out);
  (* The same solver answers every bound b through one assumption. *)
  let take n = List.filteri (fun i _ -> i < n) vars in
  for b = 1 to 3 do
    Alcotest.check result
      (Printf.sprintf "%d > %d refuted" (b + 1) b)
      Sat.Unsat
      (Sat.solve ~assumptions:(-out.(b) :: take (b + 1)) s);
    Alcotest.check result
      (Printf.sprintf "%d <= %d fine" b b)
      Sat.Sat
      (Sat.solve ~assumptions:(-out.(b) :: take b) s)
  done;
  (* Unconstrained without the assumption: all six can be true. *)
  Alcotest.check result "no bound assumed" Sat.Sat (Sat.solve ~assumptions:vars s)

(* ------------------------------------------------------------------ *)
(* Incremental vs fresh equivalence, with and without clause reuse.     *)
(* ------------------------------------------------------------------ *)

(* Verdict and (on Sat) model of "cluster MII <= k" for k = max_k down
   to 1 — the oracle's order — on one incremental solver, each probe
   capped at [max_conflicts] (default: uncapped).  [reuse:false] drops
   the learnt clauses before every probe. *)
let walk_down ?(strict = false) ?(symmetry = true) ?max_conflicts
    ?(reuse = true) inst ~max_k =
  let inc = Encode.make ~strict ~symmetry inst ~max_k in
  let sat = inc.Encode.enc.Encode.sat in
  List.init max_k (fun i ->
      let k = max_k - i in
      if not reuse then Sat.clear_learnt sat;
      Sat.new_probe sat;
      match
        Sat.solve ~assumptions:(Encode.assumptions inc ~k) ?max_conflicts sat
      with
      | Sat.Sat -> (k, Sat.Sat, Some (Encode.decode inst inc.Encode.enc))
      | v -> (k, v, None))

(* Probe "cluster MII <= k" for every k in [1, max_k], three ways: a
   fresh encoding+solver per k, one incremental solver reusing learnt
   clauses across the walk, and one incremental solver dropping them
   before every probe.  All three must return the same verdict at every
   single k — which also pins the certified optimum. *)
(* Indexed ascending by k (element i is the verdict at k = i + 1); the
   incremental solvers still probe in the oracle's downward order. *)
let probe_every_k inst ~max_k =
  let fresh =
    List.init max_k (fun i ->
        let enc = Encode.encode inst ~k:(i + 1) in
        Sat.solve enc.Encode.sat)
  in
  let incremental ~reuse =
    List.rev_map (fun (_, v, _) -> v) (walk_down ~reuse inst ~max_k)
  in
  (fresh, incremental ~reuse:true, incremental ~reuse:false)

let test_incremental_vs_fresh () =
  List.iter
    (fun seed ->
      let ddg = Hca_gen.Gen.ddg ~seed () in
      let fabric = Hca_gen.Gen.fabric ~seed () in
      let inst = Encode.of_problem (Oracle.problem_of fabric ddg) in
      let max_k = min 6 (Encode.size inst) in
      let fresh, inc_reuse, inc_noreuse = probe_every_k inst ~max_k in
      let check_against label =
        List.iteri (fun i v ->
            Alcotest.check result
              (Printf.sprintf "seed %d k=%d %s matches fresh" seed (i + 1)
                 label)
              (List.nth fresh i) v)
      in
      check_against "reuse" inc_reuse;
      check_against "no-reuse" inc_noreuse)
    [ 3; 11; 23 ]

let test_oracle_reuse_equivalence () =
  (* Same verdict and same certified bounds with and without clause
     reuse, at a fixed conflict budget (pure function of the instance). *)
  let kernels =
    chain4 () :: List.map (fun seed -> Hca_gen.Gen.ddg ~seed ()) [ 5; 29 ]
  in
  List.iter
    (fun ddg ->
      let go reuse =
        Oracle.run ~budget_s:infinity ~max_conflicts:50_000 ~reuse small_fabric
          ddg
      in
      let a = go true and b = go false in
      Alcotest.(check string)
        (Ddg.name ddg ^ ": status agrees")
        (Oracle.status_to_string a.Oracle.status)
        (Oracle.status_to_string b.Oracle.status);
      Alcotest.(check (option int))
        (Ddg.name ddg ^ ": final MII agrees")
        a.Oracle.final_mii b.Oracle.final_mii;
      Alcotest.(check int)
        (Ddg.name ddg ^ ": lower bound agrees")
        a.Oracle.lower_bound b.Oracle.lower_bound;
      (* The reuse arm can only see reused hits; the control arm none. *)
      Alcotest.(check int)
        (Ddg.name ddg ^ ": control arm has no cross-probe hits")
        0 b.Oracle.reused_hits)
    kernels

(* ------------------------------------------------------------------ *)
(* Model soundness across clause-DB reductions.                         *)
(* ------------------------------------------------------------------ *)

let test_model_check_after_reduction () =
  (* A reduce_start low enough that every non-trivial solve crosses it
     several times: models must still satisfy the original clauses. *)
  (* 3-SAT near the phase transition (ratio ~4.25) so each solve racks
     up enough conflicts to cross the reduction limit repeatedly. *)
  let prng = Hca_util.Prng.create 20260808 in
  let nvars = 40 and nclauses = 170 in
  let reductions = ref 0 in
  for round = 1 to 12 do
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Hca_util.Prng.int prng nvars in
              if Hca_util.Prng.bool prng then v else -v))
    in
    let s = Sat.create ~reduce_start:8 () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    (match Sat.solve s with
    | Sat.Sat ->
        (* Against the original clause list... *)
        List.iter
          (fun clause ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: original clause satisfied" round)
              true
              (List.exists
                 (fun l ->
                   if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                 clause))
          clauses;
        (* ... and against what the arena still stores after GC. *)
        Sat.fold_problem_clauses s
          (fun () clause ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: stored clause satisfied" round)
              true
              (List.exists
                 (fun l ->
                   if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                 clause))
          ()
    | Sat.Unsat -> ()
    | Sat.Unknown -> Alcotest.fail "no budget was set");
    reductions := !reductions + Sat.deleted_total s
  done;
  Alcotest.(check bool)
    "the reduction path was actually exercised" true (!reductions > 0)

let test_probe_epoch_stats () =
  (* Two probes of the same instance: the second must fire clauses the
     first learned.  chain4 at k=1 is a refutation with real learning. *)
  let inst = Encode.of_problem (Oracle.problem_of small_fabric (chain4 ())) in
  let inc = Encode.make inst ~max_k:4 in
  let sat = inc.Encode.enc.Encode.sat in
  Sat.new_probe sat;
  Alcotest.check result "k=1 unsat" Sat.Unsat
    (Sat.solve ~assumptions:(Encode.assumptions inc ~k:1) sat);
  Alcotest.(check int) "no cross-probe hits yet" 0 (Sat.reused_hits sat);
  let learnt_before = Sat.learnt_total sat in
  Sat.new_probe sat;
  Alcotest.check result "k=1 unsat again" Sat.Unsat
    (Sat.solve ~assumptions:(Encode.assumptions inc ~k:1) sat);
  Alcotest.(check bool) "second refutation reused learned clauses" true
    (Sat.reused_hits sat > 0 || Sat.learnt_total sat = learnt_before)

(* ------------------------------------------------------------------ *)
(* Symmetry breaking: value precedence over equal-capacity CN classes.  *)
(* ------------------------------------------------------------------ *)

(* The exact optimum by enumerating all cns^n assignments. *)
let brute_force_optimum inst =
  let n = Encode.size inst and cns = Encode.cns inst in
  let a = Array.make n 0 and best = ref max_int in
  let rec go i =
    if i = n then best := min !best (Encode.cluster_mii_of_assignment inst a)
    else
      for c = 0 to cns - 1 do
        a.(i) <- c;
        go (i + 1)
      done
  in
  go 0;
  !best

(* Smallest bound the symmetry-broken encoding satisfies. *)
let encoded_optimum inst =
  let max_k = Encode.size inst in
  List.fold_left
    (fun acc (k, v, _) -> if v = Sat.Sat then min acc k else acc)
    max_int
    (walk_down inst ~max_k)

(* Fuzzer draws small enough for the plain encoding to decide every k:
   up to 10 instructions on the default 4-16 CN machines, a third of
   them heterogeneous. *)
let small_ddg_knobs = { Hca_gen.Gen.default_ddg_knobs with max_size = 10 }

let fuzz_instance ?machine_knobs ~ddg_knobs ~hetero seed =
  let inst = Hca_gen.Gen.instance ~ddg_knobs ?machine_knobs ~seed () in
  (* [desc ~hetero:0.] is [fabric], so homogeneous draws keep the
     instance's own machine. *)
  let fabric = Hca_gen.Gen.desc ?knobs:machine_knobs ~hetero ~seed () in
  Encode.of_problem (Oracle.problem_of fabric inst.Hca_gen.Gen.ddg)

let symmetry_arb =
  QCheck.make
    ~print:(fun (seed, hetero, strict) ->
      Printf.sprintf "seed=%d hetero=%.1f strict=%b" seed hetero strict)
    QCheck.Gen.(
      triple (int_bound 100_000) (oneofl [ 0.; 0.; 0.5 ]) bool)

let prop_symmetry_verdicts_agree =
  QCheck.Test.make ~name:"verdict = plain verdict at every k"
    ~count:60 symmetry_arb (fun (seed, hetero, strict) ->
      let inst = fuzz_instance ~ddg_knobs:small_ddg_knobs ~hetero seed in
      let max_k = Encode.size inst in
      let broken =
        walk_down ~strict ~max_conflicts:100_000 inst ~max_k
      in
      (* The plain side pays for every relabelling; a probe it cannot
         decide within its cap is skipped, never counted as agreement. *)
      let plain =
        walk_down ~strict ~symmetry:false ~max_conflicts:20_000 inst ~max_k
      in
      List.for_all2
        (fun (k, v, model) (_, v', _) ->
          if v = Sat.Unknown then
            QCheck.Test.fail_reportf "k=%d: broken encoding undecided" k;
          if v' <> Sat.Unknown && v <> v' then
            QCheck.Test.fail_reportf "k=%d: verdicts differ" k;
          match model with
          | Some a when not strict ->
              let got = Encode.cluster_mii_of_assignment inst a in
              if got > k then
                QCheck.Test.fail_reportf "k=%d: model re-scores to %d" k got;
              true
          | _ -> true)
        broken plain)

let prop_symmetry_vs_brute_force =
  (* 2x2 machines (4 CNs), at most 7 instructions: 4^7 assignments. *)
  let machine_knobs =
    { Hca_gen.Gen.default_machine_knobs with fanout_choices = [| [| 2; 2 |] |] }
  in
  let ddg_knobs = { Hca_gen.Gen.default_ddg_knobs with max_size = 7 } in
  QCheck.Test.make ~name:"optimum = brute force (tiny)"
    ~count:40 symmetry_arb (fun (seed, hetero, _) ->
      let inst = fuzz_instance ~machine_knobs ~ddg_knobs ~hetero seed in
      let brute = brute_force_optimum inst
      and encoded = encoded_optimum inst in
      if brute <> encoded then
        QCheck.Test.fail_reportf "brute force %d, encoding %d" brute encoded;
      true)

let optgap_fabric = Dspfabric.make ~fanouts:[| 2; 2; 2 |] ~n:4 ~m:4 ~k:4 ()

let test_symmetry_proves_synthetics () =
  (* The optgap synthetics whose k = 3 refutation the plain encoding
     cannot finish within 4000 conflicts per probe. *)
  List.iter
    (fun (size, seed) ->
      let ddg =
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size;
            layers = 3;
            recurrences = 1;
            seed;
          }
      in
      let r =
        Oracle.run ~budget_s:infinity ~max_conflicts:4000 optgap_fabric ddg
      in
      let name = Printf.sprintf "syn%d" size in
      Alcotest.(check string)
        (name ^ " proven optimal") "optimal"
        (Oracle.status_to_string r.Oracle.status);
      Alcotest.(check int) (name ^ " lower bound") 4 r.Oracle.lower_bound;
      Alcotest.(check (option int)) (name ^ " optimum") (Some 4)
        r.Oracle.final_mii)
    [ (14, 2); (16, 5); (18, 3) ]

let test_symmetry_heterogeneous_classes () =
  (* Three CNs without an AG unit and one with two: they differ only in
     AG count, so they must form two classes.  Merged into one, the
     precedence chain would pin node 0 — an address generator — onto
     CN 0, which has no AG slot, and refute every bound. *)
  let tables =
    [|
      { Resource.alus = 1; ags = 0 };
      { Resource.alus = 1; ags = 0 };
      { Resource.alus = 1; ags = 0 };
      { Resource.alus = 1; ags = 2 };
    |]
  in
  let fabric =
    Machine_desc.with_tables
      (Dspfabric.make ~fanouts:[| 2; 2 |] ~n:2 ~m:2 ~k:2 ())
      tables
  in
  let b = Ddg.Builder.create ~name:"agchain" () in
  let a = Ddg.Builder.add_instr b ~name:"a" Opcode.Agen in
  let ld = Ddg.Builder.add_instr b ~name:"ld" Opcode.Load in
  let x = Ddg.Builder.add_instr b ~name:"x" Opcode.Add in
  let y = Ddg.Builder.add_instr b ~name:"y" Opcode.Mul in
  let z = Ddg.Builder.add_instr b ~name:"z" Opcode.Add in
  let st = Ddg.Builder.add_instr b ~name:"st" Opcode.Store in
  List.iter
    (fun (src, dst) -> Ddg.Builder.add_dep b ~src ~dst)
    [ (a, ld); (ld, x); (x, y); (ld, z); (y, st); (z, st); (a, st) ];
  let ddg = Ddg.Builder.freeze b in
  let inst = Encode.of_problem (Oracle.problem_of fabric ddg) in
  let brute = brute_force_optimum inst in
  Alcotest.(check int) "encoded optimum = brute force" brute
    (encoded_optimum inst);
  let r = Oracle.run ~budget_s:infinity fabric ddg in
  Alcotest.(check string) "oracle proves it" "optimal"
    (Oracle.status_to_string r.Oracle.status);
  let ini = Mii.mii ddg (Dspfabric.resources fabric) in
  Alcotest.(check (option int)) "oracle optimum" (Some (max ini brute))
    r.Oracle.final_mii

(* ------------------------------------------------------------------ *)
(* Cross-check: the oracle is a certified lower bound on the SEE.       *)
(* ------------------------------------------------------------------ *)

let crosscheck_kernel name ddg =
  let fabric = small_fabric in
  let flat = Hca_baseline.Flat_ica.run ~config:Hca_core.Config.greedy fabric ddg in
  match (flat.Hca_baseline.Flat_ica.outcome, flat.Hca_baseline.Flat_ica.projected_mii) with
  | Some _, Some projected ->
      let ini = Mii.mii ddg (Dspfabric.resources fabric) in
      let achieved = max ini projected in
      let oracle = Oracle.run ~budget_s:10. fabric ddg in
      Alcotest.(check bool)
        (name ^ ": certified lower bound <= SEE result")
        true
        (oracle.Oracle.lower_bound <= achieved);
      (match oracle.Oracle.final_mii with
      | Some f ->
          Alcotest.(check bool)
            (name ^ ": oracle never above a legal SEE MII")
            true (f <= achieved)
      | None -> ())
  | _ -> () (* SEE found nothing to compare against *)

let test_crosscheck_synthetic () =
  List.iter
    (fun (size, seed) ->
      let ddg =
        Hca_kernels.Synthetic.generate
          {
            Hca_kernels.Synthetic.default with
            size;
            layers = 3;
            seed;
            recurrences = 1;
          }
      in
      crosscheck_kernel (Printf.sprintf "syn%d/%d" size seed) ddg)
    [ (10, 1); (12, 2); (14, 3) ]

let test_crosscheck_chain () = crosscheck_kernel "chain4" (chain4 ())

let () =
  Alcotest.run "exact"
    [
      ( "sat",
        [
          Alcotest.test_case "basic sat" `Quick test_sat_basic;
          Alcotest.test_case "basic unsat" `Quick test_unsat_basic;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions_incremental;
          Alcotest.test_case "vs brute force" `Quick test_random_3sat_vs_bruteforce;
          Alcotest.test_case "max_conflicts max_int" `Quick
            test_max_conflicts_unbounded;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "at most k" `Quick test_at_most;
          Alcotest.test_case "at most 0" `Quick test_at_most_zero;
          Alcotest.test_case "counter ladder" `Quick test_counter_ladder;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "vs fresh at every k" `Slow
            test_incremental_vs_fresh;
          Alcotest.test_case "oracle reuse on/off" `Slow
            test_oracle_reuse_equivalence;
          Alcotest.test_case "model check after reduction" `Quick
            test_model_check_after_reduction;
          Alcotest.test_case "probe epochs" `Quick test_probe_epoch_stats;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "chain optimum" `Quick test_oracle_chain_optimal;
          Alcotest.test_case "strict no better" `Quick test_oracle_strict_no_better;
          Alcotest.test_case "model checks" `Quick test_encode_model_checks;
        ] );
      ( "symmetry",
        [
          QCheck_alcotest.to_alcotest prop_symmetry_verdicts_agree;
          QCheck_alcotest.to_alcotest prop_symmetry_vs_brute_force;
          Alcotest.test_case "optgap synthetics proven" `Quick
            test_symmetry_proves_synthetics;
          Alcotest.test_case "heterogeneous classes" `Quick
            test_symmetry_heterogeneous_classes;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "synthetic" `Slow test_crosscheck_synthetic;
          Alcotest.test_case "chain" `Quick test_crosscheck_chain;
        ] );
    ]
