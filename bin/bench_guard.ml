(* bench_guard: quality-regression gate over bench NDJSON output.

   Usage: bench_guard [--runtime-budget EXP/KERNEL=SECONDS]...
                      [--gate-optgap] BASELINE.json CURRENT.json

   Both files hold newline-delimited JSON records as emitted by
   [bench/main.exe --json].  For every (experiment, kernel) row present
   in BOTH files, the quality fields — "final_mii", "legal", "copies",
   and "wires" when present — must match exactly as parsed JSON values;
   runtimes and counters may drift, quality may not.  Rows only one side
   has (new kernels, new experiments) are reported but do not fail the
   gate, so the baseline does not need to grow in lockstep with the
   suite.

   The "optgap" experiment is skipped by default: its oracle columns
   depend on a SAT budget, so exact equality is not stable across
   machines.  [--gate-optgap] turns on the budget-robust checks
   instead: the two runs' {e certificates} must not contradict (a
   current certified lower bound above a baseline model, or a current
   model below the baseline's certified lower bound, is always a solver
   bug regardless of budget), two proven optima must agree, and the
   number of proven-optimal rows must not drop — a solver speed
   regression shows up as a probe that no longer closes in budget.

   Each repeatable [--runtime-budget exp/kernel=seconds] flag adds a
   wall-clock ceiling on one CURRENT row's "runtime_s": a row over its
   budget (or a budgeted row that is missing) fails the gate exactly
   like a quality regression.  Budgets are opt-in per row, so the
   default gate stays machine-independent; CI pins them only on the
   kernels whose hot-path performance is a tracked deliverable.

   Each repeatable [--require-rows exp=N] flag gates the CURRENT run's
   coverage: the file must hold exactly N rows of that experiment.  A
   sweep that silently dropped points (or double-counted them) fails
   even though every row it did emit is individually clean — this is
   how the dse-smoke gate pins the size of the swept design space.

   Each repeatable [--overhead-budget exp/kernel=factor] flag instead
   gates the RATIO of the current row's "runtime_s" to the baseline's:
   current must be <= factor * baseline.  Since both runs come from the
   same machine in the same CI job, the ratio is machine-independent —
   this is how the telemetry-overhead gate proves that arming the
   observability stack costs at most the budgeted factor.

   A baseline row whose "git" stamp carries a "-dirty" suffix draws a
   warning: it was produced from an uncommitted tree, so it cannot be
   correlated with any commit (the PR-7 baseline had exactly this flaw).

   Exit status: 0 clean, 1 on any quality regression or busted runtime
   budget, 2 on usage or parse errors.

   Rows are read with [Hca_util.Json], the repo's one JSON codec; a
   line that does not parse is reported with its file and line number.
   The repo carries no JSON dependency, so the codec is its own. *)

module Json = Hca_util.Json

let quality_fields = [ "final_mii"; "legal"; "copies"; "wires" ]

let skipped_experiments = [ "optgap" ]

let field name conv fields = Option.bind (List.assoc_opt name fields) conv

(* NDJSON file -> ((experiment, kernel), fields) rows, in file order. *)
let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail lineno msg =
        failwith (Printf.sprintf "%s:%d: %s" path lineno msg)
      in
      let rec go lineno rows =
        match input_line ic with
        | exception End_of_file -> List.rev rows
        | line when String.trim line = "" -> go (lineno + 1) rows
        | line -> (
            match Json.parse line with
            | Error e -> fail lineno e
            | Ok (Json.Obj fields) -> (
                match
                  ( field "experiment" Json.str fields,
                    field "kernel" Json.str fields )
                with
                | Some e, Some k -> go (lineno + 1) (((e, k), fields) :: rows)
                | _ -> fail lineno "row without experiment/kernel")
            | Ok _ -> fail lineno "row is not a JSON object")
      in
      go 1 [])

let usage () =
  prerr_endline
    "usage: bench_guard [--runtime-budget EXP/KERNEL=SECONDS]... \
     [--overhead-budget EXP/KERNEL=FACTOR]... [--require-rows EXP=N]... \
     [--gate-optgap] BASELINE.json CURRENT.json";
  exit 2

(* "exp/kernel=seconds" -> ((exp, kernel), seconds) *)
let parse_budget spec =
  match String.index_opt spec '=' with
  | None -> None
  | Some eq -> (
      let target = String.sub spec 0 eq in
      let secs = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match (String.index_opt target '/', float_of_string_opt secs) with
      | Some slash, Some s when s > 0.0 ->
          let exp = String.sub target 0 slash in
          let kernel =
            String.sub target (slash + 1) (String.length target - slash - 1)
          in
          if exp = "" || kernel = "" then None else Some ((exp, kernel), s)
      | _ -> None)

(* "exp=N" -> (exp, N) *)
let parse_row_count spec =
  match String.index_opt spec '=' with
  | None -> None
  | Some eq -> (
      let exp = String.sub spec 0 eq in
      let count = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match int_of_string_opt count with
      | Some n when exp <> "" && n >= 0 -> Some (exp, n)
      | _ -> None)

let () =
  let budgets = ref [] in
  let overheads = ref [] in
  let row_counts = ref [] in
  let paths = ref [] in
  let gate_optgap = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--runtime-budget" :: spec :: rest -> (
        match parse_budget spec with
        | Some b ->
            budgets := b :: !budgets;
            parse_args rest
        | None ->
            Printf.eprintf
              "bench_guard: bad --runtime-budget %S (want exp/kernel=seconds)\n"
              spec;
            exit 2)
    | [ "--runtime-budget" ] -> usage ()
    | "--overhead-budget" :: spec :: rest -> (
        match parse_budget spec with
        | Some b ->
            overheads := b :: !overheads;
            parse_args rest
        | None ->
            Printf.eprintf
              "bench_guard: bad --overhead-budget %S (want exp/kernel=factor)\n"
              spec;
            exit 2)
    | [ "--overhead-budget" ] -> usage ()
    | "--require-rows" :: spec :: rest -> (
        match parse_row_count spec with
        | Some rc ->
            row_counts := rc :: !row_counts;
            parse_args rest
        | None ->
            Printf.eprintf
              "bench_guard: bad --require-rows %S (want exp=N)\n" spec;
            exit 2)
    | [ "--require-rows" ] -> usage ()
    | "--gate-optgap" :: rest ->
        gate_optgap := true;
        parse_args rest
    | p :: rest ->
        paths := p :: !paths;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let budgets = List.rev !budgets in
  let overheads = List.rev !overheads in
  let row_counts = List.rev !row_counts in
  match List.rev !paths with
  | [ baseline_path; current_path ] -> (
      match (load baseline_path, load current_path) with
      | exception Failure msg ->
          Printf.eprintf "bench_guard: %s\n" msg;
          exit 2
      | exception Sys_error msg ->
          Printf.eprintf "bench_guard: %s\n" msg;
          exit 2
      | baseline, current ->
          let regressions = ref 0 and compared = ref 0 in
          (* Provenance check: a -dirty stamp means the baseline was
             generated from an uncommitted tree and matches no commit. *)
          let dirty_rows =
            List.filter
              (fun (_, fields) ->
                match field "git" Json.str fields with
                | Some v -> String.ends_with ~suffix:"-dirty" v
                | None -> false)
              baseline
          in
          if dirty_rows <> [] then
            Printf.printf
              "  warning: %d baseline row(s) carry a -dirty git stamp \
               (produced from an uncommitted tree); regenerate the baseline \
               from a clean checkout\n"
              (List.length dirty_rows);
          let base_optimal = ref 0 and cur_optimal = ref 0 in
          List.iter
            (fun ((exp, kernel), cur_fields) ->
              match List.assoc_opt (exp, kernel) baseline with
              | _
                when List.mem exp skipped_experiments
                     && not (!gate_optgap && exp = "optgap") ->
                  ()
              | None ->
                  Printf.printf "  new row %s/%s (not in baseline, ok)\n" exp
                    kernel
              | Some base_fields when exp = "optgap" ->
                  (* Budget-robust oracle checks: certificates from two
                     runs of a sound solver can never contradict, no
                     matter how their budgets differed. *)
                  incr compared;
                  let int_field fields name = field name Json.int fields in
                  let status fields = field "status" Json.str fields in
                  if status base_fields = Some "optimal" then incr base_optimal;
                  if status cur_fields = Some "optimal" then incr cur_optimal;
                  (match
                     ( int_field cur_fields "lower_bound",
                       int_field base_fields "final_mii" )
                   with
                  | Some lc, Some fb when lc > fb ->
                      incr regressions;
                      Printf.printf
                        "REGRESSION %s/%s: certified lower bound %d \
                         contradicts baseline model at %d\n"
                        exp kernel lc fb
                  | _ -> ());
                  (match
                     ( int_field base_fields "lower_bound",
                       int_field cur_fields "final_mii" )
                   with
                  | Some lb, Some fc when fc < lb ->
                      incr regressions;
                      Printf.printf
                        "REGRESSION %s/%s: model at %d below baseline \
                         certified lower bound %d\n"
                        exp kernel fc lb
                  | _ -> ());
                  (match
                     ( status base_fields,
                       status cur_fields,
                       int_field base_fields "final_mii",
                       int_field cur_fields "final_mii" )
                   with
                  | Some "optimal", Some "optimal", Some a, Some b
                    when a <> b ->
                      incr regressions;
                      Printf.printf
                        "REGRESSION %s/%s: proven optimum moved from %d to %d\n"
                        exp kernel a b
                  | _ -> ())
              | Some base_fields ->
                  incr compared;
                  List.iter
                    (fun f ->
                      match
                        ( List.assoc_opt f base_fields,
                          List.assoc_opt f cur_fields )
                      with
                      | Some b, Some c when b <> c ->
                          incr regressions;
                          Printf.printf
                            "REGRESSION %s/%s: %s was %s, now %s\n" exp kernel
                            f (Json.to_string b) (Json.to_string c)
                      | Some _, None ->
                          incr regressions;
                          Printf.printf "REGRESSION %s/%s: %s disappeared\n"
                            exp kernel f
                      | None, _ -> ()
                      | Some _, Some _ -> ())
                    quality_fields)
            current;
          if !gate_optgap && !cur_optimal < !base_optimal then begin
            incr regressions;
            Printf.printf
              "REGRESSION optgap: proven-optimal rows dropped from %d to %d \
               (a probe no longer closes within its budget)\n"
              !base_optimal !cur_optimal
          end;
          List.iter
            (fun ((exp, kernel), _) ->
              if not (List.mem_assoc (exp, kernel) current) then
                Printf.printf "  baseline row %s/%s missing from current run\n"
                  exp kernel)
            baseline;
          List.iter
            (fun ((exp, kernel), budget_s) ->
              match List.assoc_opt (exp, kernel) current with
              | None ->
                  incr regressions;
                  Printf.printf
                    "REGRESSION %s/%s: runtime budget %.3fs set but row \
                     missing from current run\n"
                    exp kernel budget_s
              | Some fields -> (
                  match field "runtime_s" Json.num fields with
                  | None ->
                      incr regressions;
                      Printf.printf
                        "REGRESSION %s/%s: runtime budget %.3fs set but row \
                         has no runtime_s\n"
                        exp kernel budget_s
                  | Some t when t > budget_s ->
                      incr regressions;
                      Printf.printf
                        "REGRESSION %s/%s: runtime_s %.3f over budget %.3f\n"
                        exp kernel t budget_s
                  | Some t ->
                      Printf.printf "  %s/%s runtime_s %.3f within budget %.3f\n"
                        exp kernel t budget_s))
            budgets;
          (* Coverage gate: the current run must hold exactly the
             declared number of rows per experiment — a sweep that
             dropped points emits only clean rows, so nothing else
             would notice. *)
          List.iter
            (fun (exp, want) ->
              let got =
                List.length (List.filter (fun ((e, _), _) -> e = exp) current)
              in
              if got <> want then begin
                incr regressions;
                Printf.printf
                  "REGRESSION %s: expected %d row(s) in the current run, got \
                   %d\n"
                  exp want got
              end
              else
                Printf.printf "  %s row count %d as required\n" exp got)
            row_counts;
          (* Ratio gate: current runtime_s <= factor * baseline
             runtime_s for the same (experiment, kernel) row.  Both
             runs come from this invocation's two input files, so the
             comparison cancels the machine out. *)
          List.iter
            (fun ((exp, kernel), factor) ->
              let runtime rows =
                Option.bind
                  (List.assoc_opt (exp, kernel) rows)
                  (field "runtime_s" Json.num)
              in
              match (runtime baseline, runtime current) with
              | None, _ | _, None ->
                  incr regressions;
                  Printf.printf
                    "REGRESSION %s/%s: overhead budget %.2fx set but the row \
                     (with runtime_s) is missing from %s\n"
                    exp kernel factor
                    (if runtime baseline = None then "the baseline run"
                     else "the current run")
              | Some base_t, Some cur_t ->
                  if cur_t > factor *. base_t then begin
                    incr regressions;
                    Printf.printf
                      "REGRESSION %s/%s: runtime_s %.3f is %.2fx the baseline \
                       %.3f (budget %.2fx)\n"
                      exp kernel cur_t
                      (if base_t > 0. then cur_t /. base_t else infinity)
                      base_t factor
                  end
                  else
                    Printf.printf
                      "  %s/%s runtime_s %.3f vs baseline %.3f (%.2fx, budget \
                       %.2fx)\n"
                      exp kernel cur_t base_t
                      (if base_t > 0. then cur_t /. base_t else 0.)
                      factor)
            overheads;
          if !regressions > 0 then begin
            Printf.printf "bench_guard: %d quality regression(s) over %d rows\n"
              !regressions !compared;
            exit 1
          end
          else
            Printf.printf "bench_guard: %d rows compared, quality unchanged\n"
              !compared)
  | _ -> usage ()
