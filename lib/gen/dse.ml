open Hca_machine
open Hca_core
module Json = Hca_util.Json

type point = { pname : string; desc : Machine_desc.t }

type eval = { point : string; kernel : string; report : Report.t }

type summary = {
  point : string;
  machine : string;
  cns : int;
  machine_wires : int;
  score : int option;
  legal_kernels : int;
  pareto : bool;
}

type result = {
  evals : eval list;
  summaries : summary list;
  front : summary list;
}

let shape_name fanouts =
  String.concat "x" (Array.to_list (Array.map string_of_int fanouts))

let grid_points ?(dma = [ 8 ]) ~fanouts ~caps () =
  if fanouts = [] || caps = [] || dma = [] then
    invalid_arg "Dse.grid_points: empty dimension";
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun c ->
          List.map
            (fun d ->
              {
                pname = Printf.sprintf "g%s-c%d-d%d" (shape_name shape) c d;
                desc =
                  Dspfabric.make ~fanouts:(Array.copy shape) ~dma_ports:d ~n:c
                    ~m:c ~k:c ();
              })
            dma)
        caps)
    fanouts

let random_points ?knobs ?hetero ~count ~seed () =
  List.init count (fun i ->
      let seed = seed + i in
      {
        pname = Printf.sprintf "r%d" seed;
        desc = Gen.desc ?knobs ?hetero ~seed ();
      })

let machine_points descs =
  List.map (fun (pname, desc) -> { pname; desc }) descs

(* All three axes minimised; ties (equal triples) are mutually
   non-dominating, so duplicates both stay on the front. *)
let non_dominated costs =
  let n = Array.length costs in
  Array.init n (fun i ->
      let si, wi, ci = costs.(i) in
      let dominated = ref false in
      for j = 0 to n - 1 do
        if j <> i && not !dominated then begin
          let sj, wj, cj = costs.(j) in
          if
            sj <= si && wj <= wi && cj <= ci
            && (sj < si || wj < wi || cj < ci)
          then dominated := true
        end
      done;
      not !dominated)

let summarise points evals =
  let viable =
    List.map
      (fun p ->
        let rows = List.filter (fun (e : eval) -> e.point = p.pname) evals in
        let legal_kernels =
          List.length
            (List.filter
               (fun e -> e.report.Report.legal && e.report.Report.error = None)
               rows)
        in
        let score =
          if legal_kernels < List.length rows then None
          else
            List.fold_left
              (fun acc e ->
                match (acc, e.report.Report.final_mii) with
                | Some a, Some m -> Some (a + m)
                | _ -> None)
              (Some 0) rows
        in
        {
          point = p.pname;
          machine = Machine_desc.name p.desc;
          cns = Machine_desc.total_cns p.desc;
          machine_wires = Machine_desc.wire_cost p.desc;
          score;
          legal_kernels;
          pareto = false;
        })
      points
  in
  let scored = List.filter (fun s -> s.score <> None) viable in
  let costs =
    Array.of_list
      (List.map
         (fun s -> (Option.get s.score, s.machine_wires, s.cns))
         scored)
  in
  let keep = non_dominated costs in
  let on_front = Hashtbl.create 8 in
  List.iteri
    (fun i s -> if keep.(i) then Hashtbl.replace on_front s.point ())
    scored;
  let summaries =
    List.map (fun s -> { s with pareto = Hashtbl.mem on_front s.point }) viable
  in
  let front =
    List.filter (fun s -> s.pareto) summaries
    |> List.sort (fun a b ->
           compare
             (a.score, a.machine_wires, a.cns, a.point)
             (b.score, b.machine_wires, b.cns, b.point))
  in
  (summaries, front)

let run ?(config = Config.default) ?(jobs = 1) ~kernels points =
  if points = [] then invalid_arg "Dse.run: no machine points";
  if kernels = [] then invalid_arg "Dse.run: no kernels";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.pname then
        invalid_arg (Printf.sprintf "Dse.run: duplicate point %S" p.pname);
      Hashtbl.replace seen p.pname ())
    points;
  let pairs =
    List.concat_map (fun p -> List.map (fun k -> (p, k)) kernels) points
  in
  (* The pool returns results in submission order, so the evaluation
     list — and everything derived from it — is independent of [jobs];
     each evaluation runs at [jobs:1] with a fresh memo cache, so its
     row is bit-equal to a standalone [Report.run] on that machine. *)
  let evals =
    Hca_util.Domain_pool.with_pool ~jobs (fun pool ->
        Hca_util.Domain_pool.map pool
          (fun (p, (kname, ddg)) ->
            {
              point = p.pname;
              kernel = kname;
              report = Report.run ~config ~jobs:1 p.desc ddg;
            })
          pairs)
  in
  let summaries, front = summarise points evals in
  { evals; summaries; front }

(* NDJSON mirrors the [hca bench] row shape (same quality-field names,
   so bench_guard gates dse rows like any experiment) but only prints
   figures that are pure functions of the sweep spec — no wall clock,
   no allocation meters, no run stamp — so the bytes are identical at
   any [jobs]. *)
let to_ndjson r =
  let buf = Buffer.create 4096 in
  let row ~experiment ~kernel fields =
    Buffer.add_string buf (Json.row ~experiment ~kernel fields)
  in
  let jint i = Json.Num (float_of_int i) in
  let jopt = function None -> Json.Null | Some v -> jint v in
  let jbool b = Json.Bool b in
  let jstr s = Json.Str s in
  List.iter
    (fun e ->
      let r = e.report in
      row ~experiment:"dse"
        ~kernel:(e.point ^ "/" ^ e.kernel)
        ([
           ("machine", jstr r.Report.machine);
           ("n_instr", jint r.Report.n_instr);
           ("mii_rec", jint r.Report.mii_rec);
           ("mii_res", jint r.Report.mii_res);
           ("legal", jbool r.Report.legal);
           ("final_mii", jopt r.Report.final_mii);
           ("ii_used", jint r.Report.ii_used);
           ("copies", jint r.Report.copies);
           ("wires", jint r.Report.max_wire_load);
           ("forwards", jint r.Report.forwards);
           ("explored", jint r.Report.explored_states);
           ("invariant", jstr (Report.invariant_string r));
         ]
        @
        match r.Report.error with
        | None -> []
        | Some e -> [ ("error", jstr e) ]))
    r.evals;
  List.iter
    (fun s ->
      row ~experiment:"dse_points" ~kernel:s.point
        [
          ("machine", jstr s.machine);
          ("cns", jint s.cns);
          ("machine_wires", jint s.machine_wires);
          ("score", jopt s.score);
          ("legal_kernels", jint s.legal_kernels);
          ("pareto", jbool s.pareto);
        ])
    r.summaries;
  Buffer.contents buf

let ranked_table r =
  let t =
    Hca_util.Tabular.create
      [
        ("Point", Hca_util.Tabular.Left);
        ("Machine", Hca_util.Tabular.Left);
        ("CNs", Hca_util.Tabular.Right);
        ("Wires", Hca_util.Tabular.Right);
        ("Legal", Hca_util.Tabular.Right);
        ("Score", Hca_util.Tabular.Right);
        ("Pareto", Hca_util.Tabular.Left);
      ]
  in
  let viable, failed =
    List.partition (fun s -> s.score <> None) r.summaries
  in
  let ranked =
    List.sort
      (fun a b ->
        compare
          (a.score, a.machine_wires, a.cns, a.point)
          (b.score, b.machine_wires, b.cns, b.point))
      viable
  in
  List.iter
    (fun s ->
      Hca_util.Tabular.add_row t
        [
          s.point;
          s.machine;
          string_of_int s.cns;
          string_of_int s.machine_wires;
          string_of_int s.legal_kernels;
          (match s.score with Some v -> string_of_int v | None -> "-");
          (if s.pareto then "*" else "");
        ])
    (ranked @ failed);
  Hca_util.Tabular.render t

let check r =
  let ( let* ) = Result.bind in
  let points = List.length r.summaries in
  let kernels =
    match r.summaries with
    | [] -> 0
    | s :: _ ->
        List.length (List.filter (fun (e : eval) -> e.point = s.point) r.evals)
  in
  let* () =
    if List.length r.evals = points * kernels then Ok ()
    else
      Error
        (Printf.sprintf "expected %d evaluations (%d points x %d kernels), got %d"
           (points * kernels) points kernels (List.length r.evals))
  in
  let viable = List.filter (fun s -> s.score <> None) r.summaries in
  let costs =
    Array.of_list
      (List.map (fun s -> (Option.get s.score, s.machine_wires, s.cns)) viable)
  in
  let keep = non_dominated costs in
  let expected = ref [] in
  List.iteri (fun i s -> if keep.(i) then expected := s.point :: !expected) viable;
  let expected = List.sort compare !expected in
  let got = List.sort compare (List.map (fun s -> s.point) r.front) in
  let* () =
    if expected = got then Ok ()
    else
      Error
        (Printf.sprintf "Pareto front mismatch: expected {%s}, got {%s}"
           (String.concat "," expected) (String.concat "," got))
  in
  let* () =
    if
      List.for_all
        (fun (s : summary) ->
          s.pareto = List.exists (fun f -> f.point = s.point) r.front)
        r.summaries
    then Ok ()
    else Error "summary pareto flags disagree with the front"
  in
  Ok ()
