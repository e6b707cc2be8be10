module Json = Hca_util.Json
module Report = Hca_core.Report
module Registry = Hca_obs.Obs.Registry

type summary = {
  count : int;
  ok : int;
  failed : int;
  deadline_exceeded : int;
  errors : int;
  timeouts : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  loaded_entries : int;
  elapsed_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  submit_p50_ms : float;
  submit_p95_ms : float;
  result_p50_ms : float;
  result_p95_ms : float;
  verified : int;
  verify_mismatches : int;
}

exception Client_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Client_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let rec go tries =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0
      ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        go (tries - 1)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail "connect %s: %s" path (Unix.error_message e)
  in
  go 50

let close conn = try close_out conn.oc with Sys_error _ -> ()

let rpc conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  let reply =
    try input_line conn.ic
    with End_of_file -> fail "daemon closed the connection"
  in
  match Json.parse reply with
  | Error e -> fail "unparsable reply %S: %s" reply e
  | Ok j -> (
      match Option.bind (Json.member "ok" j) Json.bool with
      | Some true -> j
      | Some false | None ->
          fail "daemon error: %s"
            (Option.value ~default:reply
               (Option.bind (Json.member "error" j) Json.str)))

(* Per-verb RPC latency lands in the live registry — client workers run
   on pool domains, so these observations also exercise the registry's
   cross-domain merge for real. *)
let timed_rpc verb conn line =
  let t0 = Hca_util.Clock.now () in
  let j = rpc conn line in
  Registry.observe
    (Printf.sprintf "hca_client_rpc_ms{verb=%S}" verb)
    ((Hca_util.Clock.now () -. t0) *. 1000.);
  j

(* One request over a throwaway connection: what [hca top] polls with. *)
let rpc_once ~path line =
  match
    let conn = connect path in
    Fun.protect ~finally:(fun () -> close conn) (fun () -> rpc conn line)
  with
  | j -> Ok j
  | exception Client_error e -> Error e
  | exception Sys_error e -> Error e

let jint j k =
  match Option.bind (Json.member k j) Json.int with
  | Some v -> v
  | None -> fail "reply misses integer %S" k

let jstr j k =
  match Option.bind (Json.member k j) Json.str with
  | Some v -> v
  | None -> fail "reply misses string %S" k

(* ------------------------------------------------------------------ *)
(* One worker: submit every seed of its slice, then collect.           *)

type served = {
  seed : int;
  kernel : string;
  state : string;
  legal : bool;
  final_mii : int option;
  copies : int;
  invariant : string option;
  latency_s : float;
}

let submit_line ~max_size ~deadline_s seed =
  Json.to_string
    (Json.Obj
       ([ ("verb", Json.Str "submit"); ("gen_seed", Json.Num (float_of_int seed)) ]
       @ (match max_size with
         | None -> []
         | Some m -> [ ("gen_max_size", Json.Num (float_of_int m)) ])
       @
       match deadline_s with
       | None -> []
       | Some d -> [ ("deadline_s", Json.Num d) ]))

let worker ~path ~max_size ~deadline_s seeds =
  let conn = connect path in
  Fun.protect
    ~finally:(fun () -> close conn)
    (fun () ->
      let pending =
        List.map
          (fun seed ->
            let t0 = Hca_util.Clock.now () in
            let j = timed_rpc "submit" conn (submit_line ~max_size ~deadline_s seed) in
            (seed, jint j "id", t0))
          seeds
      in
      List.map
        (fun (seed, id, t0) ->
          let j =
            timed_rpc "result" conn
              (Json.to_string
                 (Json.Obj
                    [
                      ("verb", Json.Str "result");
                      ("id", Json.Num (float_of_int id));
                      ("wait", Json.Bool true);
                    ]))
          in
          let latency_s = Hca_util.Clock.now () -. t0 in
          let state = jstr j "state" in
          (match state with
          | "deadline_exceeded" -> Registry.inc "hca_client_timeouts_total"
          | "failed" | "cancelled" -> Registry.inc "hca_client_errors_total"
          | _ -> ());
          {
            seed;
            kernel = (try jstr j "kernel" with Client_error _ -> "?");
            state;
            legal =
              Option.value ~default:false
                (Option.bind (Json.member "legal" j) Json.bool);
            final_mii = Option.bind (Json.member "final_mii" j) Json.int;
            copies =
              Option.value ~default:0
                (Option.bind (Json.member "copies" j) Json.int);
            invariant = Option.bind (Json.member "invariant" j) Json.str;
            latency_s;
          })
        pending)

(* ------------------------------------------------------------------ *)

let slices jobs l =
  let buckets = Array.make jobs [] in
  List.iteri (fun i x -> buckets.(i mod jobs) <- x :: buckets.(i mod jobs)) l;
  Array.to_list (Array.map List.rev buckets)
  |> List.filter (fun s -> s <> [])

let verify_served ~max_size served =
  match served.invariant with
  | None -> None (* expired / crashed: nothing to compare *)
  | Some remote ->
      let ddg = Daemon.gen_kernel ~seed:served.seed ~max_size in
      let local =
        Report.run ~jobs:1 Hca_machine.Dspfabric.reference ddg
      in
      Some (Report.invariant_string local = remote)

(* The loadtest may share its process with earlier registry traffic
   (tests, repeated runs), so per-run figures are deltas between two
   snapshots, never absolutes. *)
let counter_delta before after name =
  let get s =
    Option.value ~default:0 (List.assoc_opt name s.Registry.counters)
  in
  get after - get before

let hist_delta before after name =
  match List.assoc_opt name after.Registry.hists with
  | None -> None
  | Some a -> (
      match List.assoc_opt name before.Registry.hists with
      | None -> Some a
      | Some b ->
          Some
            {
              a with
              Registry.buckets =
                Array.mapi (fun i v -> v - b.Registry.buckets.(i)) a.Registry.buckets;
              count = a.Registry.count - b.Registry.count;
              sum = a.Registry.sum -. b.Registry.sum;
            })

let delta_quantile before after name q =
  match hist_delta before after name with
  | Some hv when hv.Registry.count > 0 -> Registry.quantile hv q
  | _ -> 0.

let num i = Json.Num (float_of_int i)

let emit_rows path served agg_fields =
  let oc = open_out path in
  let row kernel fields =
    output_string oc (Json.row ~experiment:"serve_loadtest" ~kernel fields)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          row s.kernel
            [
              ("seed", num s.seed);
              ("state", Json.Str s.state);
              ("legal", Json.Bool s.legal);
              ( "final_mii",
                match s.final_mii with Some m -> num m | None -> Json.Null );
              ("copies", num s.copies);
              ("latency_ms", Json.decimals 3 (s.latency_s *. 1000.));
            ])
        served;
      row "_aggregate" agg_fields)

let run ~path ?(count = 25) ?(jobs = 2) ?(seed0 = 1) ?max_size ?deadline_s
    ?(verify = false) ?json_out () =
  try
    let seeds = List.init count (fun i -> seed0 + i) in
    let stats () =
      let conn = connect path in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () -> rpc conn {|{"verb":"stats"}|})
    in
    let before = stats () in
    let reg_before = Registry.snapshot () in
    let t0 = Hca_util.Clock.now () in
    let served =
      Hca_util.Domain_pool.parallel_map ~jobs
        (worker ~path ~max_size ~deadline_s)
        (slices jobs seeds)
      |> List.concat
      |> List.sort (fun a b -> compare a.seed b.seed)
    in
    let elapsed_s = Hca_util.Clock.now () -. t0 in
    let reg_after = Registry.snapshot () in
    let after = stats () in
    let rpc_q verb q =
      delta_quantile reg_before reg_after
        (Printf.sprintf "hca_client_rpc_ms{verb=%S}" verb)
        q
    in
    (* The latency histogram goes through lib/obs so the daemon's own
       percentile machinery is what reports the tails. *)
    Hca_obs.Obs.enable ();
    Hca_obs.Obs.reset ();
    List.iter
      (fun s -> Hca_obs.Obs.observe "serve.latency_ms" (s.latency_s *. 1000.))
      served;
    let hist =
      List.find_opt
        (fun h -> h.Hca_obs.Obs.Summary.h_name = "serve.latency_ms")
        (Hca_obs.Obs.Summary.collect ()).Hca_obs.Obs.Summary.histograms
    in
    let p50, p95, p99 =
      match hist with
      | Some h -> Hca_obs.Obs.Summary.(h.p50, h.p95, h.p99)
      | None -> (0., 0., 0.)
    in
    let n_state st = List.length (List.filter (fun s -> s.state = st) served) in
    let verified_results =
      if not verify then []
      else List.filter_map (verify_served ~max_size) served
    in
    let verified = List.length verified_results in
    let verify_mismatches =
      List.length (List.filter (fun ok -> not ok) verified_results)
    in
    let delta k = jint after k - jint before k in
    let s =
      {
        count;
        ok = n_state "done";
        failed = n_state "failed" + n_state "cancelled";
        deadline_exceeded = n_state "deadline_exceeded";
        errors = counter_delta reg_before reg_after "hca_client_errors_total";
        timeouts =
          counter_delta reg_before reg_after "hca_client_timeouts_total";
        cache_hits = delta "cache_hits";
        cache_misses = delta "cache_misses";
        cache_entries = jint after "cache_entries";
        loaded_entries = jint after "loaded_entries";
        elapsed_s;
        throughput_rps =
          (if elapsed_s > 0. then float_of_int count /. elapsed_s else 0.);
        p50_ms = p50;
        p95_ms = p95;
        p99_ms = p99;
        submit_p50_ms = rpc_q "submit" 0.5;
        submit_p95_ms = rpc_q "submit" 0.95;
        result_p50_ms = rpc_q "result" 0.5;
        result_p95_ms = rpc_q "result" 0.95;
        verified;
        verify_mismatches;
      }
    in
    Option.iter
      (fun out ->
        emit_rows out served
          [
            ("count", num s.count);
            ("ok", num s.ok);
            ("failed", num s.failed);
            ("deadline_exceeded", num s.deadline_exceeded);
            ("elapsed_s", Json.decimals 6 s.elapsed_s);
            ("throughput_rps", Json.decimals 3 s.throughput_rps);
            ("p50_ms", Json.decimals 3 s.p50_ms);
            ("p95_ms", Json.decimals 3 s.p95_ms);
            ("p99_ms", Json.decimals 3 s.p99_ms);
            ("submit_p50_ms", Json.decimals 3 s.submit_p50_ms);
            ("submit_p95_ms", Json.decimals 3 s.submit_p95_ms);
            ("result_p50_ms", Json.decimals 3 s.result_p50_ms);
            ("result_p95_ms", Json.decimals 3 s.result_p95_ms);
            ("errors", num s.errors);
            ("timeouts", num s.timeouts);
            ("cache_hits", num s.cache_hits);
            ("cache_misses", num s.cache_misses);
            ("cache_entries", num s.cache_entries);
            ("loaded_entries", num s.loaded_entries);
            ("verified", num s.verified);
            ("verify_mismatches", num s.verify_mismatches);
          ])
      json_out;
    Ok s
  with
  | Client_error e -> Error e
  | Sys_error e -> Error e

let print_summary s =
  Printf.printf "loadtest: %d requests in %.2f s (%.1f req/s)\n" s.count
    s.elapsed_s s.throughput_rps;
  Printf.printf "  states: ok %d, failed %d, deadline_exceeded %d\n" s.ok
    s.failed s.deadline_exceeded;
  Printf.printf "  latency ms: p50 %.1f  p95 %.1f  p99 %.1f\n" s.p50_ms
    s.p95_ms s.p99_ms;
  Printf.printf
    "  rpc ms: submit p50 %.1f p95 %.1f | result p50 %.1f p95 %.1f | errors \
     %d, timeouts %d\n"
    s.submit_p50_ms s.submit_p95_ms s.result_p50_ms s.result_p95_ms s.errors
    s.timeouts;
  Printf.printf
    "  cache: +%d hits / +%d misses this run; %d entries (%d loaded at start)\n"
    s.cache_hits s.cache_misses s.cache_entries s.loaded_entries;
  if s.verified > 0 then
    Printf.printf "  verify: %d/%d bit-identical to local one-shot runs\n"
      (s.verified - s.verify_mismatches)
      s.verified
