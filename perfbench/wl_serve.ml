(* The [serve] layer session: an open loop at a fixed offered rate
   against an [hca serve --socket] daemon with its default telemetry
   (flight ring armed), then a short closed loop on two connections.
   It is no workload of its own: traced [compile] runs end with it and
   report its [serve.*] per-layer figures.

   Set-up warms a memo store with the hot set and restarts the daemon on
   it.  The stream then mostly repeats the hot set (memo hits) with a
   seeded share of never-seen generated kernels (misses).  Latency is
   timed from each request's scheduled send time, so a slow reply delays
   the clock of every request queued behind it.  Every distinct served
   kernel is re-compiled locally afterwards and must match bit for bit. *)

open Common
module Json = Hca_serve.Json

let rate_per_s = 100.
let miss_share = 0.03
let slo_ms = 50.
let late_limit_ms = 20.

(* Registry kernels of the hot set (the two slowest registry kernels are
   left out to keep set-up short) and the number of generated ones. *)
let hot_named =
  [ "fir2dim"; "idcthor"; "mpeg2inter"; "fir1d"; "matmul4"; "rgb2ycc"; "autocorr" ]

let hot_gen = 8

type source = Named of string | Gen of int

let submit_line = function
  | Named k -> Printf.sprintf "{\"verb\":\"submit\",\"kernel\":%S}" k
  | Gen s -> Printf.sprintf "{\"verb\":\"submit\",\"gen_seed\":%d}" s

let source_name = function Named k -> k | Gen s -> Printf.sprintf "gen_seed=%d" s

let hot_set ~seed =
  List.map (fun k -> Named k) hot_named
  @ List.init hot_gen (fun i -> Gen (subseed seed 3 i))

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

exception Protocol_error of string

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path ~wait_s =
  let deadline = now () +. wait_s in
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () ->
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        raise (Protocol_error ("connect: " ^ Unix.error_message e))
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let reply =
    try input_line c.ic with End_of_file -> raise (Protocol_error "daemon hung up")
  in
  match Json.parse reply with
  | Error e -> raise (Protocol_error ("unparsable reply: " ^ e))
  | Ok j -> (
      match Option.bind (Json.member "ok" j) Json.bool with
      | Some true -> j
      | _ -> raise (Protocol_error ("error reply: " ^ reply)))

let field name conv j = Option.bind (Json.member name j) conv

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

type daemon = { pid : int; conn : conn }

let live = ref []

let spawn ~hca =
  let log = Unix.openfile "daemon.log" [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun v -> not (String.length v >= 7 && String.sub v 0 7 = "TMPDIR="))
            (Array.to_list (Unix.environment ()))))
      [| "TMPDIR=" ^ Sys.getcwd () |]
  in
  let pid =
    Unix.create_process_env hca
      [| hca; "serve"; "--socket"; "d.sock"; "--store"; "store.bin";
         "--trace-dir"; "traces"; "--jobs"; "2" |]
      env Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let conn = connect "d.sock" ~wait_s:60. in
  ignore (rpc conn "{\"verb\":\"ping\"}");
  { pid; conn }

let reap pid =
  let deadline = now () +. 30. in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let shutdown d =
  (try ignore (rpc d.conn "{\"verb\":\"shutdown\"}") with Protocol_error _ -> ());
  close d.conn;
  reap d.pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* Served results                                                      *)

type served = { state : string; invariant : string }

let served_of j =
  {
    state = Option.value ~default:"?" (field "state" Json.str j);
    invariant = Option.value ~default:"" (field "invariant" Json.str j);
  }

let submit c src =
  match field "id" Json.int (rpc c (submit_line src)) with
  | Some id -> id
  | None -> raise (Protocol_error "submit reply without id")

let result c id =
  served_of (rpc c (Printf.sprintf "{\"verb\":\"result\",\"id\":%d,\"wait\":true}" id))

(* Registry snapshot pieces read through the [metrics] verb. *)
type snap = { lat : float * float; run : float * float; hits : float; misses : float }

let snapshot c =
  let m = Option.get (Json.member "metrics" (rpc c "{\"verb\":\"metrics\"}")) in
  let hist name =
    match Option.bind (Json.member "histograms" m) (Json.member name) with
    | None -> (0., 0.)
    | Some h ->
        ( Option.value ~default:0. (field "count" Json.num h),
          Option.value ~default:0. (field "sum" Json.num h) )
  in
  let counter name =
    Option.value ~default:0.
      (Option.bind (Json.member "counters" m) (fun cs -> field name Json.num cs))
  in
  {
    lat = hist "hca_request_latency_ms";
    run = hist "hca_request_run_ms";
    hits = counter "hca_memo_hits_total";
    misses = counter "hca_memo_misses_total";
  }

(* Mean of a histogram over the window between two snapshots. *)
let window_mean f a b =
  let (c0, s0), (c1, s1) = (f a, f b) in
  if c1 > c0 then (s1 -. s0) /. (c1 -. c0) else 0.

(* ------------------------------------------------------------------ *)
(* Set-up: warm a store, restart on it                                 *)

let warm_and_restart ~hca ~seed =
  (try Sys.remove "store.bin" with Sys_error _ -> ());
  let cold = spawn ~hca in
  let ids = List.map (submit cold.conn) (hot_set ~seed) in
  List.iter (fun id -> ignore (result cold.conn id)) ids;
  shutdown cold;
  timed (fun () -> spawn ~hca)

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)

type sample = {
  src : source;
  late_ms : float;
  submit_ms : float;
  result_ms : float;
  latency_ms : float;
  reply : served option;  (** [None]: protocol error *)
}

(* The request stream: every hot kernel once, in a seeded order, then
   the seeded mix of hits and misses. *)
let stream ~seed n =
  let hot = Array.of_list (hot_set ~seed) in
  let rng = Hca_util.Prng.create (subseed seed 5 0) in
  let first = Array.copy hot in
  Hca_util.Prng.shuffle rng first;
  Array.init n (fun i ->
      if i < Array.length first then first.(i)
      else if Hca_util.Prng.float rng 1.0 < miss_share then Gen (subseed seed 4 i)
      else Hca_util.Prng.pick rng hot)

let digest ~seed =
  let h = Hca_util.Sig_hash.create () in
  Array.iter (fun src -> Hca_util.Sig_hash.add_string h (source_name src)) (stream ~seed 1000);
  Hca_util.Sig_hash.value h

(* Raw line transport for the loops below: one thread multiplexes both
   connections with [select], so no client thread hand-off sits inside a
   measured latency. *)
type wire = { wfd : Unix.file_descr; pending : Buffer.t }

let wire c = { wfd = c.fd; pending = Buffer.create 4096 }

let send w line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring w.wfd s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* The complete lines now readable on [w] (one [read]). *)
let lines w =
  match Unix.read w.wfd chunk 0 (Bytes.length chunk) with
  | 0 -> raise (Protocol_error "daemon hung up")
  | n ->
      Buffer.add_subbytes w.pending chunk 0 n;
      let all = Buffer.contents w.pending in
      let parts = String.split_on_char '\n' all in
      let rec split = function
        | [] -> ([], "")
        | [ last ] -> ([], last)
        | l :: rest ->
            let ls, tail = split rest in
            (l :: ls, tail)
      in
      let complete, tail = split parts in
      Buffer.clear w.pending;
      Buffer.add_string w.pending tail;
      complete

let readable ws timeout =
  match Unix.select (List.map (fun w -> w.wfd) ws) [] [] (Float.max 0. timeout) with
  | r, _, _ -> List.filter (fun w -> List.memq w.wfd r) ws
  | exception Unix.Unix_error (EINTR, _, _) -> []

let reply line =
  match Json.parse line with
  | Ok j when Option.bind (Json.member "ok" j) Json.bool = Some true -> Some j
  | _ -> None

let result_request id = Printf.sprintf "{\"verb\":\"result\",\"id\":%d,\"wait\":true}" id

(* Open loop: request [i] is due at [t0 + i / rate] and is submitted on
   [a] then, once its id is known, awaited on [b]; results come back in
   completion order and are matched by id. *)
let open_loop ~seed ~duration a b =
  let stream = stream ~seed (int_of_float (duration *. rate_per_s)) in
  let n = Array.length stream in
  let a = wire a and b = wire b in
  let t0 = now () +. 0.05 in
  let due i = t0 +. (float_of_int i /. rate_per_s) in
  let sent = Array.make n 0. and late = Array.make n 0. in
  let submit_rtt = Array.make n 0. and awaited = Array.make n 0. in
  let samples = ref [] and remaining = ref n and next = ref 0 in
  let submitted = Queue.create () and by_id = Hashtbl.create n in
  let finish i ~result_ms ~latency_ms rep =
    samples :=
      { src = stream.(i); late_ms = ms late.(i); submit_ms = ms submit_rtt.(i);
        result_ms; latency_ms; reply = rep }
      :: !samples;
    decr remaining
  in
  let give_up = t0 +. duration +. 60. in
  while !remaining > 0 do
    if now () > give_up then raise (Protocol_error "open loop stalled");
    if !next < n && now () >= due !next then begin
      let i = !next in
      sent.(i) <- now ();
      late.(i) <- sent.(i) -. due i;
      send a (submit_line stream.(i));
      Queue.push i submitted;
      incr next
    end
    else begin
      let timeout = if !next < n then due !next -. now () else 1.0 in
      List.iter
        (fun w ->
          List.iter
            (fun line ->
              let t = now () in
              if w == a then begin
                let i = Queue.pop submitted in
                submit_rtt.(i) <- t -. sent.(i);
                match Option.bind (reply line) (field "id" Json.int) with
                | Some id ->
                    Hashtbl.replace by_id id i;
                    awaited.(i) <- now ();
                    send b (result_request id)
                | None -> finish i ~result_ms:0. ~latency_ms:0. None
              end
              else
                match reply line with
                | None -> raise (Protocol_error ("error reply: " ^ line))
                | Some j ->
                    let id = Option.value ~default:(-1) (field "id" Json.int j) in
                    let i = Hashtbl.find by_id id in
                    finish i ~result_ms:(ms (t -. awaited.(i)))
                      ~latency_ms:(ms (t -. due i)) (Some (served_of j)))
            (lines w))
        (readable [ a; b ] timeout)
    end
  done;
  List.rev !samples

(* Closed loop: each connection submits a hot kernel, awaits it, and
   submits the next, until [duration] is over.  Returns completions per
   second and the failed count. *)
let closed_loop ~seed ~duration conns =
  let hot = Array.of_list (hot_set ~seed) in
  let rng = Hca_util.Prng.create (subseed seed 6 0) in
  let ws = List.map wire conns in
  let awaiting = Hashtbl.create 2 in
  let t0 = now () in
  let stop = t0 +. duration in
  let completed = ref 0 and errors = ref 0 and last = ref t0 in
  let submit w =
    Hashtbl.replace awaiting w.wfd false;
    send w (submit_line (Hca_util.Prng.pick rng hot))
  in
  List.iter submit ws;
  let busy = ref (List.length ws) in
  while !busy > 0 do
    if now () > stop +. 60. then raise (Protocol_error "closed loop stalled");
    List.iter
      (fun w ->
        List.iter
          (fun line ->
            match reply line with
            | None -> raise (Protocol_error ("error reply: " ^ line))
            | Some j ->
                if not (Hashtbl.find awaiting w.wfd) then begin
                  let id = Option.value ~default:(-1) (field "id" Json.int j) in
                  Hashtbl.replace awaiting w.wfd true;
                  send w (result_request id)
                end
                else begin
                  if (served_of j).state = "done" then incr completed
                  else incr errors;
                  last := now ();
                  if now () < stop then submit w else decr busy
                end)
          (lines w))
      (readable ws 1.0)
  done;
  (float_of_int !completed /. (!last -. t0), !errors)

let local_ddg = function
  | Named k -> (Option.get (Hca_kernels.Registry.find k)) ()
  | Gen s -> Hca_serve.Daemon.gen_kernel ~seed:s ~max_size:None

let run_in_dir ~hca ~seed ~seconds r =
  at_exit kill_all;
  let d, load_s = warm_and_restart ~hca ~seed in
  set r "serve.store_load_s" load_s;
  let stats = rpc d.conn "{\"verb\":\"stats\"}" in
  set r "serve.store_entries"
    (Option.value ~default:0. (field "loaded_entries" Json.num stats));
  let d2 = connect "d.sock" ~wait_s:10. in
  let before = snapshot d.conn in
  let samples = open_loop ~seed ~duration:(0.75 *. seconds) d.conn d2 in
  let after = snapshot d.conn in
  let capacity, closed_errors =
    closed_loop ~seed ~duration:(0.25 *. seconds) [ d.conn; d2 ]
  in
  let daemon_rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
  close d2;
  shutdown d;
  (* Outside the timed window: every served answer checked. *)
  let by_src = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.reply with
      | None -> check r false (fun () -> source_name s.src ^ ": protocol error")
      | Some rep ->
          check r (rep.state = "done") (fun () ->
              source_name s.src ^ ": served state " ^ rep.state);
          (match Hashtbl.find_opt by_src s.src with
          | None -> Hashtbl.replace by_src s.src rep
          | Some first ->
              check r (first.invariant = rep.invariant) (fun () ->
                  source_name s.src ^ ": served two different results")))
    samples;
  check r (closed_errors = 0) (fun () ->
      Printf.sprintf "closed loop: %d failed requests" closed_errors);
  let fabric = Hca_machine.Dspfabric.reference in
  Hashtbl.iter
    (fun src rep ->
      let local = Hca_core.Report.run ~jobs:1 fabric (local_ddg src) in
      check r
        (Hca_core.Report.invariant_string local = rep.invariant)
        (fun () -> source_name src ^ ": served result differs from a local run"))
    by_src;
  let lat = List.map (fun s -> s.latency_ms) samples in
  let late = List.map (fun s -> s.late_ms) samples in
  let p, t = tail lat in
  let slo_miss =
    List.length
      (List.filter (fun s -> s.reply = None || s.latency_ms > slo_ms) samples)
  in
  let misses = Hashtbl.length by_src - List.length (hot_set ~seed) in
  Printf.printf
    "serve: %d requests at %.0f/s (%d distinct misses), seed %d\n\
    \  latency p50 %.2f ms, %s %.2f ms (%d samples); over %.0f ms: %d\n\
    \  closed loop %.0f req/s on 2 connections; generator late p99 %.2f ms\n"
    (List.length samples) rate_per_s misses seed (median lat) (pct_name p) t
    (List.length lat) slo_ms slo_miss capacity (quantile late 0.99);
  set r "serve.p50_ms" (median lat);
  set r "serve.p99_ms" (quantile lat 0.99);
  set r "serve.capacity_rps" capacity;
  set r "serve.gen_late_ms" (quantile late 0.99);
  if quantile late 0.99 > late_limit_ms then
    r.invalid <-
      Some
        (Printf.sprintf "the generator ran %.1f ms late at p99 (limit %.0f ms)"
           (quantile late 0.99) late_limit_ms);
  let server_lat = window_mean (fun s -> s.lat) before after in
  let server_run = window_mean (fun s -> s.run) before after in
  set r "serve.submit_rtt_ms" (median (List.map (fun s -> s.submit_ms) samples));
  set r "serve.result_rtt_ms" (median (List.map (fun s -> s.result_ms) samples));
  set r "serve.wire_ms" (mean lat -. server_lat);
  set r "serve.run_ms" server_run;
  set r "serve.queue_wait_ms" (server_lat -. server_run);
  let h = after.hits -. before.hits and mi = after.misses -. before.misses in
  set r "serve.memo_hit_ratio" (if h +. mi > 0. then h /. (h +. mi) else 0.);
  set r "serve.daemon_rss_mb" daemon_rss;
  set r "serve.slo_miss_share"
    (float_of_int slo_miss /. float_of_int (max 1 (List.length samples)))

(* The daemon's files (socket, store, log, traces) live in a scratch
   directory of the checkout, removed afterwards. *)
let run ~hca ~seed ~seconds =
  let r = create () in
  let hca = if Filename.is_relative hca then Filename.concat (Sys.getcwd ()) hca else hca in
  let dir = Filename.concat ".perfbench" (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir;
  let home = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      kill_all ();
      Sys.chdir home;
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
      try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ())
    (fun () -> run_in_dir ~hca ~seed ~seconds r);
  r
