let magic = "HCA-MEMO-STORE"

(* v2: cache keys switched from the dspfabric-only [Dspfabric.id] to
   the total [Machine_desc.id] (fan-outs, wiring and heterogeneous
   tables included), so stores written by v1 builds must not be
   reused.
   v3: a checksum line (payload length and MD5) precedes the payload. *)
let format_version = "v3"

let default_stamp () = Hca_util.Stamp.store_stamp ~extra:format_version ()

let save ~path ~stamp snapshot =
  let tmp = path ^ ".tmp" in
  match
    let payload = Marshal.to_string snapshot [] in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (magic ^ "\n");
        output_string oc (stamp ^ "\n");
        Printf.fprintf oc "%d %s\n" (String.length payload)
          (Digest.to_hex (Digest.string payload));
        output_string oc payload);
    Sys.rename tmp path;
    Hca_core.Hierarchy.snapshot_length snapshot
  with
  | n -> Ok n
  | exception Sys_error e -> Error ("store save: " ^ e)

(* The payload is read whole and checked against its length and digest
   before [Marshal] sees a byte of it: unmarshalling corrupt data can
   crash the process or yield a well-typed but wrong cache entry. *)
let read_payload ic =
  let line = try input_line ic with End_of_file -> "" in
  match Scanf.sscanf line "%d %32[0-9a-f]%!" (fun n d -> (n, d)) with
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      Error (Printf.sprintf "bad memo store checksum line %S" line)
  | n, digest ->
      let remaining = in_channel_length ic - pos_in ic in
      if n <> remaining then
        Error
          (Printf.sprintf "memo store payload is %d bytes, header says %d"
             remaining n)
      else
        let payload = really_input_string ic n in
        if Digest.to_hex (Digest.string payload) <> digest then
          Error "memo store payload fails its checksum"
        else Ok payload

let load ~path ~stamp =
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let header = try input_line ic with End_of_file -> "" in
          if header <> magic then
            Error (Printf.sprintf "not a memo store (bad magic %S)" header)
          else
            let file_stamp = try input_line ic with End_of_file -> "" in
            if file_stamp <> stamp then Ok None (* stale: start cold *)
            else
              Result.map
                (fun payload ->
                  let snapshot : Hca_core.Hierarchy.snapshot =
                    Marshal.from_string payload 0
                  in
                  Some snapshot)
                (read_payload ic))
    with
    | r -> r
    | exception Sys_error e -> Error ("store load: " ^ e)
