module Json = Hca_util.Json

type stats = {
  events : int;
  tracks : (int * int) list;
  span_names : (string * int) list;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Per-tid begin stacks; every E must close the innermost B of its
   track, and every track must end with an empty stack. *)
let check_events evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let spans : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let names : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some st -> st
    | None ->
        let st = ref [] in
        Hashtbl.add stacks tid st;
        st
  in
  List.iteri
    (fun i ev ->
      (match ev with
      | Json.Obj _ -> ()
      | _ -> invalid "event %d: not an object" i);
      let str k = Option.bind (Json.member k ev) Json.str in
      let num k = Option.bind (Json.member k ev) Json.num in
      let tid = match num "tid" with Some t -> int_of_float t | None -> -1 in
      match str "ph" with
      | None -> invalid "event %d: no \"ph\"" i
      | Some "B" -> (
          match (str "name", num "ts") with
          | None, _ -> invalid "event %d: B without name" i
          | _, None -> invalid "event %d: B without ts" i
          | Some name, Some _ ->
              let st = stack_of tid in
              st := name :: !st)
      | Some "E" -> (
          if num "ts" = None then invalid "event %d: E without ts" i;
          let st = stack_of tid in
          match !st with
          | [] -> invalid "event %d: E with no open span on tid %d" i tid
          | name :: rest ->
              st := rest;
              bump spans tid;
              bump names name)
      | Some ("i" | "I" | "C" | "M") -> ()
      | Some other -> invalid "event %d: unknown phase %S" i other)
    evs;
  Hashtbl.iter
    (fun tid st ->
      if !st <> [] then
        invalid "tid %d: %d span(s) never closed" tid (List.length !st))
    stacks;
  { events = List.length evs; tracks = sorted spans; span_names = sorted names }

let validate s =
  match Json.parse s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok (Json.Obj _ as top) -> (
      match Json.member "traceEvents" top with
      | Some (Json.Arr evs) -> (
          try Ok (check_events evs) with Invalid e -> Error e)
      | _ -> Error "no \"traceEvents\" array")
  | Ok _ -> Error "top level is not an object"

let validate_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> validate s
  | exception Sys_error e -> Error e
