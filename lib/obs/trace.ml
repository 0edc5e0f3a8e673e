type arg = Int of int | Float of float | Str of string

type ph = B | E | X | M

type event = {
  ph : ph;
  name : string;
  cat : string;
  pid : int;
  track : string;
  ts : float;
  dur : float;  (* X events only *)
  args : (string * arg) list;
}

let wall_pid = 0
let virtual_pid = 1

(* ------------------------- collector state ------------------------- *)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let events : event list ref = ref []  (* newest first *)
let epoch = ref 0.0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = Atomic.get enabled_flag

let enable () =
  epoch := Unix.gettimeofday ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false
let clear () = with_lock (fun () -> events := [])
let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let record evs =
  with_lock (fun () -> events := List.rev_append evs !events)

(* one wall track per domain, so pass spans inside a Pool sweep nest on
   the domain that ran them instead of interleaving on one track *)
let wall_track () = Printf.sprintf "wall-d%d" (Domain.self () :> int)

let with_span ?(cat = "pass") ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let a = match args with None -> [] | Some g -> g () in
      record
        [ { ph = X; name; cat; pid = wall_pid; track = wall_track ();
            ts = t0; dur = t1 -. t0; args = a } ]
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let virtual_span ?(cat = "sim") ~track ~name ~start ~finish ?(args = []) () =
  if enabled () then
    record
      [ { ph = B; name; cat; pid = virtual_pid; track; ts = start; dur = 0.0;
          args };
        { ph = E; name; cat; pid = virtual_pid; track; ts = finish; dur = 0.0;
          args = [] } ]

(* --------------------------- serialization ------------------------- *)

(* fraction digits of trace floats; integral ones print without any *)
let prec = 4

let ph_str = function B -> "B" | E -> "E" | X -> "X" | M -> "M"

(* one event as one JSON object, straight into [b] *)
let add_event b tid ev =
  let str = Buffer.add_string b in
  str "{\"ph\": \"";
  str (ph_str ev.ph);
  str "\", \"name\": ";
  Json_out.add_string b ev.name;
  str ", \"cat\": ";
  Json_out.add_string b ev.cat;
  str ", \"pid\": ";
  Json_out.add_int b ev.pid;
  str ", \"tid\": ";
  Json_out.add_int b tid;
  str ", \"ts\": ";
  Json_out.add_float ~prec b ev.ts;
  if ev.ph = X then begin
    str ", \"dur\": ";
    Json_out.add_float ~prec b ev.dur
  end;
  str ", \"args\": {";
  Json_out.add_list b
    (fun b (k, v) ->
      Json_out.add_string b k;
      str ": ";
      match v with
      | Int n -> Json_out.add_int b n
      | Float f -> Json_out.add_float ~prec b f
      | Str s -> Json_out.add_string b s)
    ev.args;
  str "}}"

let snapshot () = with_lock (fun () -> List.rev !events)

let to_json () =
  let newest_first = with_lock (fun () -> !events) in
  (* each pid's events grouped by track; consing newest-first leaves every
     group in record order (the recorder guarantees per-track timestamp
     order) *)
  let vgroups = Hashtbl.create 64 and wgroups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let groups = if e.pid = virtual_pid then vgroups else wgroups in
      match Hashtbl.find_opt groups e.track with
      | Some g -> g := e :: !g
      | None -> Hashtbl.add groups e.track (ref [ e ]))
    newest_first;
  (* a track's tid is its 1-based rank among its pid's track names *)
  let by_name groups =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun track g acc -> (track, !g) :: acc) groups [])
  in
  let vtracks = by_name vgroups and wtracks = by_name wgroups in
  let b = Buffer.create (128 * (List.length newest_first + 16)) in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  let first = ref true in
  let emit tid ev =
    if !first then first := false else Buffer.add_string b ",\n";
    add_event b tid ev
  in
  (* process/thread names first, so Perfetto labels the tracks; metadata
     for the wall pid is tagged onto it and stripped with it *)
  let names pid process tracks =
    let meta name track label =
      { ph = M; name; cat = "meta"; pid; track; ts = 0.0; dur = 0.0;
        args = [ ("name", Str label) ] }
    in
    if tracks <> [] then begin
      emit 1 (meta "process_name" "" process);
      List.iteri
        (fun i (track, _) -> emit (i + 1) (meta "thread_name" track track))
        tracks
    end
  in
  names virtual_pid "simulator (virtual cycles)" vtracks;
  names wall_pid "compiler (wall clock, us)" wtracks;
  (* then virtual events (deterministic) before wall, track by track *)
  List.iter
    (List.iteri (fun i (_, evs) -> List.iter (emit (i + 1)) evs))
    [ vtracks; wtracks ];
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write file =
  let oc = open_out file in
  output_string oc (to_json ());
  close_out oc

(* ----------------------------- summary ----------------------------- *)

type track_acc = {
  mutable spans : int;
  mutable busy : float;
  mutable first : float;
  mutable last : float;
  mutable open_ts : float;
}

let summary () =
  let evs = snapshot () in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* virtual tracks: reconstruct span durations from the B/E pairs *)
  let vt : (string, track_acc) Hashtbl.t = Hashtbl.create 16 in
  let makespan = ref 0.0 in
  List.iter
    (fun e ->
      if e.pid = virtual_pid then begin
        let acc =
          match Hashtbl.find_opt vt e.track with
          | Some a -> a
          | None ->
              let a =
                { spans = 0; busy = 0.0; first = infinity; last = 0.0;
                  open_ts = 0.0 }
              in
              Hashtbl.add vt e.track a;
              a
        in
        match e.ph with
        | B ->
            acc.open_ts <- e.ts;
            if e.ts < acc.first then acc.first <- e.ts
        | E ->
            acc.spans <- acc.spans + 1;
            acc.busy <- acc.busy +. (e.ts -. acc.open_ts);
            if e.ts > acc.last then acc.last <- e.ts;
            if e.ts > !makespan then makespan := e.ts
        | _ -> ()
      end)
    evs;
  if Hashtbl.length vt > 0 then begin
    pr "virtual timeline (makespan %s cycles)\n"
      (Json_out.float_str ~prec !makespan);
    pr "  %-38s %8s %14s %7s %14s\n" "track" "spans" "busy cycles" "util"
      "stall cycles";
    List.iter
      (fun (track, a) ->
        let util = if !makespan > 0.0 then a.busy /. !makespan else 0.0 in
        let stall = a.last -. a.first -. a.busy in
        pr "  %-38s %8d %14s %6.1f%% %14s\n" track a.spans
          (Json_out.float_str ~prec a.busy)
          (100.0 *. util)
          (Json_out.float_str ~prec (Float.max 0.0 stall)))
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) vt []))
  end;
  (* wall spans aggregated by name *)
  let wt : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.pid = wall_pid && e.ph = X then
        let t, n =
          match Hashtbl.find_opt wt e.name with Some x -> x | None -> (0.0, 0)
        in
        Hashtbl.replace wt e.name (t +. e.dur, n + 1))
    evs;
  if Hashtbl.length wt > 0 then begin
    pr "wall-clock spans (total ms, by name)\n";
    let rows = Hashtbl.fold (fun k (t, n) acc -> (t, n, k) :: acc) wt [] in
    let rows = List.sort (fun (a, _, _) (b, _, _) -> compare b a) rows in
    List.iteri
      (fun i (t, n, name) ->
        if i < 12 then pr "  %-38s %8d %11.3f ms\n" name n (t /. 1e3))
      rows
  end;
  Buffer.contents buf
