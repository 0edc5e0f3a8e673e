type arg = Int of int | Float of float | Str of string

(* One record per traced span: a wall-clock pass is written as one
   complete ("X") event, a virtual-cycle span as a begin/end ("B"/"E")
   pair. *)
type event =
  | Wall of {
      name : string;
      cat : string;
      track : string;
      ts : float;
      dur : float;
      args : (string * arg) list;
    }
  | Virtual of {
      name : string;
      cat : string;
      track : string;
      start : float;
      finish : float;
      args : (string * arg) list;
    }

let wall_pid = 0
let virtual_pid = 1

(* ------------------------- collector state ------------------------- *)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let events : event list ref = ref []  (* newest first *)
let epoch = ref 0.0

let enabled () = Atomic.get enabled_flag

let enable () =
  epoch := Unix.gettimeofday ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false
let clear () = Mutex.protect lock (fun () -> events := [])
let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6
let record ev = Mutex.protect lock (fun () -> events := ev :: !events)

(* one wall track per domain, so pass spans inside a Pool sweep nest on
   the domain that ran them instead of interleaving on one track *)
let wall_track () = Printf.sprintf "wall-d%d" (Domain.self () :> int)

let with_span ?(cat = "pass") ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let args = match args with None -> [] | Some g -> g () in
      record
        (Wall { name; cat; track = wall_track (); ts = t0; dur = t1 -. t0; args })
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let pass name ~args f =
  Metrics.time ("pass." ^ name) (fun () ->
      if not (enabled ()) then f ()
      else begin
        let recorded = ref [] in
        with_span ~cat:"pass" ~args:(fun () -> !recorded) name
          (fun () ->
            let r = f () in
            recorded := args r;
            r)
      end)

let virtual_span ?(cat = "sim") ~track ~name ~start ~finish ?(args = []) () =
  if enabled () then record (Virtual { name; cat; track; start; finish; args })

(* --------------------------- serialization ------------------------- *)

(* fraction digits of trace floats; integral ones print without any *)
let prec = 4

(* The writer's output buffer.  It is kept across calls, cleared (never
   reset) and filled only while [lock] is held, so a call allocates no
   buffer of its own; it keeps the capacity of the largest trace written. *)
let out = Buffer.create 4096

(* A line is its head, the escaped name, the text fixed by its category
   and track, [, "cat": <cat>, "pid": <pid>, "tid": <tid>, "ts": ], then
   the timestamp.  An E line's head also closes the B line before it. *)
let b_head = "{\"ph\": \"B\", \"name\": "
let e_head = "}},\n{\"ph\": \"E\", \"name\": "
let x_head = "{\"ph\": \"X\", \"name\": "
let m_head = "{\"ph\": \"M\", \"name\": "

let line_text cat pid tid =
  let b = Buffer.create 64 in
  Buffer.add_string b ", \"cat\": ";
  Json_out.add_string b cat;
  Buffer.add_string b ", \"pid\": ";
  Json_out.add_int b pid;
  Buffer.add_string b ", \"tid\": ";
  Json_out.add_int b tid;
  Buffer.add_string b ", \"ts\": ";
  Buffer.contents b

(* track names and arg keys, hashed and compared as strings *)
module Names = Hashtbl.Make (String)

let add_line b head name text ts =
  Buffer.add_string b head;
  Json_out.add_string b name;
  Buffer.add_string b text;
  Json_out.add_float ~prec b ts

let snapshot () = Mutex.protect lock (fun () -> List.rev !events)

let to_json () =
  Mutex.protect lock @@ fun () ->
  (* each pid's events grouped by track; consing newest-first leaves every
     group in record order (the recorder guarantees per-track timestamp
     order) *)
  let vgroups = Names.create 64 and wgroups = Names.create 16 in
  List.iter
    (fun e ->
      let groups, track =
        match e with
        | Virtual { track; _ } -> (vgroups, track)
        | Wall { track; _ } -> (wgroups, track)
      in
      match Names.find_opt groups track with
      | Some g -> g := e :: !g
      | None -> Names.add groups track (ref [ e ]))
    !events;
  (* a track's tid is its 1-based rank among its pid's track names *)
  let by_name groups =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Names.fold (fun track g acc -> (track, !g) :: acc) groups [])
  in
  let vtracks = by_name vgroups and wtracks = by_name wgroups in
  let b = out in
  Buffer.clear b;
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  (* an arg key's escaped text and [": "], escaped once per distinct key *)
  let keys = Names.create 8 in
  let key_text k =
    match Names.find_opt keys k with
    | Some text -> text
    | None ->
        let kb = Buffer.create 16 in
        Json_out.add_string kb k;
        Buffer.add_string kb ": ";
        let text = Buffer.contents kb in
        Names.add keys k text;
        text
  in
  (* [, "args": {...] left open: the next head or [}}] closes it *)
  let add_args args =
    Buffer.add_string b ", \"args\": {";
    Json_out.add_list b
      (fun b (k, v) ->
        Buffer.add_string b (key_text k);
        match v with
        | Int n -> Json_out.add_int b n
        | Float f -> Json_out.add_float ~prec b f
        | Str s -> Json_out.add_string b s)
      args
  in
  (* process/thread names first, so Perfetto labels the tracks; metadata
     for the wall pid is tagged onto it and stripped with it *)
  let names pid process tracks =
    let meta name tid label =
      sep ();
      add_line b m_head name (line_text "meta" pid tid) 0.0;
      add_args [ ("name", Str label) ];
      Buffer.add_string b "}}"
    in
    if tracks <> [] then begin
      meta "process_name" 1 process;
      List.iteri (fun i (track, _) -> meta "thread_name" (i + 1) track) tracks
    end
  in
  names virtual_pid "simulator (virtual cycles)" vtracks;
  names wall_pid "compiler (wall clock, us)" wtracks;
  (* then virtual events (deterministic) before wall, track by track; the
     line text is rebuilt only where a track's category changes *)
  let track pid tid evs =
    let run = ref None in
    let text_for cat =
      match !run with
      | Some (c, text) when String.equal c cat -> text
      | _ ->
          let text = line_text cat pid tid in
          run := Some (cat, text);
          text
    in
    List.iter
      (function
        | Virtual { name; cat; start; finish; args; _ } ->
            let text = text_for cat in
            sep ();
            add_line b b_head name text start;
            add_args args;
            add_line b e_head name text finish;
            Buffer.add_string b ", \"args\": {}}"
        | Wall { name; cat; ts; dur; args; _ } ->
            sep ();
            add_line b x_head name (text_for cat) ts;
            Buffer.add_string b ", \"dur\": ";
            Json_out.add_float ~prec b dur;
            add_args args;
            Buffer.add_string b "}}")
      evs
  in
  List.iteri (fun i (_, evs) -> track virtual_pid (i + 1) evs) vtracks;
  List.iteri (fun i (_, evs) -> track wall_pid (i + 1) evs) wtracks;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* -------------------------- track occupancy ------------------------ *)

type track_acc = {
  mutable spans : int;
  mutable busy : float;
  mutable first : float;
  mutable last : float;
}

type tracks = (string, track_acc) Hashtbl.t

let tracks () : tracks = Hashtbl.create 16

let add_track_span (tbl : tracks) ~track ~start ~finish =
  match Hashtbl.find tbl track with
  | a ->
      a.spans <- a.spans + 1;
      a.busy <- a.busy +. (finish -. start);
      if start < a.first then a.first <- start;
      if finish > a.last then a.last <- finish
  | exception Not_found ->
      Hashtbl.add tbl track
        { spans = 1; busy = finish -. start; first = start; last = finish }

let iter_tracks (tbl : tracks) ~makespan f =
  List.iter
    (fun (track, a) ->
      f track ~spans:a.spans ~busy:a.busy
        ~util:(if makespan > 0.0 then a.busy /. makespan else 0.0)
        ~stall:(Float.max 0.0 (a.last -. a.first -. a.busy)))
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

(* ----------------------------- summary ----------------------------- *)

let summary () =
  let evs = snapshot () in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* virtual tracks: span counts and durations, per track *)
  let vt = tracks () in
  let makespan = ref 0.0 in
  List.iter
    (function
      | Virtual { track; start; finish; _ } ->
          add_track_span vt ~track ~start ~finish;
          if finish > !makespan then makespan := finish
      | Wall _ -> ())
    evs;
  if Hashtbl.length vt > 0 then begin
    pr "virtual timeline (makespan %s cycles)\n"
      (Json_out.float_str ~prec !makespan);
    pr "  %-38s %8s %14s %7s %14s\n" "track" "spans" "busy cycles" "util"
      "stall cycles";
    iter_tracks vt ~makespan:!makespan (fun track ~spans ~busy ~util ~stall ->
        pr "  %-38s %8d %14s %6.1f%% %14s\n" track spans
          (Json_out.float_str ~prec busy)
          (100.0 *. util)
          (Json_out.float_str ~prec stall))
  end;
  (* wall spans aggregated by name *)
  let wt : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Wall { name; dur; _ } ->
          let t, n =
            match Hashtbl.find_opt wt name with Some x -> x | None -> (0.0, 0)
          in
          Hashtbl.replace wt name (t +. dur, n + 1)
      | Virtual _ -> ())
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
