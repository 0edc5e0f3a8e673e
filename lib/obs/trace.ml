type arg = Int of int | Float of float | Str of string

type run_track = {
  track : string;
  label : string;
  numbered : bool;
  key : string;
}

type columns = {
  tracks : run_track array;
  len : int;
  track_id : int array;
  start : float array;
  finish : float array;
  instance : int array;
}

(* One record per traced span: a wall-clock pass is written as one
   complete ("X") event, a virtual-cycle span as a begin/end ("B"/"E")
   pair. *)
type span =
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

(* The collector holds single spans and recorded runs: a run is written
   as the B/E pairs of its columns' spans, then of its intervals, each
   named [iname] on track [itrack] with no args. *)
type event =
  | Span of span
  | Run of {
      cols : columns;
      itrack : string;
      iname : string;
      intervals : (float * float) list;
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
        (Span
           (Wall { name; cat; track = wall_track (); ts = t0; dur = t1 -. t0; args }))
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
  if enabled () then
    record (Span (Virtual { name; cat; track; start; finish; args }))

let virtual_run cols ~track ~name intervals =
  if enabled () then
    record (Run { cols; itrack = track; iname = name; intervals })

(* --------------------------- serialization ------------------------- *)

(* fraction digits of trace floats; integral ones print without any *)
let prec = 4

(* The writer's output buffer.  It is kept across calls, cleared (never
   reset) and filled only while [lock] is held, so a call allocates no
   buffer of its own; it keeps the capacity of the largest trace written. *)
let out = Buffer.create 4096

(* A line is its head, the name's escaped text in quotes, the text fixed
   by its category and track, [, "cat": <cat>, "pid": <pid>, "tid":
   <tid>, "ts": ], then the timestamp.  An E line's head also closes the
   B line before it. *)
let b_head = "{\"ph\": \"B\", \"name\": \""
let e_head = "}},\n{\"ph\": \"E\", \"name\": \""
let x_head = "{\"ph\": \"X\", \"name\": \""
let m_head = "{\"ph\": \"M\", \"name\": \""
let args_open = ", \"args\": {"

(* the text after a line's name, from the name's closing quote to the
   timestamp *)
let line_text cat pid tid =
  let b = Buffer.create 64 in
  Buffer.add_string b "\", \"cat\": ";
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
  Json_out.add_string_body b name;
  Buffer.add_string b text;
  Json_out.add_float ~prec b ts

(* [s]'s escaped JSON text, without quotes *)
let escaped s =
  let b = Buffer.create (String.length s + 8) in
  Json_out.add_string_body b s;
  Buffer.contents b

(* A virtual span's two lines are written by these two alone, whichever
   producer recorded it.  [b_open] and [e_open] are the B and E heads,
   each followed by the span name's escaped text (for a numbered span,
   its prefix); [num] holds the digits that complete the name, or
   nothing.  [add_begin] stops after the start time, where the caller
   writes the B line's args; [add_end] closes them. *)
let add_begin b ~b_open num text start =
  Buffer.add_string b b_open;
  Buffer.add_buffer b num;
  Buffer.add_string b text;
  Json_out.add_float ~prec b start

let add_end b ~e_open num text finish =
  Buffer.add_string b e_open;
  Buffer.add_buffer b num;
  Buffer.add_string b text;
  Json_out.add_float ~prec b finish;
  Buffer.add_string b ", \"args\": {}}"

(* The digits of the span number being written, once per span, and an
   always empty [num] for spans without one.  Both are used only while
   [lock] is held. *)
let num = Buffer.create 24
let no_num = Buffer.create 0

let snapshot () = Mutex.protect lock (fun () -> List.rev !events)

(* A run's spans grouped by track name, each group in index order (a
   stable counting sort): the span indices [order], and every name with
   spans, paired with its range [lo, hi) of [order].  Tracks of one name
   are one group, so their spans keep index order between them. *)
let run_groups (c : columns) =
  let ids = Names.create 16 in
  let group =
    Array.map
      (fun (t : run_track) ->
        match Names.find_opt ids t.track with
        | Some g -> g
        | None ->
            let g = Names.length ids in
            Names.add ids t.track g;
            g)
      c.tracks
  in
  let ng = Names.length ids in
  (* [next.(g)]: group [g]'s span count, then where its next span goes,
     and after the fill the end of its range *)
  let next = Array.make ng 0 in
  for i = 0 to c.len - 1 do
    let g = group.(c.track_id.(i)) in
    next.(g) <- next.(g) + 1
  done;
  let lo = Array.make ng 0 in
  for g = 1 to ng - 1 do
    lo.(g) <- lo.(g - 1) + next.(g - 1)
  done;
  Array.blit lo 0 next 0 ng;
  let order = Array.make c.len 0 in
  for i = 0 to c.len - 1 do
    let g = group.(c.track_id.(i)) in
    order.(next.(g)) <- i;
    next.(g) <- next.(g) + 1
  done;
  let ranges =
    Names.fold
      (fun track g acc -> if next.(g) > lo.(g) then (track, lo.(g), next.(g)) :: acc else acc)
      ids []
  in
  (order, ranges)

(* A run's fixed text per track id: the B and E heads with the escaped
   label, and the args opener with the escaped key *)
type kit = { k_b_open : string; k_e_open : string; k_args : string; numbered : bool }

(* what one track holds, in record order: single spans, a run's spans on
   it ([order.(lo .. hi-1)] of the run's columns), or a run's intervals *)
type segment =
  | One of span
  | Spans of { cols : columns; order : int array; lo : int; hi : int; kits : kit array }
  | Intervals of { name : string; intervals : (float * float) list }

let to_json () =
  Mutex.protect lock @@ fun () ->
  (* each pid's segments grouped by track; consing newest-first leaves
     every group in record order (the recorder guarantees per-track
     timestamp order) *)
  let vgroups = Names.create 64 and wgroups = Names.create 16 in
  (* an arg key's escaped text in quotes and [": "], escaped once per
     distinct key *)
  let keys = Names.create 8 in
  let key_text k =
    match Names.find_opt keys k with
    | Some text -> text
    | None ->
        let text = "\"" ^ escaped k ^ "\": " in
        Names.add keys k text;
        text
  in
  let kit (t : run_track) =
    let label = escaped t.label in
    { k_b_open = b_head ^ label; k_e_open = e_head ^ label;
      k_args = args_open ^ key_text t.key; numbered = t.numbered }
  in
  let add groups track seg =
    match Names.find_opt groups track with
    | Some g -> g := seg :: !g
    | None -> Names.add groups track (ref [ seg ])
  in
  List.iter
    (function
      | Span (Virtual { track; _ } as s) -> add vgroups track (One s)
      | Span (Wall { track; _ } as s) -> add wgroups track (One s)
      | Run { cols; itrack; iname; intervals } ->
          (* a run's intervals follow its spans *)
          if intervals <> [] then
            add vgroups itrack (Intervals { name = iname; intervals });
          let order, ranges = run_groups cols in
          let kits = Array.map kit cols.tracks in
          List.iter
            (fun (track, lo, hi) ->
              add vgroups track (Spans { cols; order; lo; hi; kits }))
            ranges)
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
  (* the items of an args object the caller has opened; the next head or
     [}}] closes it *)
  let add_args args =
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
      Buffer.add_string b args_open;
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
  let track pid tid segs =
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
        | One (Virtual { name; cat; start; finish; args; _ }) ->
            let text = text_for cat and name = escaped name in
            sep ();
            add_begin b ~b_open:(b_head ^ name) no_num text start;
            Buffer.add_string b args_open;
            add_args args;
            add_end b ~e_open:(e_head ^ name) no_num text finish
        | One (Wall { name; cat; ts; dur; args; _ }) ->
            sep ();
            add_line b x_head name (text_for cat) ts;
            Buffer.add_string b ", \"dur\": ";
            Json_out.add_float ~prec b dur;
            Buffer.add_string b args_open;
            add_args args;
            Buffer.add_string b "}}"
        | Spans { cols; order; lo; hi; kits } ->
            let text = text_for "sim" in
            for k = lo to hi - 1 do
              let i = order.(k) in
              let kit = kits.(cols.track_id.(i)) in
              Buffer.clear num;
              Json_out.add_int num cols.instance.(i);
              let name_num = if kit.numbered then num else no_num in
              sep ();
              add_begin b ~b_open:kit.k_b_open name_num text cols.start.(i);
              Buffer.add_string b kit.k_args;
              Buffer.add_buffer b num;
              add_end b ~e_open:kit.k_e_open name_num text cols.finish.(i)
            done
        | Intervals { name; intervals } ->
            let text = text_for "sim" and name = escaped name in
            let b_open = b_head ^ name and e_open = e_head ^ name in
            List.iter
              (fun (start, finish) ->
                sep ();
                add_begin b ~b_open no_num text start;
                Buffer.add_string b args_open;
                add_end b ~e_open no_num text finish)
              intervals)
      segs
  in
  List.iteri (fun i (_, segs) -> track virtual_pid (i + 1) segs) vtracks;
  List.iteri (fun i (_, segs) -> track wall_pid (i + 1) segs) wtracks;
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

let acc_of (tbl : tracks) track =
  match Hashtbl.find tbl track with
  | a -> a
  | exception Not_found ->
      let a = { spans = 0; busy = 0.0; first = 0.0; last = 0.0 } in
      Hashtbl.add tbl track a;
      a

(* a track's first span sets its sums; later ones add in record order *)
let add_span a ~start ~finish =
  if a.spans = 0 then begin
    a.busy <- finish -. start;
    a.first <- start;
    a.last <- finish
  end
  else begin
    a.busy <- a.busy +. (finish -. start);
    if start < a.first then a.first <- start;
    if finish > a.last then a.last <- finish
  end;
  a.spans <- a.spans + 1

let add_track_span tbl ~track ~start ~finish =
  add_span (acc_of tbl track) ~start ~finish

let add_run tbl (c : columns) ~track intervals =
  let accs = Array.map (fun (t : run_track) -> acc_of tbl t.track) c.tracks in
  for i = 0 to c.len - 1 do
    add_span accs.(c.track_id.(i)) ~start:c.start.(i) ~finish:c.finish.(i)
  done;
  (* a track that recorded no span stays out of the table *)
  Array.iteri
    (fun t a -> if a.spans = 0 then Hashtbl.remove tbl c.tracks.(t).track)
    accs;
  if intervals <> [] then begin
    let a = acc_of tbl track in
    List.iter (fun (start, finish) -> add_span a ~start ~finish) intervals
  end

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
  let reach finish = if finish > !makespan then makespan := finish in
  List.iter
    (function
      | Span (Virtual { track; start; finish; _ }) ->
          add_track_span vt ~track ~start ~finish;
          reach finish
      | Run { cols; itrack; intervals; _ } ->
          add_run vt cols ~track:itrack intervals;
          for i = 0 to cols.len - 1 do
            reach cols.finish.(i)
          done;
          List.iter (fun (_, finish) -> reach finish) intervals
      | Span (Wall _) -> ())
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
      | Span (Wall { name; dur; _ }) ->
          let t, n =
            match Hashtbl.find_opt wt name with Some x -> x | None -> (0.0, 0)
          in
          Hashtbl.replace wt name (t +. dur, n + 1)
      | Span (Virtual _) | Run _ -> ())
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
