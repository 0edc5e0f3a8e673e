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

(* The collector's one event form: a block of spans by columns, all of
   one pid and category.  A span carries [args], or, when [args] is
   [None], the one arg [key = instance] of its track.  A wall-clock
   block is written as complete ("X") events, a virtual-cycle block as
   begin/end ("B"/"E") pairs. *)
type block = {
  pid : int;
  cat : string;
  cols : columns;
  args : (string * arg) list option;
}

let wall_pid = 0
let virtual_pid = 1

(* ------------------------- collector state ------------------------- *)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let blocks : block list ref = ref []  (* newest first *)
let epoch = ref 0.0

let enabled () = Atomic.get enabled_flag

let enable () =
  epoch := Unix.gettimeofday ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false
let clear () = Mutex.protect lock (fun () -> blocks := [])
let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6
let record blk = Mutex.protect lock (fun () -> blocks := blk :: !blocks)

(* every single span's track id and instance: shared, since no one
   writes into a recorded block *)
let zero = [| 0 |]

(* one span, recorded as a block of one row *)
let record_span ~pid ~cat ~track ~name ~start ~finish args =
  record
    { pid; cat; args = Some args;
      cols =
        { tracks = [| { track; label = name; numbered = false; key = "" } |];
          len = 1; track_id = zero; start = [| start |]; finish = [| finish |];
          instance = zero } }

(* one wall track per domain, so pass spans inside a Pool sweep nest on
   the domain that ran them instead of interleaving on one track *)
let wall_track () = Printf.sprintf "wall-d%d" (Domain.self () :> int)

let with_span ?args name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let args = match args with None -> [] | Some g -> g () in
      record_span ~pid:wall_pid ~cat:"pass" ~track:(wall_track ()) ~name
        ~start:t0 ~finish:t1 args
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let pass name =
  let metric = "pass." ^ name in
  fun ~args f ->
    Metrics.time metric (fun () ->
        if not (enabled ()) then f ()
        else begin
          let recorded = ref [] in
          with_span ~args:(fun () -> !recorded) name
            (fun () ->
              let r = f () in
              recorded := args r;
              r)
        end)

let virtual_span ?(cat = "sim") ~track ~name ~start ~finish ?(args = []) () =
  if enabled () then
    record_span ~pid:virtual_pid ~cat ~track ~name ~start ~finish args

let virtual_run ?args cols =
  if enabled () then record { pid = virtual_pid; cat = "sim"; cols; args }

(* --------------------------- serialization ------------------------- *)

(* fraction digits of trace floats; integral ones print without any *)
let prec = 4

(* The writer appends into one chunk of [chunk_size] bytes and hands each
   full chunk, then the last part, to the sink of the call in hand: the
   kept buffer for [to_json], a channel for [output].  All three are used
   only while [lock] is held. *)
let chunk_size = 65536
let chunk = Bytes.create chunk_size
let pos = ref 0
let sink = ref (fun (_ : Bytes.t) (_ : int) -> ())

let flush () =
  !sink chunk !pos;
  pos := 0

(* [s] whole, across as many chunks as it needs *)
let rec put_sub s off len =
  let room = chunk_size - !pos in
  if len <= room then begin
    Bytes.unsafe_blit_string s off chunk !pos len;
    pos := !pos + len
  end
  else begin
    Bytes.unsafe_blit_string s off chunk !pos room;
    pos := chunk_size;
    flush ();
    put_sub s (off + room) (len - room)
  end

let put s = put_sub s 0 (String.length s)

(* numbers are written in place, after making room for the longest *)
let put_int n =
  if !pos > chunk_size - Json_out.int_room then flush ();
  pos := Json_out.put_int chunk !pos n

let float_room = Json_out.float_room ~prec

(* An integral timestamp below 1e15 other than [-0.] is its digits
   ({!Json_out.put_float}'s first case).  Testing for it here, in
   instructions, keeps the float unboxed for the 96% of timestamps that
   are integral: passing a float to a function of another module boxes
   it. *)
let[@inline] put_float f =
  if Float.abs f < 1e15 && Float.of_int (Float.to_int f) = f
     && not (f = 0.0 && Float.sign_bit f)
  then put_int (Float.to_int f)
  else begin
    if !pos > chunk_size - float_room then flush ();
    pos := Json_out.put_float ~prec chunk !pos f
  end

(* [to_json]'s output buffer.  It is kept across calls, cleared (never
   reset) and filled only while [lock] is held, so a call allocates no
   buffer of its own; it keeps the capacity of the largest trace written. *)
let out = Buffer.create 4096

(* A line is its head, the name's escaped text in quotes, the text fixed
   by its category and track, [, "cat": <cat>, "pid": <pid>, "tid":
   <tid>, "ts": ], then the timestamp.  Every span line follows a
   metadata line, so a span's head starts with the separator; an E
   line's head also closes the B line before it. *)
let b_head = ",\n{\"ph\": \"B\", \"name\": \""
let e_head = "}},\n{\"ph\": \"E\", \"name\": \""
let x_head = ",\n{\"ph\": \"X\", \"name\": \""
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

(* [s]'s escaped JSON text, without quotes *)
let escaped s =
  let b = Buffer.create (String.length s + 8) in
  Json_out.add_string_body b s;
  Buffer.contents b

(* A block's spans grouped by track name, each group in index order (a
   stable counting sort): the span indices [order], and every name with
   spans, paired with its range [lo, hi) of [order].  Tracks of one name
   are one group, so their spans keep index order between them. *)
let by_track (c : columns) =
  let ids = Names.create (Array.length c.tracks) in
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

(* A block's fixed text per track id: the first line's head, separator
   included, with the escaped label, the E head with it, and the args
   opener, followed by the escaped key when a span's one arg is its
   instance *)
type kit = { k_open : string; k_e_open : string; k_args : string; numbered : bool }

(* a block's spans on one track: [order.(lo .. hi-1)] of its columns *)
type slice = { blk : block; order : int array; lo : int; hi : int; kits : kit array }

(* The whole trace, into the chunk and through [sink]; [lock] is held. *)
let write to_sink =
  sink := to_sink;
  pos := 0;
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
  (* each pid's slices grouped by track; consing newest-first leaves
     every group in record order (the recorder guarantees per-track
     timestamp order) *)
  let groups = [| Names.create 16; Names.create 64 |] (* by pid *) in
  List.iter
    (fun blk ->
      let kit (t : run_track) =
        let label = escaped t.label in
        { k_open = (if blk.pid = wall_pid then x_head else b_head) ^ label;
          k_e_open = e_head ^ label; numbered = t.numbered;
          k_args = (if Option.is_none blk.args then args_open ^ key_text t.key else args_open) }
      in
      let kits = Array.map kit blk.cols.tracks and order, ranges = by_track blk.cols in
      let g = groups.(blk.pid) in
      List.iter
        (fun (track, lo, hi) ->
          let s = { blk; order; lo; hi; kits } in
          match Names.find_opt g track with
          | Some l -> l := s :: !l
          | None -> Names.add g track (ref [ s ]))
        ranges)
    !blocks;
  (* a track's tid is its 1-based rank among its pid's track names *)
  let by_name pid =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Names.fold (fun track l acc -> (track, !l) :: acc) groups.(pid) [])
  in
  let vtracks = by_name virtual_pid and wtracks = by_name wall_pid in
  put "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  (* the items of an args object the caller has opened; the next head or
     [}}] closes it *)
  let rec put_args = function
    | [] -> ()
    | (k, v) :: rest ->
        put (key_text k);
        (match v with
        | Int n -> put_int n
        | Float f -> put_float f
        | Str s -> put ("\"" ^ escaped s ^ "\""));
        (match rest with [] -> () | _ -> put ", ");
        put_args rest
  in
  (* process/thread names first, so Perfetto labels the tracks; metadata
     for the wall pid is tagged onto it and stripped with it.  Only the
     trace's first line goes without the separator. *)
  let first = ref true in
  let names pid process tracks =
    let meta name tid label =
      if !first then first := false else put ",\n";
      put m_head;
      put name;
      put (line_text "meta" pid tid);
      put_int 0;
      put args_open;
      put_args [ ("name", Str label) ];
      put "}}"
    in
    if tracks <> [] then begin
      meta "process_name" 1 process;
      List.iteri (fun i (track, _) -> meta "thread_name" (i + 1) track) tracks
    end
  in
  names virtual_pid "simulator (virtual cycles)" vtracks;
  names wall_pid "compiler (wall clock, us)" wtracks;
  (* then virtual events (deterministic) before wall, track by track: a
     wall span is one X line, a virtual one a B/E pair.  The line text is
     rebuilt only where a track's category changes. *)
  let track pid tid slices =
    let wall = pid = wall_pid in
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
      (fun { blk; order; lo; hi; kits } ->
        let text = text_for blk.cat and c = blk.cols in
        for k = lo to hi - 1 do
          let i = order.(k) in
          let kit = kits.(c.track_id.(i)) and n = c.instance.(i) in
          put kit.k_open;
          if kit.numbered then put_int n;
          put text;
          put_float c.start.(i);
          if wall then begin
            put ", \"dur\": ";
            put_float (c.finish.(i) -. c.start.(i))
          end;
          put kit.k_args;
          (match blk.args with None -> put_int n | Some args -> put_args args);
          if wall then put "}}"
          else begin
            put kit.k_e_open;
            if kit.numbered then put_int n;
            put text;
            put_float c.finish.(i);
            put ", \"args\": {}}"
          end
        done)
      slices
  in
  List.iteri (fun i (_, slices) -> track virtual_pid (i + 1) slices) vtracks;
  List.iteri (fun i (_, slices) -> track wall_pid (i + 1) slices) wtracks;
  put "\n]}\n";
  flush ()

let output oc =
  Mutex.protect lock (fun () -> write (fun c n -> Out_channel.output oc c 0 n))

let to_json () =
  Mutex.protect lock @@ fun () ->
  Buffer.clear out;
  write (fun c n -> Buffer.add_subbytes out c 0 n);
  Buffer.contents out

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

let add_run tbl (c : columns) =
  let accs = Array.map (fun (t : run_track) -> acc_of tbl t.track) c.tracks in
  for i = 0 to c.len - 1 do
    add_span accs.(c.track_id.(i)) ~start:c.start.(i) ~finish:c.finish.(i)
  done;
  (* a track that recorded no span stays out of the table *)
  Array.iteri
    (fun t a -> if a.spans = 0 then Hashtbl.remove tbl c.tracks.(t).track)
    accs

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
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* virtual tracks: span counts and durations, per track; wall spans:
     total duration and count, by name *)
  let vt = tracks () and wt : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
  let makespan = ref 0.0 in
  List.iter
    (fun { pid; cols = c; _ } ->
      if pid = virtual_pid then begin
        add_run vt c;
        for i = 0 to c.len - 1 do
          if c.finish.(i) > !makespan then makespan := c.finish.(i)
        done
      end
      else
        for i = 0 to c.len - 1 do
          let t = c.tracks.(c.track_id.(i)) in
          let name =
            if t.numbered then t.label ^ string_of_int c.instance.(i) else t.label
          in
          let total, n =
            match Hashtbl.find_opt wt name with Some x -> x | None -> (0.0, 0)
          in
          Hashtbl.replace wt name (total +. (c.finish.(i) -. c.start.(i)), n + 1)
        done)
    (Mutex.protect lock (fun () -> List.rev !blocks));
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
