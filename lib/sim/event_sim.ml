type span = {
  sp_track : string;
  sp_name : string;
  sp_start : float;
  sp_finish : float;
  sp_args : (string * float) list;
}

type timeline = {
  tl_columns : Trace.columns;
  tl_dram : Trace.columns;
  tl_makespan : float;
}

let tl_dram_busy tl =
  let c = tl.tl_dram in
  List.init c.Trace.len (fun i -> (c.Trace.start.(i), c.Trace.finish.(i)))

let spans tl =
  let c = tl.tl_columns in
  List.init c.Trace.len (fun i ->
      let t = c.Trace.tracks.(c.Trace.track_id.(i)) and n = c.Trace.instance.(i) in
      { sp_track = t.Trace.track;
        sp_name = (if t.Trace.numbered then t.Trace.label ^ string_of_int n else t.Trace.label);
        sp_start = c.Trace.start.(i);
        sp_finish = c.Trace.finish.(i);
        sp_args = [ (t.Trace.key, float_of_int n) ] })

type result = {
  report : Simulate.report;
  events : int;
  fallbacks : int;
  coalesced : int;
  timeline : timeline option;
}

let max_events = 200_000

(* The DRAM interface as a calendar of busy intervals, owned by one run:
   span [i] is [starts.(i), stops.(i)] for [i < n], sorted by start.
   Spans are disjoint and never touch (touching spans merge), so the span
   holding or preceding a request time is one binary search away. *)
module Dram_calendar = struct
  type t = {
    mutable starts : float array;
    mutable stops : float array;
    mutable n : int;
    mutable coalesced : int;
  }

  let create () =
    { starts = Array.make 8 0.0; stops = Array.make 8 0.0; n = 0; coalesced = 0 }

  let spans c = List.init c.n (fun i -> (c.starts.(i), c.stops.(i)))
  let coalesced c = c.coalesced
  let max_spans = 2048

  (* move spans [from, n) to start at [dst], doubling the arrays if they
     would overflow *)
  let shift c ~from ~dst =
    if dst <> from then begin
      let n' = c.n + dst - from in
      if n' > Array.length c.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0.0) in
        c.starts <- grow c.starts;
        c.stops <- grow c.stops
      end;
      Array.blit c.starts from c.starts dst (c.n - from);
      Array.blit c.stops from c.stops dst (c.n - from);
      c.n <- n'
    end

  (* keep the calendar bounded: beyond [max_spans] spans, conservatively
     coalesce the oldest half into one busy span (requests rarely
     back-fill that far; the approximation is pessimistic) *)
  let bound c =
    if c.n > max_spans then begin
      let k = c.n / 2 in
      c.stops.(0) <- c.stops.(k - 1);
      shift c ~from:k ~dst:1;
      c.coalesced <- c.coalesced + 1
    end

  (* the last span starting at or before [x], or -1 *)
  let find c x =
    let rec go lo hi =
      (* starts.(lo) <= x (or lo = -1), and starts.(hi) > x (or hi = n) *)
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if c.starts.(mid) <= x then go mid hi else go lo mid
    in
    go (-1) c.n

  (* The interface time-multiplexes outstanding transfers at burst
     granularity, so a request simply consumes the idle gaps of the
     calendar in time order (preemptive FIFO) rather than needing one
     contiguous slot. *)
  let acquire c t dur =
    if dur <= 0.0 then t
    else begin
      let cursor = Float.max t 0.0 in
      let last = c.n - 1 in
      let i0 =
        if last >= 0 && c.starts.(last) <= cursor then last else find c cursor
      in
      if i0 >= 0 && i0 = last && cursor <= c.stops.(last) then begin
        (* the tail path: inside the last span or at its end, the request
           books the time right after it, which the closed rule merges
           into it *)
        let fin = c.stops.(last) +. dur in
        c.stops.(last) <- fin;
        fin
      end
      else begin
        (* span [i0], if any, ends before [cursor] or holds it; the request
           fills consecutive gaps from [first] on, so with the spans
           between those gaps it books all of [first, fin] *)
        let first =
          if i0 >= 0 && c.stops.(i0) > cursor then c.stops.(i0) else cursor
        in
        let rec consume cursor remaining j =
          if j = c.n then cursor +. remaining
          else
            let gap = c.starts.(j) -. cursor in
            if gap >= remaining then cursor +. remaining
            else consume c.stops.(j) (remaining -. gap) (j + 1)
        in
        let fin = consume first dur (i0 + 1) in
        (* replace spans [lo, hi), the ones [first, fin] touches (closed
           rule: [e1 >= s2] merges), with their union *)
        let lo = if i0 >= 0 && c.stops.(i0) >= first then i0 else i0 + 1 in
        let start, stop =
          if lo = i0 then (c.starts.(i0), Float.max c.stops.(i0) fin)
          else (first, fin)
        in
        let rec absorb stop j =
          if j < c.n && c.starts.(j) <= stop then
            absorb (Float.max stop c.stops.(j)) (j + 1)
          else (stop, j)
        in
        let stop, hi = absorb stop (i0 + 1) in
        shift c ~from:hi ~dst:(lo + 1);
        c.starts.(lo) <- start;
        c.stops.(lo) <- stop;
        bound c;
        fin
      end
    end
end

(* ------------------------- the resolved design ------------------------ *)

(* What one instance of a controller does is a function of (machine,
   sizes, controller) only, so [run] reads it from the design's
   {!Simulate.annotate} before scheduling any instance: trip counts, and
   each leaf's compute cycles and transfers.  Each (direction, array)
   pair becomes a slot index into the run's traffic sums. *)

type xfer = {
  slot : int;  (** the traffic sum the words add to *)
  words : float;
  cycles : float;  (** DRAM time the transfer books *)
}

type node =
  | Pipe of { compute : float; xfers : xfer array }
      (** compute and direct transfers all start with the instance *)
  | Tile of xfer  (** a tile load or store: one transfer *)
  | Seq of node list
  | Par of node list
  | Loop of { iters : int; stages : node list }  (** sequential iteration *)
  | Meta of { iters : int; stages : stage array }  (** metapipeline *)
  | Fallback of analytic
      (** a loop beyond the event budget, costed by {!Simulate} *)
  | Traced of { track : int; node : node }
      (** a top-level controller of a recorded run: one span per run *)

and stage = { node : node; track : int (** its instances' track id *) }

and analytic = {
  a_cycles : float;
  a_dram : float;
  a_traffic : xfer list;
      (** reads then writes, each by array name; books no DRAM time of
          its own ([a_dram] covers it) *)
}

(* The run's timeline tracks, numbered in first-seen order: a track id
   indexes the array [Array.of_list (List.rev tracks)] *)
type track_table = { mutable tracks : Trace.run_track list; mutable count : int }

let add_track tt t =
  tt.tracks <- t :: tt.tracks;
  tt.count <- tt.count + 1;
  tt.count - 1

(* (write, array) -> slot, numbered in first-seen order *)
let slot slots ~write arr =
  match Hashtbl.find_opt slots (write, arr) with
  | Some i -> i
  | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots (write, arr) i;
      i

(* the analytic engine's cost of one invocation; every array it reports
   already has its slot, from resolving the subtree's leaves *)
let analytic slots (a : Simulate.annot) =
  let traffic write words =
    List.map
      (fun (arr, w) ->
        { slot = Hashtbl.find slots (write, arr); words = w; cycles = 0.0 })
      (Simulate.traffic words)
  in
  { a_cycles = a.cycles; a_dram = a.dram;
    a_traffic = traffic false a.reads @ traffic true a.writes }

(* [a] resolved, and the number of controller instances it schedules *)
let rec resolve slots tt (a : Simulate.annot) : node * float =
  let all () =
    let ns, count =
      List.fold_left
        (fun (ns, count) ch ->
          let n, k = resolve slots tt ch in
          (n :: ns, count +. k))
        ([], 1.0) a.children
    in
    (List.rev ns, count)
  in
  let xfer (x : Simulate.xfer) =
    { slot = slot slots ~write:x.write x.array; words = x.words;
      cycles = x.cycles }
  in
  match a.ctrl with
  | Hw.Pipe _ ->
      let xfers = Array.of_list (List.map xfer a.xfers) in
      (Pipe { compute = a.compute; xfers }, 1.0)
  | Hw.Tile_load _ | Hw.Tile_store _ -> (
      match a.xfers with
      | [ x ] -> (Tile (xfer x), 1.0)
      | _ -> invalid_arg "Event_sim: a tile unit makes one transfer")
  | Hw.Seq _ ->
      let ns, count = all () in
      (Seq ns, count)
  | Hw.Par _ ->
      let ns, count = all () in
      (Par ns, count)
  | Hw.Loop { name; stages; _ } ->
      let ns, per_iter = all () in
      let count = 1.0 +. (a.iters *. per_iter) in
      let iters = int_of_float a.iters in
      let node =
        if count > float_of_int max_events then Fallback (analytic slots a)
        else if a.steady = None then Loop { iters; stages = ns }
        else
          Meta
            { iters;
              stages =
                Array.of_list
                  (List.map2
                     (fun node st ->
                       let sname = Hw.ctrl_name st in
                       let track =
                         add_track tt
                           { Trace.track = name ^ "." ^ sname; label = sname ^ "#";
                             numbered = true; key = "iteration" }
                       in
                       { node; track })
                     ns stages) }
      in
      (node, count)

(* ------------------------------ scheduling ----------------------------- *)

(* Mutable simulation state: the DRAM busy calendar (a request is granted
   the earliest idle time at or after its request time, so a transfer
   issued by a later-visited controller can still use memory idle time
   before an earlier-visited one), the event budget, and per-slot traffic
   sums (each adds in visit order; a slot is reported once touched). *)
type st = {
  dram_cal : Dram_calendar.t;
  mutable dram_busy : float;  (** accumulated DRAM-busy cycles *)
  mutable events : int;
  mutable fallbacks : int;
  sums : float array;
  seen : bool array;
  record : bool;  (** collect the timeline *)
  (* the timeline's columns: [len] spans so far, in schedule order; the
     arrays double when full *)
  mutable len : int;
  mutable track_id : int array;
  mutable start : float array;
  mutable finish : float array;
  mutable instance : int array;
}

let grow st =
  let extend a zero =
    let a' = Array.make (max 256 (2 * st.len)) zero in
    Array.blit a 0 a' 0 st.len;
    a'
  in
  st.track_id <- extend st.track_id 0;
  st.start <- extend st.start 0.0;
  st.finish <- extend st.finish 0.0;
  st.instance <- extend st.instance 0

let append_span st track start finish instance =
  if st.record then begin
    if st.len = Array.length st.track_id then grow st;
    let i = st.len in
    st.track_id.(i) <- track;
    st.start.(i) <- start;
    st.finish.(i) <- finish;
    st.instance.(i) <- instance;
    st.len <- i + 1
  end

let add st x =
  if st.seen.(x.slot) then st.sums.(x.slot) <- st.sums.(x.slot) +. x.words
  else begin
    st.seen.(x.slot) <- true;
    st.sums.(x.slot) <- x.words
  end

(* Acquire [dur] cycles of DRAM time starting no earlier than [t]; returns
   the completion time. *)
let dram_transfer st t dur =
  if dur <= 0.0 then t
  else begin
    st.dram_busy <- st.dram_busy +. dur;
    Dram_calendar.acquire st.dram_cal t dur
  end

let rec exec st t = function
  | Pipe { compute; xfers } ->
      st.events <- st.events + 1;
      let mem_end = ref t in
      Array.iter
        (fun x ->
          add st x;
          mem_end := Float.max !mem_end (dram_transfer st t x.cycles))
        xfers;
      Float.max (t +. compute) !mem_end
  | Tile x ->
      st.events <- st.events + 1;
      add st x;
      dram_transfer st t x.cycles
  | Seq children -> List.fold_left (fun now ch -> exec st now ch) t children
  | Par children ->
      (* all start together; the DRAM queue serializes their transfers in
         list order *)
      List.fold_left (fun fin ch -> Float.max fin (exec st t ch)) t children
  | Loop { iters; stages } ->
      let now = ref t in
      for _ = 1 to iters do
        List.iter (fun s -> now := exec st !now s) stages
      done;
      !now
  | Meta { iters; stages } ->
      (* metapipeline: stage s of iteration i waits for stage s-1 of
         iteration i and for its own iteration i-1 (double buffer) *)
      let nstages = Array.length stages in
      let avail = Array.make nstages t in
      let finish_last = ref t in
      for i = 1 to iters do
        let prev_done = ref t in
        Array.iteri
          (fun s stage ->
            let start = Float.max !prev_done avail.(s) in
            let fin = exec st start stage.node in
            (* Gantt: one track per metapipeline stage, one span per
               iteration instance; stage instances never overlap on their
               own track (avail.(s) serializes them) *)
            append_span st stage.track start fin i;
            avail.(s) <- fin;
            prev_done := fin;
            if s = nstages - 1 then finish_last := fin)
          stages
      done;
      !finish_last
  | Fallback a ->
      st.fallbacks <- st.fallbacks + 1;
      List.iter (add st) a.a_traffic;
      ignore (dram_transfer st t a.a_dram);
      t +. a.a_cycles
  | Traced { track; node } ->
      let fin = exec st t node in
      append_span st track t fin 1;
      fin

let run ?(record = false) (d : Hw.design) ~sizes =
  let slots = Hashtbl.create 16 and tt = { tracks = []; count = 0 } in
  let node a = fst (resolve slots tt a) in
  let top = Simulate.annotate d ~sizes in
  (* when recording, each top-level controller also gets a span on its
     own track (the same schedule exec applies: Seq chains, Par forks) *)
  let traced =
    List.map (fun (ch : Simulate.annot) ->
        let name = Hw.ctrl_name ch.ctrl in
        let node = node ch in
        let track =
          add_track tt
            { Trace.track = name; label = name; numbered = false; key = "top-level" }
        in
        Traced { track; node })
  in
  let top =
    match top.ctrl with
    | Hw.Seq _ when record -> Seq (traced top.children)
    | Hw.Par _ when record -> Par (traced top.children)
    | _ -> node top
  in
  let n = Hashtbl.length slots in
  let st =
    { dram_cal = Dram_calendar.create (); dram_busy = 0.0; events = 0; fallbacks = 0;
      sums = Array.make n 0.0; seen = Array.make n false; record; len = 0;
      track_id = [||]; start = [||]; finish = [||]; instance = [||] }
  in
  let fin = exec st 0.0 top in
  (* touched slots, by array name *)
  let traffic write =
    Hashtbl.fold
      (fun (w, arr) i acc ->
        if w = write && st.seen.(i) then (arr, st.sums.(i)) :: acc else acc)
      slots []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { report =
      { Simulate.cycles = fin;
        dram_cycles = st.dram_busy;
        reads = traffic false;
        writes = traffic true };
    events = st.events;
    fallbacks = st.fallbacks;
    coalesced = Dram_calendar.coalesced st.dram_cal;
    timeline =
      (if record then
         Some
           { tl_columns =
               { Trace.tracks = Array.of_list (List.rev tt.tracks); len = st.len;
                 track_id = st.track_id; start = st.start; finish = st.finish;
                 instance = st.instance };
             tl_dram =
               (let c = st.dram_cal in
                let zeros = Array.make c.n 0 in
                { Trace.tracks =
                    [| { Trace.track = "DRAM"; label = "busy"; numbered = false; key = "" } |];
                  len = c.n; track_id = zeros; start = c.starts; finish = c.stops;
                  instance = zeros });
             tl_makespan = fin }
       else None) }
