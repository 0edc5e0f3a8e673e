type span = {
  sp_track : string;
  sp_name : string;
  sp_start : float;
  sp_finish : float;
  sp_args : (string * float) list;
}

type timeline = {
  tl_spans : span list;
  tl_dram_busy : (float * float) list;
  tl_makespan : float;
}

type track_stats = {
  tk_track : string;
  tk_spans : int;
  tk_busy : float;
  tk_first : float;
  tk_last : float;
}

type result = {
  report : Simulate.report;
  events : int;
  fallbacks : int;
  coalesced : int;
  timeline : timeline option;
}

let max_events = 200_000

(* The DRAM interface as a calendar of busy intervals: an ordered map from
   span start to span end.  Spans are disjoint and never touch (touching
   spans merge), so the span holding or preceding a request time is one
   [find_last_opt] away. *)
module Dram_calendar = struct
  module Cal = Map.Make (Float)

  type t = { cal : float Cal.t; count : int; coalesced : int }

  let empty = { cal = Cal.empty; count = 0; coalesced = 0 }
  let spans c = Cal.bindings c.cal
  let coalesced c = c.coalesced
  let max_spans = 2048

  (* add the busy span [a, b], merged with every span it touches (closed
     rule: [e1 >= s2] merges) *)
  let insert c (a, b) =
    let start, stop, cal, removed =
      match Cal.find_last_opt (fun s -> s <= a) c.cal with
      | Some (s, e) when e >= a -> (s, Float.max e b, Cal.remove s c.cal, 1)
      | _ -> (a, b, c.cal, 0)
    in
    let rec absorb stop cal removed =
      match Cal.find_first_opt (fun s -> s >= start) cal with
      | Some (s, e) when s <= stop ->
          absorb (Float.max stop e) (Cal.remove s cal) (removed + 1)
      | _ -> (stop, cal, removed)
    in
    let stop, cal, removed = absorb stop cal removed in
    { c with cal = Cal.add start stop cal; count = c.count + 1 - removed }

  (* keep the calendar bounded: beyond [max_spans] spans, conservatively
     coalesce the oldest half into one busy span (requests rarely
     back-fill that far; the approximation is pessimistic) *)
  let bound c =
    if c.count <= max_spans then c
    else begin
      let k = c.count / 2 in
      let s0, _ = Cal.min_binding c.cal in
      let rec drop i cal e_last =
        if i = 0 then (cal, e_last)
        else
          let s, e = Cal.min_binding cal in
          drop (i - 1) (Cal.remove s cal) e
      in
      let cal, e_last = drop k c.cal s0 in
      { cal = Cal.add s0 e_last cal; count = c.count - k + 1;
        coalesced = c.coalesced + 1 }
    end

  (* The interface time-multiplexes outstanding transfers at burst
     granularity, so a request simply consumes the idle gaps of the
     calendar in time order (preemptive FIFO) rather than needing one
     contiguous slot. *)
  let acquire c t dur =
    if dur <= 0.0 then (c, t)
    else begin
      let cursor = Float.max t 0.0 in
      (* every span before the last one starting at or before [cursor]
         ends before it *)
      let from =
        match Cal.find_last_opt (fun s -> s <= cursor) c.cal with
        | Some (s, _) -> s
        | None -> cursor
      in
      let rec consume cursor remaining spans pieces =
        match spans () with
        | Seq.Nil -> ((cursor, cursor +. remaining) :: pieces, cursor +. remaining)
        | Seq.Cons ((s, e), rest) ->
            if e <= cursor then consume cursor remaining rest pieces
            else if s <= cursor then consume e remaining rest pieces
            else begin
              let gap = s -. cursor in
              if gap >= remaining then
                ((cursor, cursor +. remaining) :: pieces, cursor +. remaining)
              else consume e (remaining -. gap) rest ((cursor, s) :: pieces)
            end
      in
      let pieces, fin = consume cursor dur (Cal.to_seq_from from c.cal) [] in
      (bound (List.fold_left insert c pieces), fin)
    end
end

module Smap = Map.Make (String)

(* Mutable simulation state: the DRAM busy calendar (a request is granted
   the earliest idle time at or after its request time, so a transfer
   issued by a later-visited controller can still use memory idle time
   before an earlier-visited one), the event budget, and traffic
   accumulators keyed by array name. *)
type st = {
  machine : Machine.t;
  sizes : (Sym.t * int) list;
  mutable dram_cal : Dram_calendar.t;
  mutable dram_busy : float;  (** accumulated DRAM-busy cycles *)
  mutable events : int;
  mutable fallbacks : int;
  mutable reads : float Smap.t;
  mutable writes : float Smap.t;
  record : bool;  (** collect the timeline *)
  mutable spans : span list;  (** newest first *)
}

let push_span st ~track ~name ~start ~finish args =
  if st.record then
    st.spans <-
      { sp_track = track; sp_name = name; sp_start = start; sp_finish = finish;
        sp_args = args }
      :: st.spans

(* per-array sums add in visit order *)
let add st table (arr, words) =
  let go =
    Smap.update arr (function None -> Some words | Some w -> Some (w +. words))
  in
  match table with
  | `R -> st.reads <- go st.reads
  | `W -> st.writes <- go st.writes

(* Acquire [dur] cycles of DRAM time starting no earlier than [t]; returns
   the completion time. *)
let dram_transfer st t dur =
  if dur <= 0.0 then t
  else begin
    st.dram_busy <- st.dram_busy +. dur;
    let cal, fin = Dram_calendar.acquire st.dram_cal t dur in
    st.dram_cal <- cal;
    fin
  end

let trip_count st trips =
  let x =
    List.fold_left (fun acc t -> acc *. Hw.trip_eval st.sizes t) 1.0 trips
  in
  Float.max 1.0 x

(* One invocation of a leaf, starting at [t]; returns its finish time. *)
let leaf st t (c : Hw.ctrl) =
  st.events <- st.events + 1;
  match c with
  | Hw.Pipe { trips; par; depth; ii; dram; _ } ->
      let iters = trip_count st trips in
      let compute =
        float_of_int depth
        +. (ceil (iters /. float_of_int (Int.max 1 par)) *. float_of_int ii)
      in
      let mem_end =
        List.fold_left
          (fun acc da ->
            let words = Simulate.direct_words st.machine st.sizes da in
            let cyc, words =
              match da.Hw.da_kind with
              | `Cached ->
                  let fp =
                    Float.min (Simulate.cached_footprint st.machine st.sizes da) words
                  in
                  (fp /. st.machine.Machine.stream_words_per_cycle, fp)
              | _ ->
                  (Simulate.direct_cycles st.machine st.sizes par words da, words)
            in
            add st (match da.Hw.da_kind with `Write -> `W | _ -> `R)
              (da.Hw.da_array, words);
            Float.max acc (dram_transfer st t cyc))
          t dram
      in
      Float.max (t +. compute) mem_end
  | Hw.Tile_load { words; reuse; array; _ } ->
      let w =
        Hw.trip_eval st.sizes words /. float_of_int (Int.max 1 reuse)
      in
      add st `R (array, w);
      dram_transfer st t
        (st.machine.Machine.tile_latency
        +. (w /. st.machine.Machine.stream_words_per_cycle))
  | Hw.Tile_store { words; array; _ } ->
      let w = Hw.trip_eval st.sizes words in
      add st `W (array, w);
      dram_transfer st t
        (st.machine.Machine.tile_latency
        +. (w /. st.machine.Machine.stream_words_per_cycle))
  | _ -> t

(* fall back to the analytic engine for an oversized subtree *)
let analytic_fallback st t c =
  st.fallbacks <- st.fallbacks + 1;
  let rep =
    Simulate.run ~machine:st.machine
      { Hw.design_name = "sub"; mems = []; top = c; par_factor = 1 }
      ~sizes:st.sizes
  in
  List.iter (fun rw -> add st `R rw) rep.Simulate.reads;
  List.iter (fun rw -> add st `W rw) rep.Simulate.writes;
  ignore (dram_transfer st t rep.Simulate.dram_cycles);
  t +. rep.Simulate.cycles

(* static count of controller instances a subtree would schedule *)
let rec instance_count st (c : Hw.ctrl) =
  match c with
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ -> 1.0
  | Hw.Seq { children; _ } | Hw.Par { children; _ } ->
      List.fold_left (fun acc ch -> acc +. instance_count st ch) 1.0 children
  | Hw.Loop { trips; stages; _ } ->
      let per_iter =
        List.fold_left (fun acc ch -> acc +. instance_count st ch) 1.0 stages
      in
      1.0 +. (trip_count st trips *. per_iter)

let rec exec st t (c : Hw.ctrl) =
  match c with
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ -> leaf st t c
  | Hw.Seq { children; _ } ->
      List.fold_left (fun now ch -> exec st now ch) t children
  | Hw.Par { children; _ } ->
      (* all start together; the DRAM queue serializes their transfers in
         list order *)
      List.fold_left (fun fin ch -> Float.max fin (exec st t ch)) t children
  | Hw.Loop { name; trips; meta; stages; _ } ->
      if instance_count st c > float_of_int max_events then
        analytic_fallback st t c
      else begin
        let iters = int_of_float (trip_count st trips) in
        if (not meta) || List.length stages <= 1 then begin
          let now = ref t in
          for _ = 1 to iters do
            List.iter (fun s -> now := exec st !now s) stages
          done;
          !now
        end
        else begin
          (* metapipeline: stage s of iteration i waits for stage s-1 of
             iteration i and for its own iteration i-1 (double buffer) *)
          let nstages = List.length stages in
          let avail = Array.make nstages t in
          let finish_last = ref t in
          for i = 1 to iters do
            let prev_done = ref t in
            List.iteri
              (fun s stage ->
                let start = Float.max !prev_done avail.(s) in
                let fin = exec st start stage in
                (* Gantt: one track per metapipeline stage, one span per
                   iteration instance; stage instances never overlap on
                   their own track (avail.(s) serializes them) *)
                push_span st
                  ~track:(name ^ "." ^ Hw.ctrl_name stage)
                  ~name:(Printf.sprintf "%s#%d" (Hw.ctrl_name stage) i)
                  ~start ~finish:fin
                  [ ("iteration", float_of_int i) ];
                avail.(s) <- fin;
                prev_done := fin;
                if s = nstages - 1 then finish_last := fin)
              stages
          done;
          !finish_last
        end
      end

let run ?(machine = Machine.default) ?(record = false) (d : Hw.design) ~sizes =
  let st =
    { machine; sizes; dram_cal = Dram_calendar.empty; dram_busy = 0.0;
      events = 0; fallbacks = 0; reads = Smap.empty; writes = Smap.empty;
      record; spans = [] }
  in
  (* when recording, each top-level controller also gets a span on its
     own track (the same schedule exec applies: Seq chains, Par forks) *)
  let traced_child now ch =
    let fin = exec st now ch in
    push_span st ~track:(Hw.ctrl_name ch) ~name:(Hw.ctrl_name ch) ~start:now
      ~finish:fin
      [ ("top-level", 1.0) ];
    fin
  in
  let fin =
    match d.Hw.top with
    | Hw.Seq { children; _ } when record ->
        List.fold_left traced_child 0.0 children
    | Hw.Par { children; _ } when record ->
        List.fold_left
          (fun fin ch -> Float.max fin (traced_child 0.0 ch))
          0.0 children
    | top -> exec st 0.0 top
  in
  { report =
      { Simulate.cycles = fin;
        dram_cycles = st.dram_busy;
        reads = Smap.bindings st.reads;
        writes = Smap.bindings st.writes };
    events = st.events;
    fallbacks = st.fallbacks;
    coalesced = Dram_calendar.coalesced st.dram_cal;
    timeline =
      (if record then
         Some
           { tl_spans = List.rev st.spans;
             tl_dram_busy = Dram_calendar.spans st.dram_cal;
             tl_makespan = fin }
       else None) }

let track_stats tl =
  let tbl : (string, track_stats) Hashtbl.t = Hashtbl.create 16 in
  let touch track start finish =
    match Hashtbl.find_opt tbl track with
    | Some tk ->
        Hashtbl.replace tbl track
          { tk with
            tk_spans = tk.tk_spans + 1;
            tk_busy = tk.tk_busy +. (finish -. start);
            tk_first = Float.min tk.tk_first start;
            tk_last = Float.max tk.tk_last finish }
    | None ->
        Hashtbl.add tbl track
          { tk_track = track; tk_spans = 1; tk_busy = finish -. start;
            tk_first = start; tk_last = finish }
  in
  List.iter (fun sp -> touch sp.sp_track sp.sp_start sp.sp_finish) tl.tl_spans;
  List.iter (fun (s, e) -> touch "DRAM" s e) tl.tl_dram_busy;
  List.sort
    (fun a b -> String.compare a.tk_track b.tk_track)
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
