type traffic = (string * float) list

type report = {
  cycles : float;
  dram_cycles : float;
  reads : traffic;
  writes : traffic;
}

(* Traffic accumulates into a map keyed by array name: the assoc-list
   version walked the whole list per arrival (O(n^2) across a sweep).
   Per-key sums add in the same left-to-right order as before, so the
   floats are unchanged. *)
module Smap = Map.Make (String)

let add_words t arr words =
  Smap.update arr
    (function None -> Some words | Some w -> Some (w +. words))
    t

let merge_traffic a b = Smap.union (fun _ x y -> Some (x +. y)) a b
let scale_traffic f t = Smap.map (fun w -> f *. w) t

(* Direct-access traffic: outermost-in, dependent loops multiply; an
   independent loop multiplies only when the footprint beneath it exceeds
   the stream cache. *)
let direct_words (m : Machine.t) sizes (da : Hw.dram_access) =
  let rec go = function
    | [] -> 1.0
    | (trip, dep) :: rest ->
        let inner = go rest in
        let t = Hw.trip_eval sizes trip in
        if dep then t *. inner
        else if
          inner *. float_of_int m.Machine.word_bytes
          > float_of_int m.Machine.stream_cache_bytes
        then t *. inner
        else inner
  in
  go da.Hw.da_path

(* [group] is the pipe's parallelism factor, already at least 1 *)
let direct_cycles (m : Machine.t) sizes group words (da : Hw.dram_access) =
  let transfer = words /. m.Machine.stream_words_per_cycle in
  let requests =
    if not da.Hw.da_affine then
      (* data-dependent: one request per vector group of *iterations* —
         the address changes unpredictably every cycle *)
      let iters =
        List.fold_left
          (fun acc (t, _) -> acc *. Hw.trip_eval sizes t)
          1.0 da.Hw.da_path
      in
      iters /. group *. m.Machine.nonaffine_access_cost
    else if not da.Hw.da_contiguous then
      words /. group *. m.Machine.noncontig_group_cost
    else
      let row = Float.max 1.0 (Hw.trip_eval sizes da.Hw.da_row_words) in
      if row >= float_of_int m.Machine.burst_words then
        (* long sequential run: prefetch-friendly *)
        words /. float_of_int m.Machine.burst_words *. m.Machine.long_burst_cost
      else words /. row *. m.Machine.short_row_cost
  in
  Float.max transfer requests

(* compulsory words for a cache-served access: a cache captures the reuse,
   so only the dependent extents are fetched *)
let cached_footprint sizes (da : Hw.dram_access) =
  let rec go = function
    | [] -> 1.0
    | (trip, dep) :: rest ->
        let inner = go rest in
        if dep then Hw.trip_eval sizes trip *. inner else inner
  in
  go da.Hw.da_path

let trip_product sizes trips =
  List.fold_left (fun acc t -> acc *. Hw.trip_eval sizes t) 1.0 trips

(* ------------------------- leaf costs ------------------------------ *)

type xfer = { array : string; write : bool; words : float; cycles : float }

(* one invocation of a pipe or tile unit: its compute cycles and its
   transfers *)
let leaf (m : Machine.t) sizes (c : Hw.ctrl) =
  let tile ~write array words =
    ( 0.0,
      [ { array; write; words;
          cycles =
            m.Machine.tile_latency +. (words /. m.Machine.stream_words_per_cycle)
        } ] )
  in
  match c with
  | Hw.Pipe { trips; par; depth; ii; dram; _ } ->
      let group = float_of_int par in
      let xfer (da : Hw.dram_access) =
        let words = direct_words m sizes da in
        match da.Hw.da_kind with
        | `Cached ->
            let fp = Float.min (cached_footprint sizes da) words in
            { array = da.Hw.da_array; write = false; words = fp;
              cycles = fp /. m.Machine.stream_words_per_cycle }
        | (`Read | `Write) as k ->
            { array = da.Hw.da_array; write = k = `Write; words;
              cycles = direct_cycles m sizes group words da }
      in
      ( float_of_int depth
        +. (ceil (trip_product sizes trips /. group) *. float_of_int ii),
        List.map xfer dram )
  | Hw.Tile_load { words; reuse; array; _ } ->
      tile ~write:false array
        (Hw.trip_eval sizes words /. float_of_int reuse)
  | Hw.Tile_store { words; array; _ } ->
      tile ~write:true array (Hw.trip_eval sizes words)
  | Hw.Seq _ | Hw.Par _ | Hw.Loop _ -> invalid_arg "Simulate.leaf"

(* ------------------------- annotation ------------------------------ *)

type words = float Smap.t

type steady = {
  slowest : int;
  fill : float;
  dram_sum : float;
  rate : float;
  stage_bound : bool;
}

type annot = {
  ctrl : Hw.ctrl;
  cycles : float;
  dram : float;
  reads : words;
  writes : words;
  iters : float;
  compute : float;
  xfers : xfer list;
  steady : steady option;
  children : annot list;
}

let traffic = Smap.bindings
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let merged f l =
  List.fold_left (fun acc a -> merge_traffic acc (f a)) Smap.empty l

(* the first stage with the most cycles: its index and its cycles *)
let first_slowest first rest =
  let rec go i ((_, best) as slowest) = function
    | [] -> slowest
    | s :: rest ->
        go (i + 1) (if s.cycles > best then (i, s.cycles) else slowest) rest
  in
  go 1 (0, first.cycles) rest

let rec annotate_ctrl (m : Machine.t) sizes (c : Hw.ctrl) =
  match c with
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ ->
      let compute, xfers = leaf m sizes c in
      let dram, reads, writes =
        List.fold_left
          (fun (dram, reads, writes) x ->
            if x.write then
              (dram +. x.cycles, reads, add_words writes x.array x.words)
            else (dram +. x.cycles, add_words reads x.array x.words, writes))
          (0.0, Smap.empty, Smap.empty) xfers
      in
      { ctrl = c; cycles = Float.max compute dram; dram; reads; writes;
        iters = 1.0; compute; xfers; steady = None; children = [] }
  | Hw.Seq { children; _ } | Hw.Par { children; _ }
  | Hw.Loop { stages = children; _ } ->
      let kids = List.map (annotate_ctrl m sizes) children in
      let per_iter = sum (fun a -> a.cycles) kids in
      let dram = sum (fun a -> a.dram) kids in
      let cycles, iters, steady =
        match c with
        | Hw.Loop { trips; meta; _ } -> (
            let iters = Float.max (trip_product sizes trips) 1.0 in
            match kids with
            | first :: (_ :: _ as rest) when meta ->
                (* fill once, then the steady-state bottleneck per iteration:
                   the slowest stage, but at least the DRAM serialization *)
                let slowest, slow = first_slowest first rest in
                let rate = Float.max slow dram in
                ( per_iter +. ((iters -. 1.0) *. rate),
                  iters,
                  Some
                    { slowest; fill = per_iter; dram_sum = dram; rate;
                      stage_bound = slow >= dram } )
            | _ -> (iters *. per_iter, iters, None))
        | Hw.Par _ ->
            let slowest =
              List.fold_left (fun acc a -> Float.max acc a.cycles) 0.0 kids
            in
            (Float.max slowest dram, 1.0, None)
        | _ -> (per_iter, 1.0, None)
      in
      (* scaling by one iteration is exact: skip the copy *)
      let scale t = if iters = 1.0 then t else scale_traffic iters t in
      { ctrl = c; cycles; dram = iters *. dram;
        reads = scale (merged (fun a -> a.reads) kids);
        writes = scale (merged (fun a -> a.writes) kids);
        iters; compute = 0.0; xfers = []; steady; children = kids }

(* ------------------------- one-slot cache -------------------------- *)

type cache = {
  mutable last : (Machine.t * (Sym.t * int) list * Hw.design * annot) option;
  mutable hits : int;
  mutable misses : int;
}

type cache_stats = { hits : int; misses : int }

let cache () = { last = None; hits = 0; misses = 0 }
let cache_stats (c : cache) = { hits = c.hits; misses = c.misses }

let annotate ?(machine = Machine.default) ?cache (d : Hw.design) ~sizes =
  match cache with
  | None -> annotate_ctrl machine sizes d.Hw.top
  | Some c -> (
      match c.last with
      | Some (m, s, d', a) when d' == d && m = machine && s = sizes ->
          c.hits <- c.hits + 1;
          a
      | _ ->
          let a = annotate_ctrl machine sizes d.Hw.top in
          c.last <- Some (machine, sizes, d, a);
          c.misses <- c.misses + 1;
          a)

let run ?machine ?cache d ~sizes =
  let a = annotate ?machine ?cache d ~sizes in
  { cycles = a.cycles; dram_cycles = a.dram; reads = traffic a.reads;
    writes = traffic a.writes }

(* ------------------------- breakdown ------------------------------- *)

type breakdown_row = {
  br_name : string;
  br_depth : int;
  br_kind : string;
  br_cycles : float;
  br_invocations : float;
}

let kind_of = function
  | Hw.Seq _ -> "sequential"
  | Hw.Par _ -> "parallel"
  | Hw.Loop { meta = true; _ } -> "metapipeline"
  | Hw.Loop _ -> "loop"
  | Hw.Pipe { template; _ } -> (
      match template with
      | Hw.Vector -> "pipe/vector"
      | Hw.Tree -> "pipe/tree"
      | Hw.Fifo_write -> "pipe/fifo"
      | Hw.Cam_update -> "pipe/cam"
      | Hw.Scalar_unit -> "pipe/scalar")
  | Hw.Tile_load _ -> "tile-load"
  | Hw.Tile_store _ -> "tile-store"

let breakdown ?cache d ~sizes =
  let rec go depth invocations rows a =
    let rows =
      { br_name = Hw.ctrl_name a.ctrl; br_depth = depth; br_kind = kind_of a.ctrl;
        br_cycles = a.cycles; br_invocations = invocations }
      :: rows
    in
    List.fold_left (go (depth + 1) (invocations *. a.iters)) rows a.children
  in
  List.rev (go 0 1.0 [] (annotate ?cache d ~sizes))

let pp_breakdown fmt rows =
  Format.fprintf fmt "%-34s %-14s %14s %12s@." "controller" "kind"
    "cycles/invoc" "invocations";
  List.iter
    (fun r ->
      Format.fprintf fmt "%s%-*s %-14s %14.0f %12.0f@."
        (String.make (2 * r.br_depth) ' ')
        (34 - (2 * r.br_depth))
        r.br_name r.br_kind r.br_cycles r.br_invocations)
    rows

(* ------------------------- bottlenecks ----------------------------- *)

type bottleneck_row = {
  bn_loop : string;
  bn_iters : float;
  bn_stage : string;
  bn_stage_cycles : float;
  bn_dram_sum : float;
  bn_bound : [ `Stage | `Dram ];
  bn_frac : float;
}

let bottlenecks ?cache d ~sizes =
  let rec go rows a =
    let rows =
      match a.steady with
      | Some s ->
          let slow = List.nth a.children s.slowest in
          { bn_loop = Hw.ctrl_name a.ctrl; bn_iters = a.iters;
            bn_stage = Hw.ctrl_name slow.ctrl; bn_stage_cycles = slow.cycles;
            bn_dram_sum = s.dram_sum;
            bn_bound = (if s.stage_bound then `Stage else `Dram);
            bn_frac = (if s.rate > 0.0 then slow.cycles /. s.rate else 1.0) }
          :: rows
      | None -> rows
    in
    List.fold_left go rows a.children
  in
  List.rev (go [] (annotate ?cache d ~sizes))

let pp_bottlenecks fmt rows =
  Format.fprintf fmt "%-22s %10s  %-28s %12s %12s  %s@." "metapipeline" "iters"
    "slowest stage" "stage cyc" "dram sum" "steady-state bound";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %10.0f  %-28s %12.0f %12.0f  %s@." r.bn_loop
        r.bn_iters r.bn_stage r.bn_stage_cycles r.bn_dram_sum
        (match r.bn_bound with
        | `Stage ->
            Printf.sprintf "compute (stage is %.0f%% of steady state)"
              (100.0 *. r.bn_frac)
        | `Dram -> "DRAM serialization"))
    rows

let read_words (r : report) arr =
  match List.assoc_opt arr r.reads with Some w -> w | None -> 0.0

let written_words (r : report) arr =
  match List.assoc_opt arr r.writes with Some w -> w | None -> 0.0

let total_read (r : report) = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 r.reads
let total_written (r : report) = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 r.writes

let pp_report fmt (r : report) =
  Format.fprintf fmt "cycles: %.0f (dram-busy %.0f)@." r.cycles r.dram_cycles;
  List.iter
    (fun (a, w) -> Format.fprintf fmt "  read  %-16s %12.0f words@." a w)
    r.reads;
  List.iter
    (fun (a, w) -> Format.fprintf fmt "  write %-16s %12.0f words@." a w)
    r.writes
