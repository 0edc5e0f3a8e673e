(* Cycle / traffic / area attribution by source-pattern provenance.

   The analytic simulator assigns every controller subtree a
   per-invocation result (cycles, DRAM-busy cycles, traffic).  This pass
   distributes the design's total cycles down the controller tree so
   that every node receives the share the composing rules gave it, then
   aggregates shares by the provenance stamped on each node — answering
   "which source pattern do these cycles (and this traffic, and this
   area) belong to?".

   Distribution rules mirror the simulator's composition exactly:
   - Seq / Par / sequential Loop: children split the parent's total in
     proportion to their standalone per-invocation cycles;
   - metapipelined Loop: each stage is weighted by its first-iteration
     cycles plus its share of the steady state — the slowest stage when
     the loop is stage-bound, DRAM-busy-proportional shares when the
     shared channel serializes the stages;
   - leaves keep everything they receive.

   A node's [self] is its total minus what its children received, so
   summing [self] over the tree telescopes back to the root total and
   attribution is complete by construction. *)

type traffic = (string * float) list

type node = {
  name : string;
  kind : string;
  prov : Prov.t;
  total : float;  (** cycles attributed to this subtree, all invocations *)
  self : float;  (** total minus what the children received *)
  invocations : float;
  fill : float;  (** share of [total] spent filling pipelines *)
  steady : float;  (** share in steady-state execution *)
  dram : float;  (** share serialized behind the shared DRAM channel *)
  reads : traffic;  (** words read from DRAM, all invocations *)
  writes : traffic;
  area : Area_model.t;  (** this controller instance, without children *)
  children : node list;
}

type origin_row = {
  origin : string;
  o_cycles : float;  (** summed [self] cycles of controllers so stamped *)
  o_share : float;  (** fraction of the design total *)
  o_traffic : float;  (** DRAM words moved by those controllers *)
  o_area : Area_model.t;  (** controllers plus memories so stamped *)
  o_ctrls : int;
}

type t = {
  design_name : string;
  total_cycles : float;
  dram_cycles : float;
  fill_cycles : float;
  steady_cycles : float;
  dram_serial_cycles : float;
  root : node;
  origins : origin_row list;
  unattributed_area : Area_model.t;  (** platform overhead *)
}

(* ------------------------- attribution ----------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* local scheduling transients of one controller, given the factor [f]
   scaling its per-invocation cycles up to its attributed total *)
let local_split f (a : Simulate.annot) =
  match (a.ctrl, a.steady) with
  | Hw.Pipe { depth; _ }, _ ->
      (f *. float_of_int depth, f *. Float.max 0.0 (a.dram -. a.compute))
  | (Hw.Tile_load _ | Hw.Tile_store _), _ -> (0.0, f *. a.cycles)
  | _, Some s ->
      (* the steady state beyond the slowest stage waits on DRAM *)
      let slowest = (List.nth a.children s.slowest).cycles in
      ( f *. Float.max 0.0 (s.fill -. s.rate),
        f *. (a.iters -. 1.0) *. (s.rate -. slowest) )
  | _ -> (0.0, 0.0)

(* weights by which a controller's total is split among its children;
   they sum to the parent's own per-invocation cycles by construction *)
let child_weights (a : Simulate.annot) =
  match a.steady with
  | Some s ->
      List.mapi
        (fun i (k : Simulate.annot) ->
          let steady_share =
            if s.stage_bound then if i = s.slowest then s.rate else 0.0
            else if s.dram_sum > 0.0 then s.rate *. k.dram /. s.dram_sum
            else 0.0
          in
          k.cycles +. ((a.iters -. 1.0) *. steady_share))
        a.children
  | None -> List.map (fun (k : Simulate.annot) -> k.cycles) a.children

let scale_traffic k t =
  List.map (fun (a, w) -> (a, k *. w)) (Simulate.traffic t)

let of_design ?cache (d : Hw.design) ~sizes =
  let fill_acc = ref 0.0 and dram_acc = ref 0.0 in
  let rec build (a : Simulate.annot) ~total ~invocations =
    let f = if a.cycles > 0.0 then total /. a.cycles else 0.0 in
    let fill, dram = local_split f a in
    fill_acc := !fill_acc +. fill;
    dram_acc := !dram_acc +. dram;
    let weights = child_weights a in
    let wsum = List.fold_left ( +. ) 0.0 weights in
    let children =
      List.map2
        (fun k w ->
          let share = if wsum > 0.0 then total *. w /. wsum else 0.0 in
          build k ~total:share ~invocations:(invocations *. a.iters))
        a.children weights
    in
    let self = total -. sum (fun n -> n.total) children in
    { name = Hw.ctrl_name a.ctrl;
      kind = Simulate.kind_of a.ctrl;
      prov = Hw.ctrl_prov a.ctrl;
      total;
      self;
      invocations;
      fill;
      steady = Float.max 0.0 (total -. fill -. dram);
      dram;
      reads = scale_traffic invocations a.reads;
      writes = scale_traffic invocations a.writes;
      area = Area_model.ctrl_cost a.ctrl;
      children }
  in
  let top = Simulate.annotate ?cache d ~sizes in
  let root = build top ~total:top.cycles ~invocations:1.0 in
  (* by-origin aggregation *)
  let tbl = Hashtbl.create 16 in
  let add prov f =
    let origin =
      match Prov.frames prov with o :: _ -> o | [] -> "<unattributed>"
    in
    let prev =
      match Hashtbl.find_opt tbl origin with
      | Some row -> row
      | None ->
          { origin; o_cycles = 0.0; o_share = 0.0; o_traffic = 0.0;
            o_area = Area_model.zero; o_ctrls = 0 }
    in
    Hashtbl.replace tbl origin (f prev)
  in
  let rec visit n =
    let words =
      (* leaves own the traffic; interior nodes would double-count it *)
      if n.children = [] then
        sum snd n.reads +. sum snd n.writes
      else 0.0
    in
    add n.prov (fun prev ->
        { prev with
          o_cycles = prev.o_cycles +. n.self;
          o_traffic = prev.o_traffic +. words;
          o_area = Area_model.add prev.o_area n.area;
          o_ctrls = prev.o_ctrls + 1 });
    List.iter visit n.children
  in
  visit root;
  (* memories join the rows of the pattern they serve *)
  List.iter
    (fun m ->
      add m.Hw.mem_prov (fun prev ->
          { prev with o_area = Area_model.add prev.o_area (Area_model.mem_cost m) }))
    d.Hw.mems;
  let total = root.total in
  let origins =
    Hashtbl.fold (fun _ row acc -> row :: acc) tbl []
    |> List.map (fun row ->
           { row with
             o_share = (if total > 0.0 then row.o_cycles /. total else 0.0) })
    |> List.sort (fun a b ->
           match compare b.o_cycles a.o_cycles with
           | 0 -> String.compare a.origin b.origin
           | n -> n)
  in
  let fill = Float.min !fill_acc total in
  let dram = Float.min !dram_acc (total -. fill) in
  { design_name = d.Hw.design_name;
    total_cycles = total;
    dram_cycles = top.dram;
    fill_cycles = fill;
    steady_cycles = Float.max 0.0 (total -. fill -. dram);
    dram_serial_cycles = dram;
    root;
    origins;
    unattributed_area = Area_model.platform_overhead }

let total_cycles t = t.total_cycles

let top_sinks t k =
  List.filteri (fun i _ -> i < k) (List.filter (fun r -> r.o_cycles > 0.0) t.origins)

let fold_nodes f acc t =
  let rec go acc n = List.fold_left go (f acc n) n.children in
  go acc t.root

(* Both report buffers start just under 2 KB, small enough for OCaml to
   allocate them on the minor heap (at most 256 words).  At the suite's
   simulation sizes that holds 34 of the 36 text reports (the largest is
   2,231 bytes) but only 10 of the 36 JSON reports (the largest is 4,491
   bytes); the others grow by doubling, once or twice.  A JSON buffer
   started at 4.5 KB measured no faster: a larger start is a major-heap
   allocation at every call, and major-heap allocation sets how much work
   each major collection slice does. *)
let initial_bytes = 2000

(* ------------------------- text backend ---------------------------- *)

(* [n] spaces, as substrings of one constant run of them *)
let blanks = String.make 64 ' '

let rec add_blanks b n =
  if n > 0 then begin
    let k = Int.min n (String.length blanks) in
    Buffer.add_substring b blanks 0 k;
    add_blanks b (n - k)
  end

(* The report is appended to one buffer and handed to the formatter in a
   single write.  Columns are padded by hand: [left w] is printf's [%-ws]
   and [col w] its [" %ws"]; [cycles] is [%.0f]. *)
let pp_text fmt t =
  let b = Buffer.create initial_bytes in
  let str = Buffer.add_string b in
  let pad = add_blanks b in
  let left w s =
    str s;
    pad (w - String.length s)
  in
  let num = Buffer.create 32 in
  let col w add x =
    Buffer.clear num;
    add num x;
    pad (1 + w - Buffer.length num);
    Buffer.add_buffer b num
  in
  let cycles = Json_out.add_float ~prec:0 in
  str "profile: ";
  str t.design_name;
  str "  total ";
  cycles b t.total_cycles;
  str " cycles (dram-busy ";
  cycles b t.dram_cycles;
  str ")\n  fill ";
  cycles b t.fill_cycles;
  str "  steady ";
  cycles b t.steady_cycles;
  str "  dram-serialized ";
  cycles b t.dram_serial_cycles;
  str "\n\n";
  left 28 "source pattern";
  str "       cycles   share     dram words  area(alm)    ctrls\n";
  List.iter
    (fun r ->
      left 28 r.origin;
      col 12 cycles r.o_cycles;
      col 6 (Json_out.add_fixed ~prec:1) (100.0 *. r.o_share);
      str "%";
      col 14 cycles r.o_traffic;
      col 10 cycles r.o_area.Area_model.logic;
      col 8 Json_out.add_int r.o_ctrls;
      str "\n")
    t.origins;
  str "\n";
  left 44 "controller";
  str "        total         self     invocs  provenance\n";
  let rec tree depth n =
    pad (2 * depth);
    left (Int.max 1 (44 - (2 * depth))) n.name;
    col 12 cycles n.total;
    col 12 cycles n.self;
    col 10 cycles n.invocations;
    str "  ";
    Prov.add_text Buffer.add_string b n.prov;
    str "\n";
    List.iter (tree (depth + 1)) n.children
  in
  tree 0 t.root;
  Format.pp_print_string fmt (Buffer.contents b);
  Format.pp_print_flush fmt ()

(* ------------------------- json backend ---------------------------- *)

(* fraction digits of report floats; integral ones print without any *)
let prec = 6

(* [key] is the field's literal text, separator and quoted key *)
let add_num b key v =
  Buffer.add_string b key;
  Json_out.add_float ~prec b v

let add_area b (a : Area_model.t) =
  add_num b "{\"logic\": " a.logic;
  add_num b ", \"ff\": " a.ff;
  add_num b ", \"bram\": " a.bram;
  add_num b ", \"dsp\": " a.dsp;
  Buffer.add_char b '}'

(* the whole report in one pass over one buffer *)
let to_json t =
  let b = Buffer.create initial_bytes in
  let str = Buffer.add_string b in
  let num = add_num b in
  let rec node n =
    str "{\"name\": ";
    Json_out.add_string b n.name;
    str ", \"kind\": ";
    Json_out.add_string b n.kind;
    str ", \"prov\": \"";
    Prov.add_text Json_out.add_string_body b n.prov;
    str "\"";
    num ", \"total\": " n.total;
    num ", \"self\": " n.self;
    num ", \"invocations\": " n.invocations;
    num ", \"fill\": " n.fill;
    num ", \"steady\": " n.steady;
    num ", \"dram\": " n.dram;
    str ", \"reads\": ";
    Json_out.add_float_object ~prec b n.reads;
    str ", \"writes\": ";
    Json_out.add_float_object ~prec b n.writes;
    str ", \"area\": ";
    add_area b n.area;
    str ", \"children\": [";
    Json_out.add_list b (fun _ -> node) n.children;
    str "]}"
  in
  str "{\"design\": ";
  Json_out.add_string b t.design_name;
  num ", \"total_cycles\": " t.total_cycles;
  num ", \"dram_cycles\": " t.dram_cycles;
  num ", \"fill_cycles\": " t.fill_cycles;
  num ", \"steady_cycles\": " t.steady_cycles;
  num ", \"dram_serial_cycles\": " t.dram_serial_cycles;
  str ", \"origins\": [";
  Json_out.add_list b
    (fun b r ->
      str "{\"origin\": ";
      Json_out.add_string b r.origin;
      num ", \"cycles\": " r.o_cycles;
      num ", \"share\": " r.o_share;
      num ", \"traffic_words\": " r.o_traffic;
      str ", \"area\": ";
      add_area b r.o_area;
      str ", \"controllers\": ";
      Json_out.add_int b r.o_ctrls;
      str "}")
    t.origins;
  str "], \"tree\": ";
  node t.root;
  str "}";
  Buffer.contents b

(* ---------------------- folded-stack backend ------------------------ *)

(* One line per provenance trail: `frame;frame;... <integer weight>`,
   weight = the trail's self cycles.  Identical trails merge; lines sort
   lexicographically, so output is byte-deterministic for a design. *)
let to_folded t =
  let tbl = Hashtbl.create 64 in
  ignore
    (fold_nodes
       (fun () n ->
         let w = int_of_float (Float.round n.self) in
         if w > 0 then begin
           let key = Prov.folded n.prov in
           let prev =
             match Hashtbl.find_opt tbl key with Some v -> v | None -> 0
           in
           Hashtbl.replace tbl key (prev + w)
         end)
       () t);
  let lines =
    Hashtbl.fold
      (fun k w acc -> (k ^ " " ^ string_of_int w) :: acc)
      tbl []
  in
  String.concat "\n"
    (List.sort String.compare lines)
  ^ if lines = [] then "" else "\n"
