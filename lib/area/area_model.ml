type t = { logic : float; ff : float; bram : float; dsp : float }

let zero = { logic = 0.0; ff = 0.0; bram = 0.0; dsp = 0.0 }

let add a b =
  { logic = a.logic +. b.logic;
    ff = a.ff +. b.ff;
    bram = a.bram +. b.bram;
    dsp = a.dsp +. b.dsp }

let scale k a =
  { logic = k *. a.logic; ff = k *. a.ff; bram = k *. a.bram; dsp = k *. a.dsp }

(* ---------------- per-template costs ---------------- *)

let m20k_bits = 20480.0

let bram_blocks ~depth ~width ~banks =
  let bits = float_of_int (depth * width) in
  Float.max (float_of_int banks) (ceil (bits /. m20k_bits))

let mem_cost (m : Hw.mem) =
  let blocks = bram_blocks ~depth:m.Hw.depth ~width:m.Hw.width_bits ~banks:m.Hw.banks in
  let ports = float_of_int (m.Hw.readers + m.Hw.writers) in
  match m.Hw.kind with
  | Hw.Buffer ->
      { logic = 50.0 +. (20.0 *. ports); ff = 40.0; bram = blocks; dsp = 0.0 }
  | Hw.Double_buffer ->
      (* two copies plus the swap control *)
      { logic = 120.0 +. (20.0 *. ports); ff = 90.0; bram = 2.0 *. blocks; dsp = 0.0 }
  | Hw.Cache ->
      (* data + tags + comparators *)
      { logic = 600.0; ff = 500.0; bram = blocks +. 2.0; dsp = 0.0 }
  | Hw.Fifo -> { logic = 250.0; ff = 200.0; bram = blocks; dsp = 0.0 }
  | Hw.Cam ->
      (* associative match logic scales with capacity *)
      { logic = 400.0 +. (2.0 *. float_of_int m.Hw.depth);
        ff = 300.0;
        bram = 2.0 *. blocks;
        dsp = 0.0 }
  | Hw.Reg ->
      { logic = 10.0; ff = float_of_int m.Hw.width_bits; bram = 0.0; dsp = 0.0 }

(* a DRAM command generator + alignment buffers (tile load/store unit, or
   one direct-access stream of the baseline) *)
let load_store_unit =
  (* command generator plus address/data stream buffers (Section 6.2:
     each unit "creates several control structures ... which require
     several on-chip buffers") *)
  { logic = 2200.0; ff = 3500.0; bram = 64.0; dsp = 0.0 }

(* fixed platform infrastructure present in every bitstream: DRAM
   controllers, PCIe/runtime interface (identical in all configurations,
   so it compresses Fig. 7's relative-resource ratios toward 1) *)
let platform_overhead =
  { logic = 25000.0; ff = 50000.0; bram = 300.0; dsp = 0.0 }

let flop_cost = { logic = 380.0; ff = 520.0; bram = 0.0; dsp = 0.5 }
let cmp_cost = { logic = 70.0; ff = 60.0; bram = 0.0; dsp = 0.0 }
let int_cost = { logic = 40.0; ff = 40.0; bram = 0.0; dsp = 0.0 }

let pipe_cost ~template ~par ~depth (ops : Hw.op_counts) =
  let p = float_of_int par in
  let datapath =
    add
      (scale (p *. float_of_int ops.Hw.flops) flop_cost)
      (add
         (scale (p *. float_of_int ops.Hw.cmp_ops) cmp_cost)
         (scale (p *. float_of_int ops.Hw.int_ops) int_cost))
  in
  let pipeline_regs =
    { zero with ff = float_of_int depth *. 32.0 *. p /. 4.0 }
  in
  let template_extra =
    match template with
    | Hw.Tree ->
        (* log-depth combining stages beyond the leaf operators *)
        scale (p -. 1.0) (scale 0.4 flop_cost)
    | Hw.Fifo_write -> { logic = 300.0; ff = 250.0; bram = 0.0; dsp = 0.0 }
    | Hw.Cam_update -> { logic = 350.0; ff = 250.0; bram = 0.0; dsp = 0.0 }
    | Hw.Vector | Hw.Scalar_unit -> zero
  in
  add datapath (add pipeline_regs template_extra)

let ctrl_overhead = { logic = 150.0; ff = 220.0; bram = 0.0; dsp = 0.0 }
let meta_stage_overhead = { logic = 110.0; ff = 160.0; bram = 0.0; dsp = 0.0 }

(* area charged to one controller node, excluding its children (the
   per-node view the attribution profiler aggregates by provenance) *)
let ctrl_cost = function
  | Hw.Seq _ | Hw.Par _ -> ctrl_overhead
  | Hw.Loop { meta; stages; _ } ->
      if meta then
        add ctrl_overhead
          (scale (float_of_int (List.length stages)) meta_stage_overhead)
      else ctrl_overhead
  | Hw.Pipe { template; par; depth; ops; dram; _ } ->
      (* each direct DRAM stream instantiates its own access unit *)
      add
        (pipe_cost ~template ~par ~depth ops)
        (scale (float_of_int (List.length dram)) load_store_unit)
  | Hw.Tile_load _ | Hw.Tile_store _ -> load_store_unit

let of_design (d : Hw.design) =
  let mems =
    List.fold_left (fun acc m -> add acc (mem_cost m)) platform_overhead
      d.Hw.mems
  in
  Hw.fold_ctrls (fun acc c -> add acc (ctrl_cost c)) mems d.Hw.top

let ratio a b =
  let div x y = if y = 0.0 then 1.0 else x /. y in
  { logic = div a.logic b.logic;
    ff = div a.ff b.ff;
    bram = div a.bram b.bram;
    dsp = div a.dsp b.dsp }

(* the evaluation FPGA (Stratix V GS D8-class): ALM-equivalent logic,
   flip-flops, M20K blocks, DSPs *)
let stratix_v =
  { logic = 262400.0; ff = 1049600.0; bram = 2560.0; dsp = 1963.0 }

let utilization t = ratio t stratix_v

let fits t =
  let u = utilization t in
  u.logic <= 1.0 && u.ff <= 1.0 && u.bram <= 1.0 && u.dsp <= 1.0

let pp fmt t =
  Format.fprintf fmt "logic=%.0f ff=%.0f bram=%.0f dsp=%.0f" t.logic t.ff
    t.bram t.dsp

let pp_utilization fmt t =
  let u = utilization t in
  Format.fprintf fmt "logic %.1f%%, FF %.1f%%, mem %.1f%%, DSP %.1f%%"
    (100.0 *. u.logic) (100.0 *. u.ff) (100.0 *. u.bram) (100.0 *. u.dsp)
