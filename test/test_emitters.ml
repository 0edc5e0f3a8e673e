(* Emitters: the MaxJ-like kernels and DOT diagrams carry the expected
   template vocabulary and structure per benchmark. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let design name = Experiments.design_of Experiments.Tiled_meta
    (Suite.find (Suite.all ()) name)

let check_all kernel needles =
  List.iter
    (fun n ->
      if not (contains kernel n) then
        Alcotest.failf "kernel missing %S" n)
    needles

let test_maxj_gemm () =
  let k = Maxj.emit (design "gemm") in
  check_all k
    [ "class GemmKernel extends Kernel";
      "control.metapipeline";
      "mem.tileLoad(\"x\"";
      "mem.tileLoad(\"y\"";
      "mem.tileStore(\"result\"";
      "compute.reductionTree";
      "// dataflow:";
      "mem.allocDouble" ]

let test_maxj_tpchq6 () =
  let k = Maxj.emit (design "tpchq6") in
  check_all k
    [ "compute.parallelFIFO"; "mem.allocFIFO"; "mem.tileLoad(\"shipdate\"" ]

let test_maxj_gda_cache () =
  let k = Maxj.emit (design "gda") in
  check_all k [ "mem.allocCache"; "CACHED_READ" ]

let test_maxj_baseline_streams () =
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let k = Maxj.emit (Experiments.design_of Experiments.Baseline bench) in
  check_all k [ ".dramStream(\"points\""; ".dramStream(\"centroids\"" ];
  Alcotest.(check bool) "no tile loads in baseline" false
    (contains k "mem.tileLoad")

let test_maxj_dataflow_expression () =
  (* the gemm pipe's dataflow comment shows the multiply-accumulate *)
  let k = Maxj.emit (design "gemm") in
  Alcotest.(check bool) "mac visible" true
    (contains k "xTile" && contains k "yTile" && contains k "* yTile"
    || contains k "* (yTile")

let test_dot_structure () =
  let d = Dot.emit (design "kmeans") in
  check_all d
    [ "digraph kmeans";
      "metapipeline";
      "cylinder";  (* DRAM nodes *)
      "double-buffer";
      "-> " ]

let test_dot_parallel_cluster () =
  let d = Dot.emit (design "kmeans") in
  Alcotest.(check bool) "parallel cluster" true (contains d "(parallel)")

let test_hwpp_lists_all_memories () =
  let dsg = design "kmeans" in
  let s = Hw_pp.design_to_string dsg in
  List.iter
    (fun m ->
      if not (contains s m.Hw.mem_name) then
        Alcotest.failf "missing memory %s" m.Hw.mem_name)
    dsg.Hw.mems

(* ---------------------- trip and constant text --------------------- *)

let trip_text t =
  let b = Buffer.create 16 in
  Hw.add_trip b t;
  Buffer.contents b

(* the integral/fractional edges of [%.0f] and [%g]: the signed zero, the
   last integer below 1e15, 1e15 itself, values past the range of an
   [int], nan and the infinities *)
let edge_floats =
  [ 0.0; -0.0; 1.0; -7.0; 42.0; 65536.0; 0.5; 2.75; 1.0 /. 3.0; -0.1; 1e-7;
    123456.5; 1234567.0; 999999999999999.0; -999999999999999.0; 1e15;
    -1e15; 1e15 +. 2.0; 2.5e20; 1e20; -1e20; 1e300; Float.nan;
    Float.infinity; Float.neg_infinity ]

let n_sym = Sym.fresh "n"
let m_sym = Sym.fresh "m"

let trip_gen =
  QCheck.Gen.(
    let const = frequency [ (3, oneofl edge_floats); (1, float);
                            (1, map float_of_int (int_range (-100_000) 100_000));
                            (1, float_range (-1e6) 1e6) ] in
    let int = oneof [ int_range 1 1024; int_range (-5) 5 ] in
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun c -> Hw.Tconst c) const;
                 map (fun s -> Hw.Tsize s) (oneofl [ n_sym; m_sym ]) ]
           in
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map2 (fun t b -> Hw.Tceil_div (t, b)) (self (n - 1)) int);
                 ( 1,
                   map2
                     (fun total tile -> Hw.Tavg_tail { total; tile })
                     (self (n - 1)) int );
                 (1, map2 (fun a b -> Hw.Tmul (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun f t -> Hw.Tscale (f, t)) const (self (n - 1))) ]))

let reference t = Format.asprintf "%a" Ref_pp_trip.pp_trip t

let prop_trip_text =
  QCheck.Test.make ~name:"add_trip = Format reference" ~count:2000
    (QCheck.make ~print:reference trip_gen)
    (fun t -> trip_text t = reference t)

(* every edge constant as a constant, as a scale factor and inside each
   compound form *)
let test_trip_edges () =
  let n = Hw.Tsize n_sym in
  List.iter
    (fun c ->
      List.iter
        (fun t ->
          Alcotest.(check string) (reference t) (reference t) (trip_text t))
        [ Hw.Tconst c; Hw.Tscale (c, n);
          Hw.Tmul (Hw.Tceil_div (Hw.Tconst c, 8), Hw.Tscale (c, Hw.Tconst c));
          Hw.Tavg_tail { total = Hw.Tmul (n, Hw.Tconst c); tile = 3 } ])
    edge_floats

(* A hand-built design whose dataflow comments hold the edge constants
   and every Java form, and whose trips hold the edge trip constants.
   Its three texts were taken from the Format/Printf emitters; [{n}]
   stands for the symbol's printed name. *)
let edge_design () =
  let open Ir in
  let ops = { Hw.flops = 2; int_ops = 1; cmp_ops = 1; mem_reads = 1; mem_writes = 1 } in
  let pipe name template trips body =
    Hw.Pipe
      { name; trips; template; par = 16; depth = 3; ii = 1; ops; body;
        dram = []; uses = [ "buf" ]; defines = [ "acc" ]; prov = Prov.none }
  in
  let consts =
    Prim (Add, [ Cf 0.1; Prim (Mul, [ Cf 1e-7; Prim (Sub, [ Cf 2.5e20; Cf (-0.0) ]) ]) ])
  in
  let forms =
    Tup
      [ If (Prim (Lt, [ Cf 1.5; Ci (-3) ]), Prim (Min, [ Cf 1e300; Cf 123456789.0 ]),
            Prim (Sqrt, [ Cf 0.3 ]));
        Proj (Read (Var n_sym, [ Ci 0; Prim (Mod, [ Var n_sym; Ci 2 ]) ]), 1);
        Let (n_sym, Cb true,
             Prim (Neg, [ Prim (Exp, [ Prim (Max, [ Cf 1.0; Cf 2.0 ]) ]) ]));
        Prim (Eq, [ Cf Float.nan; Prim (Add, [ Cf Float.infinity ]) ]) ]
  in
  let mem mem_name kind depth =
    { Hw.mem_name; kind; width_bits = 32; depth; banks = 16; readers = 1;
      writers = 1; mem_prov = Prov.none }
  in
  { Hw.design_name = "edges";
    par_factor = 16;
    mems = [ mem "buf" Hw.Buffer 1024; mem "acc" Hw.Reg 1; mem "q" Hw.Fifo 64 ];
    top =
      Hw.Seq
        { name = "top";
          prov = Prov.none;
          children =
            [ Hw.Tile_load
                { name = "load"; mem = "buf"; array = "x"; words = Hw.Tconst 1e20;
                  path = []; reuse = 2; prov = Prov.none };
              Hw.Loop
                { name = "loop";
                  trips =
                    [ Hw.Tconst 0.1; Hw.Tscale (0.05, Hw.Tsize n_sym);
                      Hw.Tconst (-0.0); Hw.Tconst 999999999999999.0;
                      Hw.Tconst 1e15 ];
                  meta = true;
                  prov = Prov.none;
                  stages =
                    [ pipe "p1" Hw.Vector
                        [ Hw.Tceil_div (Hw.Tsize n_sym, 8);
                          Hw.Tavg_tail
                            { total = Hw.Tmul (Hw.Tsize n_sym, Hw.Tconst 2.5);
                              tile = 4 } ]
                        (Some consts);
                      pipe "p2" Hw.Tree
                        [ Hw.Tconst Float.nan; Hw.Tconst Float.infinity;
                          Hw.Tconst Float.neg_infinity ]
                        (Some forms) ] };
              Hw.Par
                { name = "par";
                  prov = Prov.none;
                  children =
                    [ Hw.Tile_store
                        { name = "store"; mem = None; array = "y";
                          words = Hw.Tconst 1e-7; path = []; prov = Prov.none }
                    ] } ] } }

let pinned_maxj =
  {|// Generated by ppl-fpga; MaxJ-like HGL
class EdgesKernel extends Kernel {
  EdgesKernel(KernelParameters params) {
    super(params); // par_factor = 16

    // -- on-chip memories (Table 4) --
    Memory buf = mem.alloc(dfeFloat(8, 32), /*depth*/ 1024, /*banks*/ 16); // R:1 W:1
    Memory acc = dfe.reg(dfeFloat(8, 32), /*depth*/ 1, /*banks*/ 16); // R:1 W:1
    Memory q = mem.allocFIFO(dfeFloat(8, 32), /*depth*/ 64, /*banks*/ 16); // R:1 W:1

    // -- controller hierarchy --
    SequentialController top = control.sequential(() -> {
      TileMemoryCommand load = mem.tileLoad("x", buf, /*words*/ 100000000000000000000, /*reuse*/ 2);
      Metapipeline loop = control.metapipeline({0.1, 0.05*{n}, -0, 999999999999999, 1000000000000000}, () -> {
        VectorUnit p1 = compute.vectorUnit({ceil({n}/8), avg({n}*2.5@4)})
            // dataflow: (constant.var(0.1) + (constant.var(1e-07) * (constant.var(2.5e+20) - constant.var(-0))))
            .parallelism(16).depth(3).ii(1)
            .ops(/*fp*/ 2, /*cmp*/ 1, /*int*/ 1)
            .reads(buf)
            .writes(acc)
            ;
        ReductionTree p2 = compute.reductionTree({nan, inf, -inf})
            // dataflow: {((constant.var(1.5) < -3) ? KernelMath.min(constant.var(1e+300), constant.var(1.23457e+08)) : KernelMath.sqrt(constant.var(0.3))), {n}.read(0, mod(..., ...))[1], let {n} = true in neg(KernelMath.exp(...)), (constant.var(nan) === op(constant.var(inf)))}
            .parallelism(16).depth(3).ii(1)
            .ops(/*fp*/ 2, /*cmp*/ 1, /*int*/ 1)
            .reads(buf)
            .writes(acc)
            ;
      });
      ParallelController par = control.parallel(() -> {
        TileMemoryCommand store = mem.tileStore("y", STREAM, /*words*/ 1e-07);
      });
    });
  }
}
|}

let pinned_hw =
  {|design edges (par=16)
memories:
  buf                      buffer         1024 x 32b banks=16 R=1 W=1
  acc                      reg               1 x 32b banks=16 R=1 W=1
  q                        fifo             64 x 32b banks=16 R=1 W=1
controllers:
  Sequential top
    TileLoad load buf <- dram:x words=100000000000000000000 reuse=2
    Metapipeline loop (0.1, 0.05*{n}, -0, 999999999999999, 1000000000000000)
      Pipe p1 [vector] (ceil({n}/8), avg({n}*2.5@4)) par=16 depth=3 ii=1 flops=2 cmps=1
        reads: buf
        writes: acc
      Pipe p2 [reduce-tree] (nan, inf, -inf) par=16 depth=3 ii=1 flops=2 cmps=1
        reads: buf
        writes: acc
    Parallel par
      TileStore store (stream) -> dram:y words=1e-07
|}

let pinned_dot =
  {|digraph edges {
  rankdir=TB; node [fontname="Helvetica", fontsize=10];
  "buf" [shape=box3d, style=filled, fillcolor=lightyellow, label="buf\nbuffer 1024x32b"];
  "acc" [shape=box3d, style=filled, fillcolor=white, label="acc\nreg 1x32b"];
  "q" [shape=box3d, style=filled, fillcolor=lightcyan, label="q\nfifo 64x32b"];
  subgraph cluster_1 {
    label="top (sequential)"; style=dashed;
    "load" [shape=cds, style=filled, fillcolor=lightblue, label="load"];
    "dram_x" [shape=cylinder, label="DRAM x"];
    "dram_x" -> "load" -> "buf";
    subgraph cluster_2 {
      label="loop (metapipeline, trips=0.1x0.05*{n}x-0x999999999999999x1000000000000000)"; style=bold; color=blue;
      "p1" [shape=component, label="p1\n[vector]"];
      "buf" -> "p1";
      "p1" -> "acc";
      "p2" [shape=component, label="p2\n[reduce-tree]"];
      "buf" -> "p2";
      "p2" -> "acc";
    }
    subgraph cluster_3 {
      label="par (parallel)"; style=dashed;
      "store" [shape=cds, style=filled, fillcolor=lightpink, label="store"];
      "dram_y" [shape=cylinder, label="DRAM y"];
      "store" -> "dram_y";
    }
  }
}
|}

(* [s] with every [{n}] replaced by the symbol's printed name *)
let expand s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + 3 <= String.length s && String.sub s !i 3 = "{n}" then begin
      Buffer.add_string b (Sym.name n_sym);
      i := !i + 3
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_edge_design_texts () =
  let d = edge_design () in
  List.iter
    (fun (what, emit, expected) ->
      Alcotest.(check string) what (expand expected) (emit d))
    [ ("maxj", Maxj.emit, pinned_maxj);
      ("hw", Hw_pp.design_to_string, pinned_hw);
      ("dot", Dot.emit, pinned_dot) ]

let () =
  Alcotest.run "emitters"
    [ ( "maxj",
        [ Alcotest.test_case "gemm kernel" `Quick test_maxj_gemm;
          Alcotest.test_case "tpchq6 fifo" `Quick test_maxj_tpchq6;
          Alcotest.test_case "gda cache" `Quick test_maxj_gda_cache;
          Alcotest.test_case "baseline streams" `Quick
            test_maxj_baseline_streams;
          Alcotest.test_case "dataflow expression" `Quick
            test_maxj_dataflow_expression ] );
      ( "dot",
        [ Alcotest.test_case "structure" `Quick test_dot_structure;
          Alcotest.test_case "parallel cluster" `Quick test_dot_parallel_cluster
        ] );
      ( "hw_pp",
        [ Alcotest.test_case "memories listed" `Quick
            test_hwpp_lists_all_memories ] );
      ( "trip text",
        [ QCheck_alcotest.to_alcotest prop_trip_text;
          Alcotest.test_case "edge constants" `Quick test_trip_edges;
          Alcotest.test_case "edge design texts" `Quick test_edge_design_texts
        ] ) ]
