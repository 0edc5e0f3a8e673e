(* Regenerates every table, figure and ablation of the paper's evaluation
   as deterministic text.  [dune runtest] diffs the printout against
   [artifacts.expected]; after a deliberate model change, refresh that
   file with [dune promote].

   Run: dune exec bench/main.exe *)

(* ------------------------------------------------------------------ *)
(* Paper artifacts: print the regenerated numbers                      *)
(* ------------------------------------------------------------------ *)

let rule () = print_endline (String.make 72 '=')

let print_artifacts () =
  let benches = Suite.all () in
  rule ();
  Experiments.print_table5 benches;
  print_newline ();
  rule ();
  Experiments.print_fig5c
    (Experiments.fig5c ~n:1024 ~k:256 ~d:32 ~b0:64 ~b1:16 ());
  print_newline ();
  rule ();
  Experiments.print_fig7 (Experiments.fig7 benches);
  print_newline ();
  rule ();
  print_endline
    "Extension applications — same three configurations (no paper reference)";
  Printf.printf "%-12s %12s %12s %12s | %8s %8s\n" "benchmark" "baseline"
    "+tiling" "+meta" "tiling" "meta";
  let paper_names = List.map (fun b -> b.Suite.name) benches in
  let extras =
    List.filter
      (fun (b : Suite.bench) -> not (List.mem b.Suite.name paper_names))
      (Suite.extended ())
  in
  List.iter
    (fun (r : Experiments.fig7_row) ->
      Printf.printf "%-12s %12.0f %12.0f %12.0f | %7.2fx %7.2fx\n" r.bench
        (r.cycles Experiments.Baseline)
        (r.cycles Experiments.Tiled)
        (r.cycles Experiments.Tiled_meta)
        (r.speedup Experiments.Tiled)
        (r.speedup Experiments.Tiled_meta))
    (Experiments.fig7 extras);
  print_newline ();
  rule ();
  print_endline
    "Table 4 — template vocabulary and the benchmarks instantiating it";
  let designs =
    List.map
      (fun (b : Suite.bench) ->
        (b.Suite.name, Experiments.design_of Experiments.Tiled_meta b))
      (Suite.extended ())
  in
  let mem_users kind =
    List.filter_map
      (fun (n, d) ->
        if List.exists (fun m -> m.Hw.kind = kind) d.Hw.mems then Some n
        else None)
      designs
  in
  let ctrl_users pred =
    List.filter_map
      (fun (n, d) ->
        if Hw.fold_ctrls (fun acc c -> acc || pred c) false d.Hw.top then
          Some n
        else None)
      designs
  in
  let pipe_users t =
    ctrl_users (function Hw.Pipe { template; _ } -> template = t | _ -> false)
  in
  let show label users =
    Printf.printf "  %-22s %s\n" label
      (if users = [] then "-" else String.concat ", " users)
  in
  show "buffer" (mem_users Hw.Buffer);
  show "double buffer" (mem_users Hw.Double_buffer);
  show "cache" (mem_users Hw.Cache);
  show "FIFO" (mem_users Hw.Fifo);
  show "CAM" (mem_users Hw.Cam);
  show "vector unit" (pipe_users Hw.Vector);
  show "reduction tree" (pipe_users Hw.Tree);
  show "parallel FIFO write" (pipe_users Hw.Fifo_write);
  show "CAM update" (pipe_users Hw.Cam_update);
  show "tile load/store"
    (ctrl_users (function Hw.Tile_load _ | Hw.Tile_store _ -> true | _ -> false));
  show "metapipeline"
    (ctrl_users (function Hw.Loop { meta = true; _ } -> true | _ -> false));
  show "parallel controller"
    (ctrl_users (function Hw.Par _ -> true | _ -> false));
  print_newline ();
  rule ();
  print_endline "Tables 1-3 — transformation exemplars (gemm IR sizes)";
  let t = Gemm.make () in
  let r =
    Tiling.run
      ~tiles:[ (t.Gemm.m, 64); (t.Gemm.n, 64); (t.Gemm.p, 64) ]
      t.Gemm.prog
  in
  List.iter
    (fun (name, (p : Ir.program)) ->
      Printf.printf "  gemm %-24s %4d IR nodes\n" name
        (Rewrite.node_count p.Ir.body))
    [ ("fused", r.Tiling.fused);
      ("strip-mined (Table 3)", r.Tiling.stripped);
      ("with tile copies", r.Tiling.stripped_with_copies);
      ("interchanged (Table 3)", r.Tiling.tiled) ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations (design choices DESIGN.md calls out)                      *)
(* ------------------------------------------------------------------ *)

let print_ablations () =
  rule ();
  print_endline "Ablation: gemm tile-size sweep (cycles and BRAM at 1024^3)";
  let t = Gemm.make () in
  let sizes = [ (t.Gemm.m, 1024); (t.Gemm.n, 1024); (t.Gemm.p, 1024) ] in
  (* each point is an independent compile+simulate chain: fan out across
     the pool, print in order *)
  List.iter print_string
    (Pool.map
       (fun b ->
         let r =
           Tiling.run
             ~tiles:[ (t.Gemm.m, b); (t.Gemm.n, b); (t.Gemm.p, b) ]
             t.Gemm.prog
         in
         let d = Lower.program Lower.default_opts r.Tiling.tiled in
         let rep = Simulate.run d ~sizes in
         let area = Area_model.of_design d in
         Printf.sprintf "  b=%-4d %14.0f cycles %8.0f M20K %14.0f words read\n"
           b rep.Simulate.cycles area.Area_model.bram (Simulate.total_read rep))
       [ 16; 32; 64; 128; 256 ]);
  print_newline ();
  print_endline "Ablation: kmeans parallelism-factor sweep (+tiling+meta)";
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
  List.iter print_string
    (Pool.map
       (fun par ->
         let d =
           Lower.program { Lower.default_opts with Lower.par } r.Tiling.tiled
         in
         let rep = Simulate.run d ~sizes:bench.Suite.sim_sizes in
         let area = Area_model.of_design d in
         Printf.sprintf "  par=%-3d %14.0f cycles %10.0f logic\n" par
           rep.Simulate.cycles area.Area_model.logic)
       [ 4; 8; 16; 32; 64 ]);
  print_newline ();
  print_endline "Ablation: tpchq6 filter-reduce fusion (FIFO removed)";
  let q6 = Suite.find (Suite.all ()) "tpchq6" in
  List.iter
    (fun (name, fuse) ->
      let r = Tiling.run ~fuse_filters:fuse ~tiles:q6.Suite.tiles q6.Suite.prog in
      let d = Lower.program Lower.default_opts r.Tiling.tiled in
      let rep = Simulate.run d ~sizes:q6.Suite.sim_sizes in
      let fifos =
        List.length (List.filter (fun m -> m.Hw.kind = Hw.Fifo) d.Hw.mems)
      in
      Printf.printf "  %-18s %12.0f cycles, %d FIFOs\n" name rep.Simulate.cycles
        fifos)
    [ ("separate filter", false); ("fused filter", true) ];
  print_newline ();
  print_endline
    "Ablation: metapipeline stage rebalancing (the paper's gda optimization)";
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let base = Experiments.design_of Experiments.Baseline bench in
      let meta = Experiments.design_of Experiments.Tiled_meta bench in
      let sizes = bench.Suite.sim_sizes in
      let reb = Rebalance.apply meta ~sizes in
      let c d = (Simulate.run d ~sizes).Simulate.cycles in
      let a_meta = Area_model.of_design meta in
      let a_reb = Area_model.of_design reb in
      Printf.printf
        "  %-8s meta %6.1fx -> rebalanced %6.1fx (logic %.0f -> %.0f)\n" name
        (c base /. c meta) (c base /. c reb) a_meta.Area_model.logic
        a_reb.Area_model.logic)
    [ "gda"; "gemm"; "kmeans" ];
  print_newline ();
  print_endline
    "Ablation: caches for non-affine leftover accesses (the paper's \
     generality claim over polyhedral tooling)";
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      List.iter
        (fun (label, cache) ->
          let d =
            Lower.program
              { Lower.default_opts with Lower.cache_leftover = cache }
              r.Tiling.tiled
          in
          let rep = Simulate.run d ~sizes:bench.Suite.sim_sizes in
          Printf.printf "  %-8s %-10s %14.0f cycles %14.0f words read\n" name
            label rep.Simulate.cycles (Simulate.total_read rep))
        [ ("cached", true); ("uncached", false) ])
    [ "gda"; "kmeans" ];
  print_newline ();
  print_endline "Sensitivity: Fig. 7 shape under perturbed machine models";
  Experiments.print_sensitivity (Experiments.sensitivity (Suite.all ()));
  print_newline ();
  print_endline
    "Scaling: Fig. 7 shape across problem sizes (note the kmeans crossover \
     at half scale, where the centroids fit the baseline's burst window)";
  Experiments.print_sensitivity (Experiments.scaling (Suite.all ()));
  print_newline ();
  print_endline
    "Ablation: tpchq6 modeled selectivity (FIFO consumer rate) — the FIFO \
     decouples the data-dependent output rate from the streaming stage, so \
     cycles stay flat across selectivities";
  let q6r = Tiling.run ~tiles:q6.Suite.tiles q6.Suite.prog in
  List.iter
    (fun rate ->
      let d =
        Lower.program { Lower.default_opts with Lower.fifo_rate = rate }
          q6r.Tiling.tiled
      in
      let rep = Simulate.run d ~sizes:q6.Suite.sim_sizes in
      Printf.printf "  selectivity=%-5.2f %12.0f cycles\n" rate
        rep.Simulate.cycles)
    [ 0.01; 0.02; 0.05; 0.1; 0.25; 0.5; 1.0 ];
  print_newline ();
  print_endline "Ablation: automated tile-size selection (DSE, gemm)";
  (match (Dse.explore_bench (Suite.find (Suite.all ()) "gemm")).Dse.best with
  | Some best ->
      Printf.printf "  selected %s: %.0f cycles, %.0f M20K\n"
        (String.concat ", "
           (List.map
              (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b)
              best.Dse.tiles))
        best.Dse.cycles best.Dse.area.Area_model.bram
  | None -> print_endline "  no feasible point");
  print_newline ()

let () =
  print_artifacts ();
  print_ablations ();
  rule ()
