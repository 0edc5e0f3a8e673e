type config = Baseline | Tiled | Tiled_meta

let config_name = function
  | Baseline -> "baseline"
  | Tiled -> "+tiling"
  | Tiled_meta -> "+tiling+metapipelining"

let lower ?par config (r : Tiling.result) =
  let opts, prog =
    match config with
    | Baseline -> (Lower.baseline_opts, r.Tiling.fused)
    | Tiled -> ({ Lower.default_opts with Lower.meta = false }, r.Tiling.tiled)
    | Tiled_meta -> (Lower.default_opts, r.Tiling.tiled)
  in
  let par = Option.value par ~default:opts.Lower.par in
  Lower.program { opts with Lower.par } prog

let design_of config (bench : Suite.bench) =
  lower config (Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog)

(* ------------------------------ Fig. 7 ------------------------------ *)

type fig7_row = {
  bench : string;
  cycles : config -> float;
  speedup : config -> float;
  area : config -> Area_model.t;
  area_ratio : config -> Area_model.t;
}

let configs = [ Baseline; Tiled; Tiled_meta ]

let fig7 ?machine ?domains benches =
  let tally = Pool.tally () in
  (* each bench is an independent compile + 3x simulate chain *)
  let rows =
    Pool.map ?domains ~tally
      (fun (bench : Suite.bench) ->
      let per_config =
        List.map
          (fun cfg ->
            let d = design_of cfg bench in
            let rep = Simulate.run ?machine d ~sizes:bench.Suite.sim_sizes in
            (cfg, (rep.Simulate.cycles, Area_model.of_design d)))
          configs
      in
      let get cfg = List.assoc cfg per_config in
      let base_cycles, base_area = get Baseline in
      { bench = bench.Suite.name;
        cycles = (fun cfg -> fst (get cfg));
        speedup = (fun cfg -> base_cycles /. fst (get cfg));
        area = (fun cfg -> snd (get cfg));
        area_ratio = (fun cfg -> Area_model.ratio (snd (get cfg)) base_area) })
      benches
  in
  Metrics.incr ~by:(List.length rows) "fig7.benches";
  Array.iteri
    (fun d n -> Metrics.incr ~by:n (Printf.sprintf "fig7.pool.d%d.completed" d))
    tally.Pool.per_domain;
  rows

let paper_fig7_speedups =
  [ ("outerprod", (1.1, 1.1));
    ("sumrows", (6.5, 11.5));
    ("gemm", (4.1, 6.3));
    ("tpchq6", (1.6, 2.0));
    ("gda", (13.4, 39.4));
    ("kmeans", (15.5, 19.7)) ]

let print_fig7 rows =
  Printf.printf
    "Figure 7 — speedups over the baseline (paper values in parentheses)\n";
  Printf.printf "%-10s %12s %12s %12s | %-16s %-16s\n" "benchmark" "baseline"
    "+tiling" "+meta" "tiling (paper)" "meta (paper)";
  List.iter
    (fun r ->
      let pt, pm =
        match List.assoc_opt r.bench paper_fig7_speedups with
        | Some v -> v
        | None -> (nan, nan)
      in
      Printf.printf "%-10s %12.0f %12.0f %12.0f | %6.2fx (%4.1fx)  %6.2fx (%4.1fx)\n"
        r.bench (r.cycles Baseline) (r.cycles Tiled) (r.cycles Tiled_meta)
        (r.speedup Tiled) pt (r.speedup Tiled_meta) pm)
    rows;
  Printf.printf
    "\nFigure 7 — resource use relative to the baseline (logic / FF / mem)\n";
  Printf.printf "%-10s %-26s %-26s\n" "benchmark" "+tiling" "+tiling+metapipelining";
  List.iter
    (fun r ->
      let t = r.area_ratio Tiled and m = r.area_ratio Tiled_meta in
      Printf.printf "%-10s   %6.2f %6.2f %6.2f        %6.2f %6.2f %6.2f\n"
        r.bench t.Area_model.logic t.Area_model.ff t.Area_model.bram
        m.Area_model.logic m.Area_model.ff m.Area_model.bram)
    rows

(* ---------------------------- sensitivity --------------------------- *)

type sensitivity_row = {
  variant : string;
  speedups : (string * float) list;
}

let machine_variants =
  let m = Machine.default in
  [ ("default", m);
    ("stream-bw x0.5",
     { m with Machine.stream_words_per_cycle = m.Machine.stream_words_per_cycle /. 2.0 });
    ("stream-bw x2",
     { m with Machine.stream_words_per_cycle = m.Machine.stream_words_per_cycle *. 2.0 });
    ("row-cost x0.5", { m with Machine.short_row_cost = m.Machine.short_row_cost /. 2.0 });
    ("row-cost x2", { m with Machine.short_row_cost = m.Machine.short_row_cost *. 2.0 });
    ("tile-latency x4", { m with Machine.tile_latency = m.Machine.tile_latency *. 4.0 });
    ("burst-window x2",
     { m with Machine.stream_cache_bytes = m.Machine.stream_cache_bytes / 2 }) ]

let sensitivity benches =
  (* build designs once; re-simulate under each machine *)
  let designs =
    List.map
      (fun (bench : Suite.bench) ->
        ( bench,
          design_of Baseline bench,
          design_of Tiled_meta bench ))
      benches
  in
  List.map
    (fun (variant, machine) ->
      { variant;
        speedups =
          List.map
            (fun ((bench : Suite.bench), base, meta) ->
              let c d = (Simulate.run ~machine d ~sizes:bench.Suite.sim_sizes).Simulate.cycles in
              (bench.Suite.name, c base /. c meta))
            designs })
    machine_variants

let print_sensitivity rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      Printf.printf
        "Sensitivity — +tiling+metapipelining speedup under perturbed machine \
         models\n";
      Printf.printf "%-18s" "variant";
      List.iter (fun (b, _) -> Printf.printf "%11s" b) first.speedups;
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "%-18s" r.variant;
          List.iter (fun (_, s) -> Printf.printf "%10.1fx" s) r.speedups;
          print_newline ())
        rows

let scaling benches =
  let designs =
    List.map
      (fun (bench : Suite.bench) ->
        (bench, design_of Baseline bench, design_of Tiled_meta bench))
      benches
  in
  List.map
    (fun (label, scale) ->
      { variant = label;
        speedups =
          List.map
            (fun ((bench : Suite.bench), base, meta) ->
              let sizes =
                List.map
                  (fun (s, v) -> (s, Int.max 1 (int_of_float (float_of_int v *. scale))))
                  bench.Suite.sim_sizes
              in
              let c d = (Simulate.run d ~sizes).Simulate.cycles in
              (bench.Suite.name, c base /. c meta))
            designs })
    [ ("sizes x0.5", 0.5); ("sizes x1", 1.0); ("sizes x2", 2.0) ]

(* ------------------------------ Fig. 5c ----------------------------- *)

type fig5c_row = {
  structure : string;
  stage : string;
  measured_words : float;
  expected_words : float;
  onchip_words : float;
  expected_onchip : float;
}

let onchip_words_for (design : Hw.design) prefix =
  List.fold_left
    (fun acc m ->
      if
        String.length m.Hw.mem_name >= String.length prefix
        && String.sub m.Hw.mem_name 0 (String.length prefix) = prefix
      then acc +. float_of_int (m.Hw.depth * m.Hw.width_bits / 32)
      else acc)
    0.0 design.Hw.mems

let fig5c ?machine ~n ~k ~d ~b0 ~b1 () =
  let t = Kmeans.make () in
  let tiles = [ (t.Kmeans.n, b0); (t.Kmeans.k, b1) ] in
  let r = Tiling.run ~tiles t.Kmeans.prog in
  let sizes = [ (t.Kmeans.n, n); (t.Kmeans.k, k); (t.Kmeans.d, d) ] in
  let stages =
    [ ("fused", r.Tiling.fused, Lower.baseline_opts);
      ( "strip-mined",
        r.Tiling.stripped_with_copies,
        { Lower.default_opts with Lower.meta = false } );
      ("interchanged", r.Tiling.tiled, { Lower.default_opts with Lower.meta = false })
    ]
  in
  let fn = float_of_int n and fk = float_of_int k and fd = float_of_int d in
  let fb0 = float_of_int b0 and fb1 = float_of_int b1 in
  let tiles_n = Float.of_int ((n + b0 - 1) / b0) in
  List.concat_map
    (fun (stage, prog, opts) ->
      let design = Lower.program opts prog in
      let rep = Simulate.run ?machine design ~sizes in
      let expected_points = fn *. fd in
      let expected_centroids =
        match stage with
        | "interchanged" -> tiles_n *. fk *. fd
        | _ -> fn *. fk *. fd
      in
      let expected_onchip_points =
        match stage with "fused" -> fd | _ -> fb0 *. fd
      in
      let expected_onchip_centroids =
        match stage with "fused" -> fd | _ -> fb1 *. fd
      in
      let expected_onchip_mindist =
        match stage with "interchanged" -> 2.0 *. fb0 | _ -> 2.0
      in
      [ { structure = "points";
          stage;
          measured_words = Simulate.read_words rep "points";
          expected_words = expected_points;
          onchip_words = onchip_words_for design "pointsTile";
          expected_onchip = expected_onchip_points };
        { structure = "centroids";
          stage;
          measured_words = Simulate.read_words rep "centroids";
          expected_words = expected_centroids;
          onchip_words = onchip_words_for design "centroidsTile";
          expected_onchip = expected_onchip_centroids };
        { structure = "minDistWithIndex";
          stage;
          measured_words = 0.0;
          expected_words = 0.0;
          onchip_words = onchip_words_for design "minDistWithIndexs";
          expected_onchip = expected_onchip_mindist } ])
    stages

let print_fig5c rows =
  Printf.printf
    "Figure 5c — k-means main-memory reads and on-chip storage per structure\n";
  Printf.printf "%-18s %-13s %14s %14s %10s %10s\n" "structure" "stage"
    "DRAM words" "paper formula" "on-chip" "paper";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-13s %14.0f %14.0f %10.0f %10.0f\n" r.structure
        r.stage r.measured_words r.expected_words r.onchip_words
        r.expected_onchip)
    rows

(* --------------------------- per-input traffic ---------------------- *)

type traffic_row = {
  tinput : string;
  tbaseline : float;
  ttiled : float;
  tprofile : int option;
}

let traffic ?machine ?(profile = false) ?sizes (bench : Suite.bench) =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> if profile then bench.Suite.test_sizes else bench.Suite.sim_sizes
  in
  let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
  let rep_b = Simulate.run ?machine (lower Baseline r) ~sizes in
  let rep_t = Simulate.run ?machine (lower Tiled r) ~sizes in
  let prof =
    if profile then
      let inputs = bench.Suite.gen ~sizes ~seed:2026 in
      let _, counts = Mem_profile.run r.Tiling.tiled ~sizes ~inputs in
      Some counts
    else None
  in
  List.map
    (fun (inp : Ir.input) ->
      let name = Sym.base inp.Ir.iname in
      { tinput = name;
        tbaseline = Simulate.read_words rep_b name;
        ttiled = Simulate.read_words rep_t name;
        tprofile =
          Option.map (fun counts -> Mem_profile.words counts inp.Ir.iname) prof })
    bench.Suite.prog.Ir.inputs

let print_traffic bench_name rows =
  Printf.printf
    "Per-input DRAM read words for %s (the Fig. 5c analysis, generalized)\n"
    bench_name;
  Printf.printf "%-14s %14s %14s %8s" "input" "baseline" "tiled" "ratio";
  if List.exists (fun r -> r.tprofile <> None) rows then
    Printf.printf " %14s" "interp count";
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%-14s %14.0f %14.0f %7.1fx" r.tinput r.tbaseline r.ttiled
        (if r.ttiled > 0.0 then r.tbaseline /. r.ttiled else nan);
      (match r.tprofile with
      | Some w -> Printf.printf " %14d" w
      | None -> ());
      print_newline ())
    rows

(* ------------------------------ Table 5 ----------------------------- *)

let print_table5 benches =
  Printf.printf "Table 5 — evaluation benchmarks\n";
  Printf.printf "%-10s %-38s %s\n" "benchmark" "description" "collections ops";
  List.iter
    (fun (b : Suite.bench) ->
      Printf.printf "%-10s %-38s %s\n" b.Suite.name b.Suite.description
        b.Suite.collection_ops)
    benches
