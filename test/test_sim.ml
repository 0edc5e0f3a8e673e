(* Simulator and area model: controller-level unit tests on hand-built
   designs, simulator invariants across the suite, and the Fig. 5c /
   Fig. 7 shape assertions. *)

let check_f msg expected actual =
  if Float.abs (expected -. actual) > 1e-6 *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %f, got %f" msg expected actual

let pipe ?(trips = [ Hw.Tconst 1000.0 ]) ?(par = 1) ?(depth = 10) ?(dram = [])
    name =
  Hw.Pipe
    { name;
      trips;
      template = Hw.Vector;
      par;
      depth;
      ii = 1;
      ops = { Hw.flops = 1; int_ops = 0; cmp_ops = 0; mem_reads = 1; mem_writes = 1 };
      body = None;
      dram;
      uses = [];
      defines = [];
      prov = Prov.none }

let design ?(mems = []) top =
  { Hw.design_name = "t"; mems; top; par_factor = 1 }

let cycles ?machine d = (Simulate.run ?machine d ~sizes:[]).Simulate.cycles

(* ---------------- controller formulas ---------------- *)

let test_pipe_cycles () =
  (* depth + ceil(iters/par) *)
  check_f "pipe" 1010.0 (cycles (design (pipe "p")));
  check_f "pipe par" 135.0
    (cycles (design (pipe ~par:8 "p")))

let test_seq_sums () =
  let d = design (Hw.Seq { name = "s"; children = [ pipe "a"; pipe "b" ]; prov = Prov.none }) in
  check_f "seq" 2020.0 (cycles d)

let test_par_max () =
  let d =
    design
      (Hw.Par
         { name = "p";
           children = [ pipe "a"; pipe ~trips:[ Hw.Tconst 5000.0 ] "b" ]; prov = Prov.none })
  in
  check_f "par" 5010.0 (cycles d)

let test_loop_multiplies () =
  let d =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 10.0 ]; meta = false;
           stages = [ pipe "a"; pipe "b" ]; prov = Prov.none })
  in
  check_f "sequential loop" 20200.0 (cycles d)

let test_metapipe_overlap () =
  (* two balanced stages: fill (sum) + (trips-1) * slowest *)
  let d meta =
    design
      (Hw.Loop
         { name = "l"; trips = [ Hw.Tconst 10.0 ]; meta;
           stages = [ pipe "a"; pipe "b" ]; prov = Prov.none })
  in
  let seq = cycles (d false) and meta = cycles (d true) in
  check_f "metapipe" (2020.0 +. (9.0 *. 1010.0)) meta;
  Alcotest.(check bool) "metapipe faster than sequential" true (meta < seq)

let test_metapipe_never_slower () =
  List.iter
    (fun bench ->
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      let c opts =
        (Simulate.run (Lower.program opts r.Tiling.tiled)
           ~sizes:bench.Suite.sim_sizes)
          .Simulate.cycles
      in
      let seq = c { Lower.default_opts with Lower.meta = false } in
      let meta = c Lower.default_opts in
      Alcotest.(check bool)
        (bench.Suite.name ^ ": meta <= seq")
        true (meta <= seq +. 1e-6))
    (Suite.all ())

let test_tile_load_cost () =
  let m = Machine.default in
  let d =
    design
      (Hw.Tile_load
         { name = "tl"; mem = "b"; array = "x"; words = Hw.Tconst 800.0;
           path = []; reuse = 1; prov = Prov.none })
  in
  check_f "tile load"
    (m.Machine.tile_latency +. (800.0 /. m.Machine.stream_words_per_cycle))
    (cycles d)

let test_reuse_reduces_traffic () =
  let load reuse =
    design
      (Hw.Tile_load
         { name = "tl"; mem = "b"; array = "x"; words = Hw.Tconst 800.0;
           path = []; reuse; prov = Prov.none })
  in
  let r1 = Simulate.run (load 1) ~sizes:[] in
  let r2 = Simulate.run (load 2) ~sizes:[] in
  check_f "reuse halves words"
    (Simulate.read_words r1 "x" /. 2.0)
    (Simulate.read_words r2 "x")

(* ---------------- direct access traffic rules ---------------- *)

let da ?(contiguous = true) ?(affine = true) ?(row = 16.0) path =
  { Hw.da_array = "x";
    da_path = path;
    da_contiguous = contiguous;
    da_affine = affine;
    da_row_words = Hw.Tconst row;
    da_kind = `Read }

let test_dependent_loops_multiply () =
  let d =
    design
      (pipe
         ~dram:[ da [ (Hw.Tconst 100.0, true); (Hw.Tconst 50.0, true) ] ]
         "p")
  in
  let r = Simulate.run d ~sizes:[] in
  check_f "words" 5000.0 (Simulate.read_words r "x")

let test_burst_locality_window () =
  (* an address-independent loop re-reads only when the footprint under it
     exceeds the stream cache (16 KiB = 4096 words) *)
  let mk inner =
    design
      (pipe
         ~dram:[ da [ (Hw.Tconst 10.0, false); (Hw.Tconst inner, true) ] ]
         "p")
  in
  let small = Simulate.run (mk 1000.0) ~sizes:[] in
  check_f "small footprint reused" 1000.0 (Simulate.read_words small "x");
  let large = Simulate.run (mk 10000.0) ~sizes:[] in
  check_f "large footprint re-read" 100000.0 (Simulate.read_words large "x")

let test_noncontiguous_costs_more () =
  let mk contiguous =
    design (pipe ~dram:[ da ~contiguous [ (Hw.Tconst 100000.0, true) ] ] "p")
  in
  Alcotest.(check bool) "strided slower" true
    (cycles (mk false) > cycles (mk true))

let test_nonaffine_costs_most () =
  let mk affine =
    design
      (pipe ~dram:[ da ~affine ~contiguous:false [ (Hw.Tconst 100000.0, true) ] ]
         "p")
  in
  Alcotest.(check bool) "data-dependent slower" true
    (cycles (mk false) > cycles (mk true))

(* ---------------- suite invariants ---------------- *)

let test_tiling_never_moves_more () =
  (* Total DRAM traffic (reads + writes) with tiling stays within a few
     percent of the baseline for every benchmark.  (Strictly fewer *reads*
     does not always hold: tiled outerprod re-reads its tiny input vectors
     once per tile while the baseline keeps them in the burst window — the
     paper notes exactly this memory-for-nothing tradeoff for outerprod.) *)
  List.iter
    (fun bench ->
      let base = Experiments.design_of Experiments.Baseline bench in
      let tiled = Experiments.design_of Experiments.Tiled bench in
      let sizes = bench.Suite.sim_sizes in
      let rb = Simulate.run base ~sizes and rt = Simulate.run tiled ~sizes in
      let total r = Simulate.total_read r +. Simulate.total_written r in
      (* 25% slack: tiled designs add read-modify-write traffic on
         DRAM-resident accumulators (sumrows) and re-load small inputs per
         tile (outerprod) — second-order costs the paper also observes *)
      Alcotest.(check bool)
        (bench.Suite.name ^ ": tiled traffic <= ~baseline traffic")
        true
        (total rt <= (1.25 *. total rb) +. 1.0))
    (Suite.all ())

(* ---------------- Fig. 5c ---------------- *)

let test_fig5c_formulas () =
  let n = 1024 and k = 256 and d = 32 and b0 = 64 and b1 = 16 in
  let rows = Experiments.fig5c ~n ~k ~d ~b0 ~b1 () in
  let tol = 0.10 in
  List.iter
    (fun (r : Experiments.fig5c_row) ->
      if r.Experiments.expected_words > 0.0 then begin
        let rel =
          Float.abs (r.Experiments.measured_words -. r.Experiments.expected_words)
          /. r.Experiments.expected_words
        in
        if rel > tol then
          Alcotest.failf "%s/%s: measured %.0f vs paper %.0f" r.Experiments.structure
            r.Experiments.stage r.Experiments.measured_words
            r.Experiments.expected_words
      end;
      (* on-chip storage matches the paper's formulas exactly for the
         tiled stages *)
      if r.Experiments.stage <> "fused" && r.Experiments.expected_onchip > 2.0
      then
        check_f
          (r.Experiments.structure ^ "/" ^ r.Experiments.stage ^ " on-chip")
          r.Experiments.expected_onchip r.Experiments.onchip_words)
    rows

(* ---------------- Fig. 7 shape ---------------- *)

let test_fig7_shape () =
  let rows = Experiments.fig7 (Suite.all ()) in
  let get name =
    List.find (fun r -> r.Experiments.bench = name) rows
  in
  let tiled r = r.Experiments.speedup Experiments.Tiled in
  let meta r = r.Experiments.speedup Experiments.Tiled_meta in
  (* memory-bound streaming benchmarks gain little from tiling *)
  Alcotest.(check bool) "outerprod ~1" true
    (tiled (get "outerprod") < 2.0);
  Alcotest.(check bool) "tpchq6 small gain" true
    (tiled (get "tpchq6") > 1.0 && tiled (get "tpchq6") < 3.0);
  (* locality benchmarks gain substantially *)
  Alcotest.(check bool) "sumrows gains" true (tiled (get "sumrows") > 3.0);
  Alcotest.(check bool) "gemm gains" true
    (tiled (get "gemm") > 2.5 && tiled (get "gemm") < 8.0);
  (* on-chip-resident benchmarks gain dramatically *)
  Alcotest.(check bool) "gda dramatic" true (tiled (get "gda") > 10.0);
  Alcotest.(check bool) "kmeans dramatic" true (tiled (get "kmeans") > 10.0);
  (* ordering matches the paper: kmeans/gda > sumrows/gemm > q6/outerprod *)
  Alcotest.(check bool) "ordering" true
    (tiled (get "kmeans") > tiled (get "gemm")
    && tiled (get "gda") > tiled (get "sumrows")
    && tiled (get "gemm") > tiled (get "tpchq6")
    && tiled (get "sumrows") > tiled (get "outerprod"));
  (* metapipelining never hurts *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.bench ^ ": meta >= tiled")
        true
        (meta r >= tiled r -. 0.15))
    rows

let test_fig7_area_band () =
  let rows = Experiments.fig7 (Suite.all ()) in
  List.iter
    (fun r ->
      let a = r.Experiments.area_ratio Experiments.Tiled_meta in
      Alcotest.(check bool)
        (r.Experiments.bench ^ " logic ratio in band")
        true
        (a.Area_model.logic > 0.7 && a.Area_model.logic < 1.6);
      Alcotest.(check bool)
        (r.Experiments.bench ^ " mem ratio in band")
        true
        (a.Area_model.bram > 0.6 && a.Area_model.bram < 2.0))
    rows

(* ---------------- sensitivity ---------------- *)

let test_sensitivity_ordering_stable () =
  (* the qualitative Fig. 7 claim must survive machine perturbations:
     on-chip-resident benchmarks dominate locality benchmarks, which
     dominate the streaming ones, under every variant *)
  let rows = Experiments.sensitivity (Suite.all ()) in
  List.iter
    (fun r ->
      let s name = List.assoc name r.Experiments.speedups in
      Alcotest.(check bool)
        (r.Experiments.variant ^ ": kmeans > tpchq6")
        true
        (s "kmeans" > s "tpchq6");
      Alcotest.(check bool)
        (r.Experiments.variant ^ ": gda > outerprod")
        true
        (s "gda" > s "outerprod");
      Alcotest.(check bool)
        (r.Experiments.variant ^ ": all >= ~1")
        true
        (List.for_all (fun (_, v) -> v > 0.8) r.Experiments.speedups))
    rows

(* ---------------- breakdown ---------------- *)

let test_breakdown () =
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let rows = Simulate.breakdown d ~sizes:bench.Suite.sim_sizes in
  (* the root row carries the whole design's cycles *)
  (match rows with
  | root :: _ ->
      let total = (Simulate.run d ~sizes:bench.Suite.sim_sizes).Simulate.cycles in
      check_f "root = total" total root.Simulate.br_cycles;
      Alcotest.(check int) "root depth" 0 root.Simulate.br_depth
  | [] -> Alcotest.fail "empty breakdown");
  (* invocations multiply through loops: the centroid loads run
     (n/b0)*(k/b1) times *)
  let loads =
    List.find
      (fun r ->
        String.length r.Simulate.br_name >= 14
        && String.sub r.Simulate.br_name 0 14 = "load_centroids")
      rows
  in
  check_f "centroid load invocations" (64.0 *. 8.0) loads.Simulate.br_invocations

let test_bottlenecks () =
  (* gda's metapipeline is compute-bound (the §6.2 rebalancing story) *)
  let gda = Suite.find (Suite.all ()) "gda" in
  let d = Experiments.design_of Experiments.Tiled_meta gda in
  let rows = Simulate.bottlenecks d ~sizes:gda.Suite.sim_sizes in
  Alcotest.(check bool) "gda has a metapipeline" true (rows <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Simulate.bn_loop ^ " compute-bound") true
        (r.Simulate.bn_bound = `Stage);
      Alcotest.(check bool) "stage cycles dominate dram" true
        (r.Simulate.bn_stage_cycles > r.Simulate.bn_dram_sum))
    rows;
  (* sumrows' metapipeline is DRAM-bound: the x stream is the wall *)
  let sr = Suite.find (Suite.all ()) "sumrows" in
  let d = Experiments.design_of Experiments.Tiled_meta sr in
  let rows = Simulate.bottlenecks d ~sizes:sr.Suite.sim_sizes in
  Alcotest.(check bool) "sumrows has a metapipeline" true (rows <> []);
  Alcotest.(check bool) "sumrows dram-bound" true
    (List.exists (fun r -> r.Simulate.bn_bound = `Dram) rows)

(* ---------------- annotation cache ---------------- *)

let test_memo_cache_consistency () =
  (* one cache shared across run/breakdown/bottlenecks must reproduce the
     uncached reports exactly — structural equality, no tolerance *)
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let d = Experiments.design_of Experiments.Tiled_meta bench in
      let sizes = bench.Suite.sim_sizes in
      let cache = Simulate.cache () in
      Alcotest.(check bool) (name ^ ": run matches") true
        (Simulate.run ~cache d ~sizes = Simulate.run d ~sizes);
      Alcotest.(check bool) (name ^ ": breakdown matches") true
        (Simulate.breakdown ~cache d ~sizes = Simulate.breakdown d ~sizes);
      Alcotest.(check bool) (name ^ ": bottlenecks matches") true
        (Simulate.bottlenecks ~cache d ~sizes = Simulate.bottlenecks d ~sizes);
      (* reusing the cache at different sizes must build a new annotation *)
      let sizes' = List.map (fun (s, v) -> (s, v * 2)) sizes in
      Alcotest.(check bool) (name ^ ": cache resets on new sizes") true
        (Simulate.run ~cache d ~sizes:sizes' = Simulate.run d ~sizes:sizes'))
    [ "kmeans"; "gda"; "sumrows" ]

let test_cache_stats () =
  (* the cache holds one annotation: the first report builds it, later
     reports of the same design at the same sizes reuse it, and a sizes
     change builds a new one *)
  let bench = Suite.find (Suite.all ()) "gemm" in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let sizes = bench.Suite.sim_sizes in
  let cache = Simulate.cache () in
  let stats () =
    let s = Simulate.cache_stats cache in
    (s.Simulate.hits, s.Simulate.misses)
  in
  let r1 = Simulate.run ~cache d ~sizes in
  Alcotest.(check (pair int int)) "first report misses" (0, 1) (stats ());
  let r2 = Simulate.run ~cache d ~sizes in
  ignore (Simulate.breakdown ~cache d ~sizes);
  ignore (Simulate.bottlenecks ~cache d ~sizes);
  Alcotest.(check (pair int int)) "later reports hit" (3, 1) (stats ());
  Alcotest.(check bool) "reports identical" true (r1 = r2);
  (* equal sizes in a fresh list still hit *)
  ignore (Simulate.run ~cache d ~sizes:(List.map Fun.id sizes));
  Alcotest.(check (pair int int)) "equal sizes hit" (4, 1) (stats ());
  let sizes' = List.map (fun (s, v) -> (s, v * 2)) sizes in
  ignore (Simulate.run ~cache d ~sizes:sizes');
  Alcotest.(check (pair int int)) "a sizes change misses" (4, 2) (stats ());
  ignore (Simulate.run ~cache d ~sizes);
  Alcotest.(check (pair int int)) "one slot: going back misses" (4, 3)
    (stats ())

(* ---------------- rebalancing ---------------- *)

let test_rebalance () =
  (* the paper's gda stage parallelization: rebalancing the bottleneck
     stage speeds the design up and costs logic *)
  let bench = Suite.find (Suite.all ()) "gda" in
  let meta = Experiments.design_of Experiments.Tiled_meta bench in
  let sizes = bench.Suite.sim_sizes in
  let reb = Rebalance.apply meta ~sizes in
  let c d = (Simulate.run d ~sizes).Simulate.cycles in
  Alcotest.(check bool) "faster" true (c reb < c meta);
  let a_m = (Area_model.of_design meta).Area_model.logic in
  let a_r = (Area_model.of_design reb).Area_model.logic in
  Alcotest.(check bool) "costs logic" true (a_r > a_m);
  (* reaches the neighborhood of the paper's 39.4x *)
  let base = Experiments.design_of Experiments.Baseline bench in
  let speedup = c base /. c reb in
  Alcotest.(check bool) "covers the paper's gda point" true (speedup > 39.4)

(* ---------------- area model unit tests ---------------- *)

let test_area_monotone_in_par () =
  let cost par = Area_model.of_design (design (pipe ~par "p")) in
  Alcotest.(check bool) "logic grows with par" true
    ((cost 16).Area_model.logic > (cost 1).Area_model.logic)

let test_double_buffer_costs_more () =
  let mem kind =
    { Hw.mem_name = "m"; kind; width_bits = 32; depth = 4096; banks = 1;
      readers = 1; writers = 1; mem_prov = Prov.none }
  in
  (* marginal cost of the memory alone: subtract the empty design *)
  let base = (Area_model.of_design (design (pipe "p"))).Area_model.bram in
  let a kind =
    (Area_model.of_design (design ~mems:[ mem kind ] (pipe "p"))).Area_model.bram
    -. base
  in
  Alcotest.(check bool) "double buffer = 2x bram" true
    (a Hw.Double_buffer >= (2.0 *. a Hw.Buffer) -. 1.0)

let () =
  Alcotest.run "sim"
    [ ( "controllers",
        [ Alcotest.test_case "pipe" `Quick test_pipe_cycles;
          Alcotest.test_case "seq" `Quick test_seq_sums;
          Alcotest.test_case "par" `Quick test_par_max;
          Alcotest.test_case "loop" `Quick test_loop_multiplies;
          Alcotest.test_case "metapipe overlap" `Quick test_metapipe_overlap;
          Alcotest.test_case "meta never slower" `Quick test_metapipe_never_slower;
          Alcotest.test_case "tile load" `Quick test_tile_load_cost;
          Alcotest.test_case "reuse factor" `Quick test_reuse_reduces_traffic ] );
      ( "direct access",
        [ Alcotest.test_case "dependent multiply" `Quick
            test_dependent_loops_multiply;
          Alcotest.test_case "burst locality window" `Quick
            test_burst_locality_window;
          Alcotest.test_case "non-contiguous" `Quick test_noncontiguous_costs_more;
          Alcotest.test_case "non-affine" `Quick test_nonaffine_costs_most ] );
      ( "invariants",
        [ Alcotest.test_case "tiled traffic <= baseline" `Quick
            test_tiling_never_moves_more ] );
      ( "fig5c",
        [ Alcotest.test_case "paper formulas" `Quick test_fig5c_formulas ] );
      ( "fig7",
        [ Alcotest.test_case "speedup shape" `Quick test_fig7_shape;
          Alcotest.test_case "area band" `Quick test_fig7_area_band ] );
      ( "sensitivity",
        [ Alcotest.test_case "ordering stable" `Quick
            test_sensitivity_ordering_stable ] );
      ( "breakdown",
        [ Alcotest.test_case "kmeans table" `Quick test_breakdown;
          Alcotest.test_case "bottleneck attribution" `Quick test_bottlenecks
        ] );
      ( "memoization",
        [ Alcotest.test_case "cached reports match uncached" `Quick
            test_memo_cache_consistency;
          Alcotest.test_case "cache stats" `Quick test_cache_stats ] );
      ( "rebalance",
        [ Alcotest.test_case "gda stage parallelization" `Quick test_rebalance ] );
      ( "area",
        [ Alcotest.test_case "par scaling" `Quick test_area_monotone_in_par;
          Alcotest.test_case "double buffer" `Quick test_double_buffer_costs_more
        ] ) ]
