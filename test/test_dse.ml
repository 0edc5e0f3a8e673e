(* Automated tile-size selection (the paper's future-work DSE loop). *)

let test_best_is_fastest_feasible () =
  let bench = Suite.find (Suite.all ()) "gemm" in
  let r = Dse.explore_bench bench in
  match r.Dse.best with
  | None -> Alcotest.fail "no feasible point"
  | Some best ->
      Alcotest.(check bool) "best is feasible" true best.Dse.feasible;
      List.iter
        (fun p ->
          if p.Dse.feasible then
            Alcotest.(check bool) "best is fastest feasible" true
              (best.Dse.cycles <= p.Dse.cycles +. 1e-6))
        r.Dse.points

let test_points_sorted () =
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let r = Dse.explore_bench bench in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Dse.cycles <= b.Dse.cycles && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cycles" true (sorted r.Dse.points);
  Alcotest.(check bool) "several points" true (List.length r.Dse.points >= 9)

let test_budget_excludes () =
  (* an absurdly small budget leaves no feasible point *)
  let bench = Suite.find (Suite.all ()) "gemm" in
  let r = Dse.explore_bench ~bram_budget:1.0 bench in
  Alcotest.(check bool) "nothing feasible" true (r.Dse.best = None);
  List.iter
    (fun p -> Alcotest.(check bool) "marked infeasible" false p.Dse.feasible)
    r.Dse.points

let test_budget_tradeoff () =
  (* a tight (but achievable) budget can only make the selected design
     slower or equal *)
  let bench = Suite.find (Suite.all ()) "gemm" in
  let loose = Dse.explore_bench ~bram_budget:4000.0 bench in
  let tight = Dse.explore_bench ~bram_budget:700.0 bench in
  match (loose.Dse.best, tight.Dse.best) with
  | Some l, Some t ->
      Alcotest.(check bool) "tight budget no faster" true
        (t.Dse.cycles >= l.Dse.cycles -. 1e-6);
      Alcotest.(check bool) "tight budget respected" true
        (t.Dse.area.Area_model.bram <= 700.0)
  | _ -> Alcotest.fail "expected feasible points at both budgets"

let test_explicit_candidates () =
  let t = Gemm.make () in
  let r =
    Dse.explore_joint ~prog:t.Gemm.prog
      ~candidates:[ (t.Gemm.m, [ 32; 64 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 16; 32 ]) ]
      ~pars:[ 16 ]
      ~sizes:[ (t.Gemm.m, 512); (t.Gemm.n, 512); (t.Gemm.p, 512) ]
      ()
  in
  Alcotest.(check int) "cartesian product size" 4 (List.length r.Dse.points)

let test_joint_par_exploration () =
  let bench = Suite.find (Suite.all ()) "gda" in
  let r = Dse.explore_bench ~pars:[ 4; 16; 64 ] bench in
  (* three par points per tile assignment *)
  let tiles_assignments =
    List.sort_uniq compare (List.map (fun p -> p.Dse.tiles) r.Dse.points)
  in
  Alcotest.(check int) "3 pars per assignment"
    (3 * List.length tiles_assignments)
    (List.length r.Dse.points);
  (* on compute-bound gda, more parallelism is never slower at the same
     tiles (the model divides iteration count by par) *)
  List.iter
    (fun tiles ->
      let at par =
        (List.find (fun p -> p.Dse.tiles = tiles && p.Dse.par = par) r.Dse.points)
          .Dse.cycles
      in
      Alcotest.(check bool) "par=64 <= par=4" true (at 64 <= at 4 +. 1e-6))
    tiles_assignments;
  (* the selected point is still the fastest feasible *)
  match r.Dse.best with
  | None -> Alcotest.fail "no feasible point"
  | Some best ->
      List.iter
        (fun p ->
          if p.Dse.feasible then
            Alcotest.(check bool) "best fastest" true
              (best.Dse.cycles <= p.Dse.cycles +. 1e-6))
        r.Dse.points

(* ---------------- parallel sweeps ---------------- *)

let test_parallel_matches_sequential () =
  (* parallel exploration must be bit-identical to sequential: same
     points in the same order (structural equality compares the floats
     exactly, no tolerance) and the same selected best *)
  List.iter
    (fun name ->
      let bench = Suite.find (Suite.all ()) name in
      let seq = Dse.explore_bench ~domains:1 ~pars:[ 4; 16 ] bench in
      let par = Dse.explore_bench ~domains:3 ~pars:[ 4; 16 ] bench in
      Alcotest.(check int)
        (name ^ ": same point count")
        (List.length seq.Dse.points)
        (List.length par.Dse.points);
      Alcotest.(check bool) (name ^ ": bit-identical points") true
        (seq.Dse.points = par.Dse.points);
      Alcotest.(check bool) (name ^ ": same best") true
        (seq.Dse.best = par.Dse.best);
      Alcotest.(check bool) (name ^ ": same skips") true
        (seq.Dse.skipped = par.Dse.skipped))
    [ "gemm"; "kmeans" ]

(* ---------------- failure handling ---------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_skipped_points_reported () =
  (* a tile size the tiler rejects must not silently vanish: the sweep
     records the assignment and the reason, and still evaluates the rest *)
  let t = Gemm.make () in
  let r =
    Dse.explore_joint ~prog:t.Gemm.prog
      ~candidates:
        [ (t.Gemm.m, [ 0; 32 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 16; 32 ]) ]
      ~pars:[ 16 ]
      ~sizes:[ (t.Gemm.m, 512); (t.Gemm.n, 512); (t.Gemm.p, 512) ]
      ()
  in
  Alcotest.(check int) "two assignments skipped" 2 (List.length r.Dse.skipped);
  Alcotest.(check int) "two assignments evaluated" 2 (List.length r.Dse.points);
  List.iter
    (fun s ->
      Alcotest.(check bool) "skip names the bad tile" true
        (List.mem_assoc t.Gemm.m s.Dse.sk_tiles);
      Alcotest.(check bool) "reason mentions the tile size" true
        (contains s.Dse.sk_reason "tile size"))
    r.Dse.skipped

let test_genuine_bugs_propagate () =
  (* only tiling rejections are recorded as skips; an error downstream of
     the tiler (here: simulating with a size parameter missing) is a bug
     in the caller's setup and must escape the sweep *)
  let t = Gemm.make () in
  match
    Dse.explore_joint ~prog:t.Gemm.prog
      ~candidates:[ (t.Gemm.m, [ 32 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 32 ]) ]
      ~pars:[ 16 ]
      ~sizes:[ (t.Gemm.m, 512) ]
      ()
  with
  | _ -> Alcotest.fail "expected the missing-size error to propagate"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the missing size" true
        (contains msg "missing size")

(* ---------------- default-tile regressions ---------------- *)

let tiny_bench () =
  (* a benchmark whose default tile (1) is smaller than every candidate
     the old `b >= 8` filter kept — the sweep used to come back empty *)
  let d = Dsl.size "d" in
  let x = Dsl.input "x" Ty.float_ [ Ir.Var d ] in
  let prog =
    Dsl.program ~name:"tiny" ~sizes:[ d ] ~inputs:[ x ]
      (Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun i ->
           Dsl.( *! ) (Dsl.f 2.0) (Dsl.read (Dsl.in_var x) [ i ])))
  in
  { Suite.name = "tiny";
    description = "unit-tile map";
    collection_ops = "Map";
    prog;
    tiles = [ (d, 1) ];
    sim_sizes = [ (d, 4096) ];
    test_sizes = [ (d, 16) ];
    gen = (fun ~sizes:_ ~seed:_ -> []) }

let test_small_default_kept () =
  let r = Dse.explore_bench (tiny_bench ()) in
  Alcotest.(check bool) "sweep not empty" true (r.Dse.points <> []);
  Alcotest.(check bool) "default tile evaluated" true
    (List.exists
       (fun p -> List.exists (fun (_, b) -> b = 1) p.Dse.tiles)
       r.Dse.points);
  Alcotest.(check bool) "a best exists" true (r.Dse.best <> None)

let test_nan_cycles_never_selected () =
  (* a machine description gone wrong (NaN bandwidth) makes every cycle
     count NaN; NaN must read as infeasible, never as the best point *)
  let machine =
    { Machine.default with Machine.stream_words_per_cycle = Float.nan }
  in
  let t = Gemm.make () in
  let r =
    Dse.explore_joint ~machine ~prog:t.Gemm.prog
      ~candidates:
        [ (t.Gemm.m, [ 32; 64 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 32 ]) ]
      ~pars:[ 16 ]
      ~sizes:[ (t.Gemm.m, 512); (t.Gemm.n, 512); (t.Gemm.p, 512) ]
      ()
  in
  Alcotest.(check bool) "points evaluated" true (r.Dse.points <> []);
  Alcotest.(check bool) "no best under NaN cycles" true (r.Dse.best = None);
  List.iter
    (fun p ->
      Alcotest.(check bool) "NaN point infeasible" false p.Dse.feasible)
    r.Dse.points

(* ---------------- staged sweep ---------------- *)

(* The sweep as it was before tiling was staged: the whole [Tiling.run]
   per candidate, [explore_bench]'s candidate rule, sequential
   evaluation, and the same order and selection. *)
let oracle_sweep ?(bram_budget = 2560.0) ~prog ~candidates ~pars ~sizes () =
  let cartesian =
    List.fold_right
      (fun (s, sizes) acc ->
        List.concat_map (fun rest -> List.map (fun b -> (s, b) :: rest) sizes) acc)
      candidates [ [] ]
  in
  let eval tiles =
    match Tiling.run ~tiles prog with
    | exception Invalid_argument reason ->
        Error { Dse.sk_tiles = tiles; sk_reason = reason }
    | exception Validate.Type_error reason ->
        Error { Dse.sk_tiles = tiles; sk_reason = reason }
    | r ->
        Ok
          (List.map
             (fun par ->
               let design =
                 Lower.program { Lower.default_opts with Lower.par } r.Tiling.tiled
               in
               let cycles = (Simulate.run design ~sizes).Simulate.cycles in
               let area = Area_model.of_design design in
               { Dse.tiles;
                 par;
                 cycles;
                 area;
                 feasible =
                   Float.is_finite cycles
                   && area.Area_model.bram <= bram_budget
                   && Area_model.fits area })
             pars)
  in
  let evaluated = List.map eval cartesian in
  let order (a : Dse.point) (b : Dse.point) =
    match (Float.is_finite a.Dse.cycles, Float.is_finite b.Dse.cycles) with
    | true, false -> -1
    | false, true -> 1
    | _ -> Float.compare a.Dse.cycles b.Dse.cycles
  in
  let points =
    List.sort order (List.concat_map (function Ok ps -> ps | Error _ -> []) evaluated)
  in
  { Dse.points;
    best = List.find_opt (fun (p : Dse.point) -> p.Dse.feasible) points;
    skipped = List.filter_map (function Error s -> Some s | Ok _ -> None) evaluated }

let bench_candidates (bench : Suite.bench) =
  List.map
    (fun (s, default) ->
      ( s,
        List.sort_uniq compare
          (default
          :: List.filter
               (fun b -> b >= 8)
               [ default / 4; default / 2; default; default * 2; default * 4 ]) ))
    bench.Suite.tiles

let check_same_result msg (expected : Dse.result) (actual : Dse.result) =
  Alcotest.(check int) (msg ^ ": point count")
    (List.length expected.Dse.points) (List.length actual.Dse.points);
  Alcotest.(check bool) (msg ^ ": identical points") true
    (expected.Dse.points = actual.Dse.points);
  Alcotest.(check bool) (msg ^ ": same best") true
    (expected.Dse.best = actual.Dse.best);
  Alcotest.(check (list string)) (msg ^ ": same skip reasons")
    (List.map (fun s -> s.Dse.sk_reason) expected.Dse.skipped)
    (List.map (fun s -> s.Dse.sk_reason) actual.Dse.skipped);
  Alcotest.(check bool) (msg ^ ": identical skips") true
    (expected.Dse.skipped = actual.Dse.skipped)

let test_staged_matches_oracle () =
  (* floats compared exactly: staging must not move a single cycle *)
  let pars = [ 4; 16; 64 ] in
  List.iter
    (fun (bench : Suite.bench) ->
      let oracle =
        oracle_sweep ~prog:bench.Suite.prog ~candidates:(bench_candidates bench)
          ~pars ~sizes:bench.Suite.sim_sizes ()
      in
      Alcotest.(check bool) (bench.Suite.name ^ ": oracle not empty") true
        (oracle.Dse.points <> []);
      List.iter
        (fun domains ->
          check_same_result
            (Printf.sprintf "%s, %d domain(s)" bench.Suite.name domains)
            oracle
            (Dse.explore_bench ~domains ~pars bench))
        [ 1; 2 ])
    (Suite.extended ())

let ill_typed () =
  (* [i + 2.0] adds an int index to a float *)
  let d = Dsl.size "d" in
  let x = Dsl.input "x" Ty.float_ [ Ir.Var d ] in
  ( d,
    Dsl.program ~name:"ill_typed" ~sizes:[ d ] ~inputs:[ x ]
      (Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun i -> Dsl.( +! ) i (Dsl.f 2.0))) )

let test_skip_reasons_unchanged () =
  let t = Gemm.make () in
  let bogus = Sym.fresh "bogus" in
  let d, bad = ill_typed () in
  let cases =
    [ ( "zero tile",
        t.Gemm.prog,
        [ (t.Gemm.m, [ 0; 32 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 32 ]) ],
        [ (t.Gemm.m, 512); (t.Gemm.n, 512); (t.Gemm.p, 512) ],
        [ Printf.sprintf "Tiling.run: tile size 0 for %s" (Sym.name t.Gemm.m) ] );
      ( "non-size tile",
        t.Gemm.prog,
        [ (t.Gemm.m, [ 32 ]); (t.Gemm.n, [ 32 ]); (t.Gemm.p, [ 32 ]);
          (bogus, [ 8 ]) ],
        [ (t.Gemm.m, 512); (t.Gemm.n, 512); (t.Gemm.p, 512) ],
        [ Printf.sprintf "Tiling.run: %s is not a size parameter of gemm"
            (Sym.name bogus) ] );
      ( "ill-typed program",
        bad,
        [ (d, [ 0; 16 ]) ],
        [ (d, 4096) ],
        [ Printf.sprintf "Tiling.run: tile size 0 for %s" (Sym.name d);
          (match Tiling.run ~tiles:[ (d, 16) ] bad with
          | _ -> Alcotest.fail "ill-typed program accepted"
          | exception Validate.Type_error reason -> reason) ] );
      ( "ill-typed program, non-size tile",
        bad,
        [ (d, [ 16 ]); (bogus, [ 8 ]) ],
        [ (d, 4096) ],
        [ Printf.sprintf "Tiling.run: %s is not a size parameter of ill_typed"
            (Sym.name bogus) ] ) ]
  in
  List.iter
    (fun (name, prog, candidates, sizes, reasons) ->
      let pars = [ Lower.default_opts.Lower.par ] in
      let staged = Dse.explore_joint ~prog ~candidates ~pars ~sizes () in
      check_same_result name
        (oracle_sweep ~prog ~candidates ~pars ~sizes ())
        staged;
      Alcotest.(check (list string)) (name ^ ": reasons") reasons
        (List.map (fun s -> s.Dse.sk_reason) staged.Dse.skipped))
    cases

let test_par_below_one_rejected () =
  (* a par below 1 is refused before any candidate is tiled, so no pass
     runs and no point is counted *)
  let bench = Suite.find (Suite.all ()) "gemm" in
  List.iter
    (fun pars ->
      let base = Metrics.snapshot () in
      (match Dse.explore_bench ~pars bench with
      | _ -> Alcotest.fail "expected Invalid_argument for a par below 1"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "message names the par" true
            (contains msg "par"));
      Alcotest.(check (list string)) "no work done" []
        (List.map fst (Metrics.diff ~base (Metrics.snapshot ()))))
    [ [ 0 ]; [ -1 ]; [ 4; 0 ] ]

let test_duplicate_pars () =
  (* each par is evaluated once, at its first occurrence *)
  let bench = Suite.find (Suite.all ()) "sumrows" in
  check_same_result "repeated pars"
    (Dse.explore_bench ~pars:[ 16; 4 ] bench)
    (Dse.explore_bench ~pars:[ 16; 4; 16; 4; 4 ] bench);
  check_same_result "a par twice"
    (Dse.explore_bench ~pars:[ 4 ] bench)
    (Dse.explore_bench ~pars:[ 4; 4 ] bench)

let test_repeated_parallel_sweeps () =
  (* back-to-back sweeps reuse the pool's helper domains; every one must
     still equal the one-domain sweep, point for point *)
  let bench = Suite.find (Suite.all ()) "gemm" in
  let seq = Dse.explore_bench ~domains:1 ~pars:[ 4; 16 ] bench in
  for k = 1 to 20 do
    check_same_result
      (Printf.sprintf "sweep %d" k)
      seq
      (Dse.explore_bench ~domains:2 ~pars:[ 4; 16 ] bench)
  done

let () =
  Alcotest.run "dse"
    [ ( "exploration",
        [ Alcotest.test_case "best is fastest feasible" `Quick
            test_best_is_fastest_feasible;
          Alcotest.test_case "points sorted" `Quick test_points_sorted;
          Alcotest.test_case "tiny budget excludes all" `Quick
            test_budget_excludes;
          Alcotest.test_case "budget tradeoff" `Quick test_budget_tradeoff;
          Alcotest.test_case "explicit candidates" `Quick
            test_explicit_candidates;
          Alcotest.test_case "joint par exploration" `Quick
            test_joint_par_exploration ] );
      ( "parallel",
        [ Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "repeated parallel sweeps" `Quick
            test_repeated_parallel_sweeps ] );
      ( "staged sweep",
        [ Alcotest.test_case "matches per-point Tiling.run" `Quick
            test_staged_matches_oracle;
          Alcotest.test_case "skip reasons unchanged" `Quick
            test_skip_reasons_unchanged ] );
      ( "failure handling",
        [ Alcotest.test_case "skipped points reported" `Quick
            test_skipped_points_reported;
          Alcotest.test_case "par below 1 rejected" `Quick
            test_par_below_one_rejected;
          Alcotest.test_case "repeated pars evaluated once" `Quick
            test_duplicate_pars;
          Alcotest.test_case "genuine bugs propagate" `Quick
            test_genuine_bugs_propagate ] );
      ( "regressions",
        [ Alcotest.test_case "small default kept" `Quick
            test_small_default_kept;
          Alcotest.test_case "NaN cycles never selected" `Quick
            test_nan_cycles_never_selected ] ) ]
