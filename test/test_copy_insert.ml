(* Tile-copy inference (strip mining pass 2). *)

(* the passes on a program checked here *)
let strip_mine ~tiles p = Strip_mine.program (Validate.check_program p) ~tiles
let interchange ?budget_words p =
  Interchange.program ?budget_words (Validate.check_program p)

let value_eq = Value.equal ~eps:1e-6

let full_tiling ?budget_words (bench : Suite.bench) tiles =
  Copy_insert.program ?budget_words
    (interchange (strip_mine ~tiles bench.Suite.prog))

let count_copies prog =
  let n = ref 0 in
  Rewrite.iter_exp
    (function Ir.Copy _ -> incr n | _ -> ())
    prog.Ir.body;
  !n

(* ------------------------- structure ------------------------------ *)

let test_map_copy () =
  (* Table 2 row 1: tiled element-wise map reads from an explicit tile *)
  let d = Dsl.size "d" in
  let x = Dsl.input "x" Ty.float_ [ Ir.Var d ] in
  let prog =
    Dsl.program ~name:"scale" ~sizes:[ d ] ~max_sizes:[ (d, 1 lsl 20) ]
      ~inputs:[ x ]
      (Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun idx ->
           Dsl.( *! ) (Dsl.f 2.0) (Dsl.read (Dsl.in_var x) [ idx ])))
  in
  let tiled = Copy_insert.program (strip_mine ~tiles:[ (d, 8) ] prog) in
  ignore (Validate.check_program tiled);
  Alcotest.(check int) "one tile copy" 1 (count_copies tiled);
  (* no direct reads of the input remain *)
  let direct = ref 0 in
  Rewrite.iter_exp
    (function
      | Ir.Read (Ir.Var s, _) when Sym.equal s x.Ir.iname -> incr direct
      | _ -> ())
    tiled.Ir.body;
  Alcotest.(check int) "no direct input reads" 0 !direct

let test_kmeans_centroid_preload () =
  (* Fig. 6: when only n is tiled, the centroids copy has no strided
     offsets and is hoisted to the top of the program (Pipe 0's preload) *)
  let t = Kmeans.make () in
  let prog, stats =
    Copy_insert.program_with_stats
      (interchange
         (strip_mine ~tiles:[ (t.Kmeans.n, 8) ] t.Kmeans.prog))
  in
  ignore (Validate.check_program prog);
  (match prog.Ir.body with
  | Ir.Let (_, Ir.Copy { csrc = Ir.Var s; _ }, _)
    when Sym.equal s t.Kmeans.centroids.Ir.iname ->
      ()
  | Ir.Let (_, Ir.Copy { csrc = Ir.Var s; _ }, Ir.Let (_, Ir.Copy { csrc = Ir.Var s2; _ }, _))
    when Sym.equal s t.Kmeans.centroids.Ir.iname
         || Sym.equal s2 t.Kmeans.centroids.Ir.iname ->
      ()
  | _ -> Alcotest.fail "centroids not preloaded at top level");
  (* the scatter at minDistIndex stays non-affine *)
  Alcotest.(check bool) "non-affine reads skipped" true
    (stats.Copy_insert.skipped_nonaffine >= 0)

let test_kmeans_tile_in_k_loop () =
  (* Fig. 5b: with k tiled, the centroids tile is copied inside the
     strided fold over centroid tiles *)
  let t = Kmeans.make () in
  let bench = Suite.find (Suite.all ()) "kmeans" in
  ignore bench;
  let prog =
    Copy_insert.program
      (interchange
         (strip_mine
            ~tiles:[ (t.Kmeans.n, 8); (t.Kmeans.k, 2) ]
            t.Kmeans.prog))
  in
  ignore (Validate.check_program prog);
  let found = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Fold { fdims = [ Ir.Dtiles { tile = 2; _ } ]; fupd; _ } ->
          (match fupd with
          | Ir.Let (_, Ir.Copy { csrc = Ir.Var s; _ }, _)
            when Sym.equal s t.Kmeans.centroids.Ir.iname ->
              found := true
          | _ -> ())
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check bool) "centroids tile inside k-tile fold" true !found

let test_gemm_ytile_placement () =
  (* Table 3 interchanged: the y tile is copied inside the p-tile fold *)
  let t = Gemm.make () in
  let prog =
    Copy_insert.program
      (interchange
         (strip_mine
            ~tiles:[ (t.Gemm.m, 4); (t.Gemm.n, 4); (t.Gemm.p, 4) ]
            t.Gemm.prog))
  in
  ignore (Validate.check_program prog);
  let found = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Fold { fdims = [ Ir.Dtiles { tile = 4; _ } ]; fupd; _ } ->
          let rec lets = function
            | Ir.Let (_, Ir.Copy { csrc = Ir.Var s; _ }, rest) ->
                Sym.equal s t.Gemm.y.Ir.iname || lets rest
            | _ -> false
          in
          if lets fupd then found := true
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check bool) "y tile inside p-tile fold" true !found

let test_gda_dedup_and_cache () =
  let t = Gda.make () in
  let prog, stats =
    Copy_insert.program_with_stats
      (interchange
         (strip_mine ~tiles:[ (t.Gda.n, 8) ] t.Gda.prog))
  in
  ignore (Validate.check_program prog);
  (* x is read twice (row r and row c of the outer product) but through
     one deduplicated tile; mu's data-dependent read is skipped *)
  Alcotest.(check bool) "mu read left non-affine" true
    (stats.Copy_insert.skipped_nonaffine >= 1);
  let x_copies = ref 0 in
  Rewrite.iter_exp
    (function
      | Ir.Copy { csrc = Ir.Var s; _ } when Sym.equal s t.Gda.x.Ir.iname ->
          incr x_copies
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check int) "one x tile" 1 !x_copies

let test_budget_gate () =
  (* a tiny budget suppresses all copies *)
  let t = Outerprod.make () in
  let stripped =
    strip_mine ~tiles:[ (t.Outerprod.m, 4); (t.Outerprod.n, 4) ]
      t.Outerprod.prog
  in
  let prog = Copy_insert.program ~budget_words:1 stripped in
  Alcotest.(check int) "no copies under tiny budget" 0 (count_copies prog)

(* ------------------------- semantics ------------------------------ *)

let test_equivalence (bench : Suite.bench) () =
  List.iter
    (fun tile ->
      let tiles = List.map (fun (s, _) -> (s, tile)) bench.Suite.tiles in
      let prog = full_tiling bench tiles in
      ignore (Validate.check_program prog);
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed:21 in
      let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
      let actual = Eval.eval_program prog ~sizes ~inputs in
      if not (value_eq expected actual) then
        Alcotest.failf "%s tile=%d mismatch:@.expected %s@.got %s"
          bench.Suite.name tile
          (Value.to_string expected)
          (Value.to_string actual))
    [ 2; 4; 7 ]

let prop_sliding_window =
  (* 1-D convolution: reads x(i + w) with two local terms; the copy gets a
     reuse factor and the program stays correct *)
  QCheck.Test.make ~name:"sliding window copy equivalence" ~count:30
    QCheck.(pair (int_range 3 40) (int_range 1 8))
    (fun (n, tile) ->
      let d = Dsl.size "d" in
      let x = Dsl.input "x" Ty.float_ [ Ir.Prim (Ir.Add, [ Ir.Var d; Ir.Ci 2 ]) ] in
      let body =
        Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun idx ->
            Dsl.fold1 (Dsl.dfull (Dsl.i 3)) ~init:(Dsl.f 0.0)
              ~comb:(fun a b -> Dsl.( +! ) a b)
              (fun w acc ->
                Dsl.( +! ) acc
                  (Dsl.read (Dsl.in_var x) [ Dsl.( +! ) idx w ])))
      in
      let prog =
        Dsl.program ~name:"conv" ~sizes:[ d ] ~max_sizes:[ (d, 1 lsl 16) ]
          ~inputs:[ x ] body
      in
      let tiled =
        Copy_insert.program (strip_mine ~tiles:[ (d, tile) ] prog)
      in
      ignore (Validate.check_program tiled);
      let rng = Workloads.Rng.make (n * tile) in
      let xs = Workloads.float_vector rng (n + 2) in
      let inputs = [ (x.Ir.iname, Workloads.value_of_vector xs) ] in
      let sizes = [ (d, n) ] in
      value_eq
        (Eval.eval_program prog ~sizes ~inputs)
        (Eval.eval_program tiled ~sizes ~inputs))

let prop_window_has_reuse =
  QCheck.Test.make ~name:"sliding window marks reuse" ~count:1 QCheck.unit
    (fun () ->
      let d = Dsl.size "d" in
      let x = Dsl.input "x" Ty.float_ [ Ir.Prim (Ir.Add, [ Ir.Var d; Ir.Ci 2 ]) ] in
      let body =
        Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun idx ->
            Dsl.fold1 (Dsl.dfull (Dsl.i 3)) ~init:(Dsl.f 0.0)
              ~comb:(fun a b -> Dsl.( +! ) a b)
              (fun w acc ->
                Dsl.( +! ) acc (Dsl.read (Dsl.in_var x) [ Dsl.( +! ) idx w ])))
      in
      let prog =
        Dsl.program ~name:"conv" ~sizes:[ d ] ~max_sizes:[ (d, 1 lsl 16) ]
          ~inputs:[ x ] body
      in
      let tiled =
        Copy_insert.program (strip_mine ~tiles:[ (d, 8) ] prog)
      in
      let reuse = ref 0 in
      Rewrite.iter_exp
        (function Ir.Copy { creuse; _ } -> reuse := max !reuse creuse | _ -> ())
        tiled.Ir.body;
      !reuse >= 2)

let () =
  let suite = Suite.all () in
  Alcotest.run "copy_insert"
    [ ( "structure",
        [ Alcotest.test_case "map tile copy" `Quick test_map_copy;
          Alcotest.test_case "kmeans centroid preload" `Quick
            test_kmeans_centroid_preload;
          Alcotest.test_case "kmeans k-tile copy" `Quick
            test_kmeans_tile_in_k_loop;
          Alcotest.test_case "gemm yTile placement" `Quick
            test_gemm_ytile_placement;
          Alcotest.test_case "gda dedup + cache" `Quick test_gda_dedup_and_cache;
          Alcotest.test_case "budget gate" `Quick test_budget_gate ] );
      ( "equivalence",
        List.map
          (fun bench ->
            Alcotest.test_case bench.Suite.name `Quick (test_equivalence bench))
          suite );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sliding_window;
          QCheck_alcotest.to_alcotest prop_window_has_reuse ] ) ]
