(* Strip mining (Table 1 / Table 2): structural expectations on the tiled
   forms plus semantic equivalence against the untiled programs for every
   benchmark, including ragged sizes where tiles do not divide the
   domain. *)

(* the passes on a program checked here *)
let strip_mine ~tiles p = Strip_mine.program (Validate.check_program p) ~tiles

open Dsl

let value_eq = Value.equal ~eps:1e-6

let check_value msg expected actual =
  if not (value_eq expected actual) then
    Alcotest.failf "%s:@.expected %s@.got %s" msg (Value.to_string expected)
      (Value.to_string actual)

let strip (bench : Suite.bench) =
  strip_mine ~tiles:bench.Suite.tiles bench.Suite.prog

(* every strip-mined benchmark still type checks, with the same type *)
let test_types_preserved () =
  List.iter
    (fun bench ->
      let t0 = Validate.result (Validate.check_program bench.Suite.prog) in
      let t1 = Validate.result (Validate.check_program (strip bench)) in
      Alcotest.(check bool)
        (bench.Suite.name ^ " type preserved")
        true (Ty.equal t0 t1))
    (Suite.all ())

let equivalence_sizes (bench : Suite.bench) =
  (* ragged: sizes deliberately not multiples of the tile sizes *)
  let ragged =
    List.map
      (fun (s, v) ->
        let tile =
          match List.find_opt (fun (t, _) -> Sym.equal t s) bench.Suite.tiles with
          | Some (_, b) -> b
          | None -> 1
        in
        ignore tile;
        (s, v))
      bench.Suite.test_sizes
  in
  [ bench.Suite.test_sizes; ragged ]

let test_equivalence (bench : Suite.bench) () =
  let tiled = strip bench in
  List.iter
    (fun sizes ->
      List.iter
        (fun seed ->
          let inputs = bench.Suite.gen ~sizes ~seed in
          let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
          let actual = Eval.eval_program tiled ~sizes ~inputs in
          check_value
            (Printf.sprintf "%s seed=%d" bench.Suite.name seed)
            expected actual;
          (* tiled program in chunked mode exercises the generated combs *)
          let chunked =
            Eval.eval_program ~mode:(Eval.Chunked 3) tiled ~sizes ~inputs
          in
          check_value
            (Printf.sprintf "%s chunked seed=%d" bench.Suite.name seed)
            expected chunked)
        [ 1; 2; 3 ])
    (equivalence_sizes bench)

(* -------------------- tile configurations for small sizes ------------- *)

(* The suite's test sizes are small, so retile with small tiles that do and
   do not divide the extents. *)
let small_tiles (bench : Suite.bench) tile =
  List.map (fun (s, _) -> (s, tile)) bench.Suite.tiles

let test_small_tiles (bench : Suite.bench) () =
  List.iter
    (fun tile ->
      let tiled =
        strip_mine ~tiles:(small_tiles bench tile) bench.Suite.prog
      in
      ignore (Validate.check_program tiled);
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed:99 in
      let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
      let actual = Eval.eval_program tiled ~sizes ~inputs in
      check_value
        (Printf.sprintf "%s tile=%d" bench.Suite.name tile)
        expected actual)
    [ 2; 3; 4; 7 ]

(* -------------------- structural expectations (Table 1/2) ------------- *)

let test_map_rule_structure () =
  (* map(d){ i => 2*x(i) } strip mines to a MultiFold over tiles with an
     inner Map over each tile and no combine (Table 2 row 1) *)
  let d = size "d" in
  let x = input "x" Ty.float_ [ Ir.Var d ] in
  let prog =
    program ~name:"scale" ~sizes:[ d ] ~inputs:[ x ]
      (map1 (dfull (Ir.Var d)) (fun idx -> f 2.0 *! read (in_var x) [ idx ]))
  in
  let tiled = strip_mine ~tiles:[ (d, 4) ] prog in
  match tiled.Ir.body with
  | Ir.MultiFold { odims = [ Ir.Dtiles { tile = 4; _ } ]; ocomb = None;
                   oouts = [ out ]; _ } -> (
      (match out.Ir.oregion with
      | [ (Ir.Prim (Ir.Mul, [ Ir.Var _; Ir.Ci 4 ]), _, Some 4) ] -> ()
      | _ -> Alcotest.fail "unexpected region");
      match out.Ir.oupd with
      | Ir.Map { mdims = [ Ir.Dtail { tile = 4; _ } ]; _ } -> ()
      | _ -> Alcotest.fail "inner pattern is not a tile Map")
  | _ -> Alcotest.fail "outer pattern is not a tile MultiFold"

let test_fold_rule_structure () =
  (* fold strip mines to a strided fold of per-tile folds *)
  let d = size "d" in
  let x = input "x" Ty.float_ [ Ir.Var d ] in
  let prog =
    program ~name:"sum" ~sizes:[ d ] ~inputs:[ x ]
      (fold1
         (dfull (Ir.Var d))
         ~init:(f 0.0)
         ~comb:(fun a b -> a +! b)
         (fun idx acc -> acc +! read (in_var x) [ idx ]))
  in
  let tiled = strip_mine ~tiles:[ (d, 8) ] prog in
  match tiled.Ir.body with
  | Ir.Fold { fdims = [ Ir.Dtiles { tile = 8; _ } ]; fupd; _ } ->
      let has_inner_fold =
        Rewrite.exists_exp
          (function
            | Ir.Fold { fdims = [ Ir.Dtail { tile = 8; _ } ]; _ } -> true
            | _ -> false)
          fupd
      in
      Alcotest.(check bool) "inner tile fold" true has_inner_fold
  | _ -> Alcotest.fail "outer pattern is not a strided fold"

let test_sumrows_localization () =
  (* Table 2 row 2: the inner MultiFold accumulates into a tile-sized
     buffer (range = tile extents), the outer writes tile slices *)
  let t = Sumrows.make () in
  let tiled =
    strip_mine
      ~tiles:[ (t.Sumrows.m, 4); (t.Sumrows.n, 8) ]
      t.Sumrows.prog
  in
  match tiled.Ir.body with
  | Ir.MultiFold
      { odims = [ Ir.Dtiles { tile = 4; _ }; Ir.Dtiles { tile = 8; _ } ];
        oouts = [ out ];
        ocomb = Some _; _ } -> (
      (* outer region: a tile-sized slice of the m-range *)
      (match out.Ir.oregion with
      | [ (Ir.Prim (Ir.Mul, [ Ir.Var _; Ir.Ci 4 ]), _, Some 4) ] -> ()
      | _ -> Alcotest.fail "outer region is not the m-tile slice");
      (* the inner MultiFold reduces into a b0-sized accumulator *)
      let inner_local =
        Rewrite.exists_exp
          (function
            | Ir.MultiFold { oinit = Ir.Zeros (_, [ shape0 ]); _ } ->
                shape0 <> Ir.Var t.Sumrows.m
            | _ -> false)
          out.Ir.oupd
      in
      Alcotest.(check bool) "inner accumulator localized" true inner_local)
  | _ -> Alcotest.fail "sumrows did not localize"

let test_kmeans_fold_shape () =
  (* Fig. 5a: the points loop becomes a strided Fold whose body contains a
     per-tile MultiFold carrying the shared minDist binding *)
  let t = Kmeans.make () in
  let tiled =
    strip_mine ~tiles:[ (t.Kmeans.n, 8); (t.Kmeans.k, 2) ] t.Kmeans.prog
  in
  let has_outer_fold = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Fold { fdims = [ Ir.Dtiles { tile = 8; _ } ]; fupd; _ } ->
          if
            Rewrite.exists_exp
              (function
                | Ir.MultiFold { olets = _ :: _; odims = [ Ir.Dtail _ ]; _ } ->
                    true
                | _ -> false)
              fupd
          then has_outer_fold := true
      | _ -> ())
    tiled.Ir.body;
  Alcotest.(check bool) "fig 5a shape" true !has_outer_fold

let test_flatmap_rule_structure () =
  let t = Tpchq6.make () in
  let tiled = strip_mine ~tiles:[ (t.Tpchq6.n, 16) ] t.Tpchq6.prog in
  let nested =
    Rewrite.exists_exp
      (function
        | Ir.FlatMap { fmdim = Ir.Dtiles { tile = 16; _ }; fmbody; _ } -> (
            match fmbody with
            | Ir.FlatMap { fmdim = Ir.Dtail { tile = 16; _ }; _ } -> true
            | _ -> false)
        | _ -> false)
      tiled.Ir.body
  in
  Alcotest.(check bool) "nested flatmap" true nested

let test_groupbyfold_rule_structure () =
  let t = Histogram.make () in
  let tiled = strip_mine ~tiles:[ (t.Histogram.n, 16) ] t.Histogram.prog in
  (match tiled.Ir.body with
  | Ir.GroupByFold { gdims = [ Ir.Dtiles { tile = 16; _ }; Ir.Dtail _ ]; _ } -> ()
  | _ -> Alcotest.fail "groupByFold not flattened-tiled");
  (* semantics preserved *)
  let sizes = [ (t.Histogram.n, 50) ] in
  let inputs = Histogram.gen_inputs t ~seed:4 ~n:50 in
  check_value "histogram tiled"
    (Eval.eval_program t.Histogram.prog ~sizes ~inputs)
    (Eval.eval_program tiled ~sizes ~inputs)

let test_untiled_untouched () =
  (* strip mining with an empty tile set is the identity on structure *)
  List.iter
    (fun bench ->
      let out = strip_mine ~tiles:[] bench.Suite.prog in
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed:0 in
      check_value
        (bench.Suite.name ^ " no-tiles identity")
        (Eval.eval_program bench.Suite.prog ~sizes ~inputs)
        (Eval.eval_program out ~sizes ~inputs))
    (Suite.all ())

(* property: equivalence at random sizes and tiles for the small kernels *)
let prop_map_fold_equiv =
  QCheck.Test.make ~name:"map+fold strip mining equivalence" ~count:40
    QCheck.(triple (int_range 1 30) (int_range 1 9) (int_range 0 100))
    (fun (dval, tile, seed) ->
      let d = size "d" in
      let x = input "x" Ty.float_ [ Ir.Var d ] in
      let body =
        let_ ~name:"doubled"
          (map1 (dfull (Ir.Var d)) (fun idx -> f 2.0 *! read (in_var x) [ idx ]))
          (fun doubled ->
            fold1
              (dfull (Ir.Var d))
              ~init:(f 0.0)
              ~comb:(fun a b -> a +! b)
              (fun idx acc -> acc +! read doubled [ idx ]))
      in
      let prog = program ~name:"p" ~sizes:[ d ] ~inputs:[ x ] body in
      let tiled = strip_mine ~tiles:[ (d, tile) ] prog in
      let rng = Workloads.Rng.make seed in
      let xs = Workloads.float_vector rng dval in
      let inputs = [ (x.Ir.iname, Workloads.value_of_vector xs) ] in
      let sizes = [ (d, dval) ] in
      value_eq
        (Eval.eval_program prog ~sizes ~inputs)
        (Eval.eval_program tiled ~sizes ~inputs))

let () =
  let suite = Suite.all () in
  Alcotest.run "strip_mine"
    [ ( "structure",
        [ Alcotest.test_case "map rule" `Quick test_map_rule_structure;
          Alcotest.test_case "fold rule" `Quick test_fold_rule_structure;
          Alcotest.test_case "sumrows localization" `Quick
            test_sumrows_localization;
          Alcotest.test_case "kmeans fig5a shape" `Quick test_kmeans_fold_shape;
          Alcotest.test_case "flatmap rule" `Quick test_flatmap_rule_structure;
          Alcotest.test_case "groupbyfold rule" `Quick
            test_groupbyfold_rule_structure;
          Alcotest.test_case "no tiles = identity" `Quick test_untiled_untouched
        ] );
      ( "types",
        [ Alcotest.test_case "all benchmarks" `Quick test_types_preserved ] );
      ( "equivalence",
        List.map
          (fun bench ->
            Alcotest.test_case bench.Suite.name `Quick (test_equivalence bench))
          suite );
      ( "small tiles",
        List.map
          (fun bench ->
            Alcotest.test_case bench.Suite.name `Quick (test_small_tiles bench))
          suite );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_map_fold_equiv ] ) ]
