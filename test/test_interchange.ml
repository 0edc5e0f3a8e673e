(* Pattern interchange (Section 4, Table 3, Fig. 5b): structural checks on
   gemm and k-means plus semantic equivalence across the whole suite. *)

(* the passes on a program checked here *)
let strip_mine ~tiles p = Strip_mine.program (Validate.check_program p) ~tiles
let interchange ?budget_words p =
  Interchange.program ?budget_words (Validate.check_program p)

let value_eq = Value.equal ~eps:1e-6

let check_value msg expected actual =
  if not (value_eq expected actual) then
    Alcotest.failf "%s:@.expected %s@.got %s" msg (Value.to_string expected)
      (Value.to_string actual)

let tile_then_interchange (bench : Suite.bench) tiles =
  interchange (strip_mine ~tiles bench.Suite.prog)

(* Table 3: after interchange, gemm's strided p-tile fold is outside the
   unstrided (b0, b1) map. *)
let test_gemm_structure () =
  let t = Gemm.make () in
  let bench = Suite.find (Suite.all ()) "gemm" in
  ignore bench;
  let tiles = [ (t.Gemm.m, 4); (t.Gemm.n, 4); (t.Gemm.p, 4) ] in
  let prog = interchange (strip_mine ~tiles t.Gemm.prog) in
  ignore (Validate.check_program prog);
  (* there must be a strided Fold whose update contains an unstrided Map
     which itself contains the per-tile (Dtail) fold *)
  let found = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Fold { fdims = [ Ir.Dtiles { tile = 4; _ } ]; fupd; _ } ->
          if
            Rewrite.exists_exp
              (function
                | Ir.Map { mdims; mbody; _ }
                  when List.for_all (fun d -> not (Ir.is_strided d)) mdims ->
                    Rewrite.exists_exp
                      (function
                        | Ir.Fold { fdims = [ Ir.Dtail { tile = 4; _ } ]; _ } ->
                            true
                        | _ -> false)
                      mbody
                | _ -> false)
              fupd
          then found := true
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check bool) "strided fold of unstrided map" true !found

(* Fig. 5b: k-means' imperfect nest splits; the min-distance calculation
   becomes a Let-bound strided fold over centroid tiles of a Map over the
   point tile, and the scatter MultiFold reads the intermediate. *)
let test_kmeans_structure () =
  let t = Kmeans.make () in
  let tiles = [ (t.Kmeans.n, 8); (t.Kmeans.k, 2) ] in
  let prog = interchange (strip_mine ~tiles t.Kmeans.prog) in
  ignore (Validate.check_program prog);
  let found_split = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Let (_, Ir.Fold { fdims = [ Ir.Dtiles { tile = 2; _ } ]; fupd; _ },
                Ir.MultiFold { olets = [ (_, Ir.Read _) ]; _ }) ->
          (* the fold's update must map over the point tile *)
          if
            Rewrite.exists_exp
              (function
                | Ir.Map { mdims = [ Ir.Dtail { tile = 8; _ } ]; _ } -> true
                | _ -> false)
              fupd
          then found_split := true
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check bool) "fig 5b split + interchange" true !found_split

let test_no_split_when_too_large () =
  (* with a tiny on-chip budget the split is rejected and the program keeps
     its imperfect nest (and stays correct) *)
  let t = Kmeans.make () in
  let tiles = [ (t.Kmeans.n, 8); (t.Kmeans.k, 2) ] in
  let stripped = strip_mine ~tiles t.Kmeans.prog in
  let prog = interchange ~budget_words:4 stripped in
  let found_split = ref false in
  Rewrite.iter_exp
    (function
      | Ir.Let (_, Ir.Fold _, Ir.MultiFold { olets = [ (_, Ir.Read _) ]; _ }) ->
          found_split := true
      | _ -> ())
    prog.Ir.body;
  Alcotest.(check bool) "split rejected" false !found_split

let test_equivalence (bench : Suite.bench) () =
  let tiled = tile_then_interchange bench bench.Suite.tiles in
  ignore (Validate.check_program tiled);
  List.iter
    (fun seed ->
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed in
      let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
      check_value
        (Printf.sprintf "%s seed=%d" bench.Suite.name seed)
        expected
        (Eval.eval_program tiled ~sizes ~inputs);
      check_value
        (Printf.sprintf "%s chunked seed=%d" bench.Suite.name seed)
        expected
        (Eval.eval_program ~mode:(Eval.Chunked 3) tiled ~sizes ~inputs))
    [ 1; 2 ]

let test_equivalence_small_tiles (bench : Suite.bench) () =
  List.iter
    (fun tile ->
      let tiles = List.map (fun (s, _) -> (s, tile)) bench.Suite.tiles in
      let tiled = tile_then_interchange bench tiles in
      let sizes = bench.Suite.test_sizes in
      let inputs = bench.Suite.gen ~sizes ~seed:77 in
      check_value
        (Printf.sprintf "%s tile=%d" bench.Suite.name tile)
        (Eval.eval_program bench.Suite.prog ~sizes ~inputs)
        (Eval.eval_program tiled ~sizes ~inputs))
    [ 2; 3; 5 ]

(* Rule 2 (the inverse rule): a tiled Map inside an unstrided fold —
   column sums — becomes a strided MultiFold of per-slice folds. *)
let colsum_prog () =
  let n = Dsl.size "n" and d = Dsl.size "d" in
  let x = Dsl.input "x" Ty.float_ [ Ir.Var n; Ir.Var d ] in
  let body =
    Dsl.fold1
      (Dsl.dfull (Ir.Var n))
      ~init:(Dsl.zeros Ty.Float [ Ir.Var d ])
      ~comb:(fun a b ->
        Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun j ->
            Dsl.( +! ) (Dsl.read a [ j ]) (Dsl.read b [ j ])))
      (fun i acc ->
        Dsl.map1 (Dsl.dfull (Ir.Var d)) (fun j ->
            Dsl.( +! ) (Dsl.read acc [ j ]) (Dsl.read (Dsl.in_var x) [ i; j ])))
  in
  let prog =
    Dsl.program ~name:"colsums" ~sizes:[ n; d ]
      ~max_sizes:[ (n, 1 lsl 20); (d, 1 lsl 16) ]
      ~inputs:[ x ] body
  in
  (prog, n, d, x)

let test_rule2_structure () =
  let prog, _n, d, _x = colsum_prog () in
  let stripped = strip_mine ~tiles:[ (d, 8) ] prog in
  let out = interchange stripped in
  (* after rule 2, the top pattern is a strided MultiFold whose update
     region holds an unstrided fold *)
  match out.Ir.body with
  | Ir.MultiFold
      { odims = [ Ir.Dtiles { tile = 8; _ } ];
        oouts = [ { oupd = Ir.Fold { fdims = [ Ir.Dfull _ ]; _ }; _ } ];
        ocomb = None; _ } ->
      ()
  | _ ->
      Alcotest.failf "rule 2 did not fire:@.%s"
        (Pp.exp_to_string out.Ir.body)

let prop_rule2_equiv =
  QCheck.Test.make ~name:"rule 2 equivalence (column sums)" ~count:25
    QCheck.(triple (int_range 1 20) (int_range 1 24) (int_range 1 6))
    (fun (nv, dv, tile) ->
      let prog, n, d, x = colsum_prog () in
      let out = interchange (strip_mine ~tiles:[ (d, tile) ] prog) in
      ignore (Validate.check_program out);
      let rng = Workloads.Rng.make (nv + dv) in
      let xs = Workloads.float_matrix rng nv dv in
      let sizes = [ (n, nv); (d, dv) ] in
      let inputs = [ (x.Ir.iname, Workloads.value_of_matrix xs) ] in
      value_eq
        (Eval.eval_program prog ~sizes ~inputs)
        (Eval.eval_program out ~sizes ~inputs))

let prop_gemm_equiv =
  QCheck.Test.make ~name:"gemm interchange equivalence (random sizes)"
    ~count:20
    QCheck.(
      pair
        (triple (int_range 1 12) (int_range 1 12) (int_range 1 12))
        (triple (int_range 1 5) (int_range 1 5) (int_range 1 5)))
    (fun ((m, n, p), (b0, b1, b2)) ->
      let t = Gemm.make () in
      let tiles = [ (t.Gemm.m, b0); (t.Gemm.n, b1); (t.Gemm.p, b2) ] in
      let prog = interchange (strip_mine ~tiles t.Gemm.prog) in
      let sizes = [ (t.Gemm.m, m); (t.Gemm.n, n); (t.Gemm.p, p) ] in
      let inputs = Gemm.gen_inputs t ~seed:(m + (13 * n) + (7 * p)) ~m ~n ~p in
      value_eq
        (Eval.eval_program t.Gemm.prog ~sizes ~inputs)
        (Eval.eval_program prog ~sizes ~inputs))

let prop_kmeans_equiv =
  QCheck.Test.make ~name:"kmeans split+interchange equivalence" ~count:15
    QCheck.(
      pair
        (triple (int_range 4 40) (int_range 2 6) (int_range 1 4))
        (pair (int_range 2 9) (int_range 1 4)))
    (fun ((n, k, d), (b0, b1)) ->
      let t = Kmeans.make () in
      let tiles = [ (t.Kmeans.n, b0); (t.Kmeans.k, b1) ] in
      let prog = interchange (strip_mine ~tiles t.Kmeans.prog) in
      let sizes = [ (t.Kmeans.n, n); (t.Kmeans.k, k); (t.Kmeans.d, d) ] in
      let inputs = Kmeans.gen_inputs t ~seed:(n + k + d) ~n ~k ~d in
      value_eq
        (Eval.eval_program t.Kmeans.prog ~sizes ~inputs)
        (Eval.eval_program prog ~sizes ~inputs))

let () =
  let suite = Suite.all () in
  Alcotest.run "interchange"
    [ ( "structure",
        [ Alcotest.test_case "gemm table 3" `Quick test_gemm_structure;
          Alcotest.test_case "kmeans fig 5b" `Quick test_kmeans_structure;
          Alcotest.test_case "split cost rejection" `Quick
            test_no_split_when_too_large;
          Alcotest.test_case "rule 2 column sums" `Quick test_rule2_structure ] );
      ( "equivalence",
        List.map
          (fun bench ->
            Alcotest.test_case bench.Suite.name `Quick (test_equivalence bench))
          suite );
      ( "equivalence small tiles",
        List.map
          (fun bench ->
            Alcotest.test_case bench.Suite.name `Quick
              (test_equivalence_small_tiles bench))
          suite );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_gemm_equiv;
          QCheck_alcotest.to_alcotest prop_kmeans_equiv;
          QCheck_alcotest.to_alcotest prop_rule2_equiv ] ) ]
