(* Fusion, CSE, code motion, simplification, alpha-equivalence. *)

(* the passes on a program checked here *)
let strip_mine ~tiles p = Strip_mine.program (Validate.check_program p) ~tiles

open Dsl

let value_eq = Value.equal ~eps:1e-6

let check_value msg expected actual =
  if not (value_eq expected actual) then
    Alcotest.failf "%s:@.expected %s@.got %s" msg (Value.to_string expected)
      (Value.to_string actual)

(* ------------------------- simplify ------------------------- *)

let test_simplify_constants () =
  let cases =
    [ (i 2 +! i 3, Ir.Ci 5);
      (i 7 /! i 2, Ir.Ci 3);
      (min_ (i 4) (i 9), Ir.Ci 4);
      (f 1.5 *! f 2.0, Ir.Cf 3.0);
      (if_ (b true) (i 1) (i 2), Ir.Ci 1);
      (i 5 +! i 0, Ir.Ci 5) ]
  in
  List.iter
    (fun (e, expected) ->
      Alcotest.(check string)
        (Pp.exp_to_string e) (Pp.exp_to_string expected)
        (Pp.exp_to_string (Simplify.exp e)))
    cases

let test_simplify_identities () =
  let x = Sym.fresh "x" in
  let e = Ir.Prim (Ir.Add, [ Ir.Var x; Ir.Ci 0 ]) in
  Alcotest.(check string) "x + 0 = x" (Sym.name x) (Pp.exp_to_string (Simplify.exp e));
  let e2 = Ir.Prim (Ir.Mul, [ Ir.Var x; Ir.Ci 1 ]) in
  Alcotest.(check string) "x * 1 = x" (Sym.name x) (Pp.exp_to_string (Simplify.exp e2));
  (* (x + 2) + 3 -> x + 5 *)
  let e3 = Ir.Prim (Ir.Add, [ Ir.Prim (Ir.Add, [ Ir.Var x; Ir.Ci 2 ]); Ir.Ci 3 ]) in
  Alcotest.(check string) "re-associate" (Sym.name x ^ " + 5")
    (Pp.exp_to_string (Simplify.exp e3))

let test_simplify_preserves_semantics () =
  (* random arithmetic trees: simplify must not change evaluation *)
  let prop =
    QCheck.Test.make ~name:"simplify sound" ~count:200
      QCheck.(small_list (int_range (-20) 20))
      (fun xs ->
        let e =
          List.fold_left
            (fun acc v ->
              if v mod 3 = 0 then Ir.Prim (Ir.Add, [ acc; Ir.Ci v ])
              else if v mod 3 = 1 then Ir.Prim (Ir.Mul, [ acc; Ir.Ci (v mod 5) ])
              else Ir.Prim (Ir.Max, [ acc; Ir.Ci v ]))
            (Ir.Ci 1) xs
        in
        Eval.eval Sym.Map.empty e = Eval.eval Sym.Map.empty (Simplify.exp e))
  in
  QCheck.Test.check_exn prop

(* ------------------------- affine ------------------------- *)

let test_affine_basic () =
  let ii = Sym.fresh "ii" and j = Sym.fresh "j" in
  let e =
    Ir.Prim (Ir.Add, [ Ir.Prim (Ir.Mul, [ Ir.Var ii; Ir.Ci 8 ]); Ir.Var j ])
  in
  match Affine.of_exp e with
  | None -> Alcotest.fail "affine not recognized"
  | Some a ->
      Alcotest.(check int) "coeff ii" 8 (Affine.coeff a ii);
      Alcotest.(check int) "coeff j" 1 (Affine.coeff a j);
      Alcotest.(check bool) "not const" false (Affine.is_const a);
      (* round trip through to_exp *)
      let a2 = Option.get (Affine.of_exp (Affine.to_exp a)) in
      Alcotest.(check bool) "roundtrip" true (Affine.equal a a2)

let test_affine_rejects () =
  let x = Sym.fresh "x" in
  let data_dep = Ir.Read (Ir.Var x, [ Ir.Ci 0 ]) in
  Alcotest.(check bool) "read rejected" true (Affine.of_exp data_dep = None);
  let nonlinear = Ir.Prim (Ir.Mul, [ Ir.Var x; Ir.Var x ]) in
  Alcotest.(check bool) "x*x rejected" true (Affine.of_exp nonlinear = None);
  let div = Ir.Prim (Ir.Div, [ Ir.Var x; Ir.Ci 2 ]) in
  Alcotest.(check bool) "division rejected" true (Affine.of_exp div = None)

let test_affine_partition () =
  let ii = Sym.fresh "ii" and j = Sym.fresh "j" in
  let a = Affine.add (Affine.scale 8 (Affine.var ii))
            (Affine.add (Affine.var j) (Affine.const 3)) in
  let inside, outside = Affine.partition a (fun s -> Sym.equal s j) in
  Alcotest.(check int) "inside j" 1 (Affine.coeff inside j);
  Alcotest.(check int) "outside ii" 8 (Affine.coeff outside ii);
  Alcotest.(check bool) "const goes outside" true (outside.Affine.const = 3)

(* ------------------------- alpha ------------------------- *)

let test_alpha_equal () =
  let mk () = map1 (dfull (i 5)) (fun idx -> idx +! i 1) in
  Alcotest.(check bool) "same shape, fresh binders" true
    (Alpha.equal (mk ()) (mk ()));
  let other = map1 (dfull (i 5)) (fun idx -> idx +! i 2) in
  Alcotest.(check bool) "different body" false (Alpha.equal (mk ()) other);
  let x = Sym.fresh "x" in
  Alcotest.(check bool) "free vars must match" false
    (Alpha.equal (Ir.Var x) (Ir.Var (Sym.fresh "x")));
  Alcotest.(check bool) "rename_binders is alpha-equal" true
    (let e = mk () in
     Alpha.equal e (Ir.rename_binders e))

(* ------------------------- cse ------------------------- *)

let test_cse_lets () =
  let x = Sym.fresh "x" in
  let heavy () = map1 (dfull (i 8)) (fun idx -> idx *! i 3) in
  let s1 = Sym.fresh "a" and s2 = Sym.fresh "b" in
  let e =
    Ir.Let
      ( s1,
        heavy (),
        Ir.Let
          ( s2,
            heavy (),
            Ir.Prim
              (Ir.Add, [ Ir.Read (Ir.Var s1, [ Ir.Var x ]); Ir.Read (Ir.Var s2, [ Ir.Var x ]) ])
          ) )
  in
  let e' = Cse.exp e in
  (* second Let collapses; both reads now hit the first binding *)
  (match e' with
  | Ir.Let (_, _, Ir.Prim (Ir.Add, [ Ir.Read (Ir.Var a, _); Ir.Read (Ir.Var b, _) ]))
    when Sym.equal a b -> ()
  | _ -> Alcotest.failf "cse failed: %s" (Pp.exp_to_string e'));
  (* semantics preserved *)
  let env = Sym.Map.singleton x (Value.I 2) in
  check_value "cse sound" (Eval.eval env e) (Eval.eval env e')

let test_cse_trivial_not_shared () =
  (* constants are not worth binding-sharing *)
  let s1 = Sym.fresh "a" and s2 = Sym.fresh "b" in
  let e = Ir.Let (s1, Ir.Ci 5, Ir.Let (s2, Ir.Ci 5, Ir.Prim (Ir.Add, [ Ir.Var s1; Ir.Var s2 ]))) in
  match Cse.exp e with
  | Ir.Let (_, _, Ir.Let (_, _, _)) -> ()
  | e' -> Alcotest.failf "unexpected: %s" (Pp.exp_to_string e')

(* ------------------------- code motion ------------------------- *)

let test_code_motion_hoists () =
  let n = Sym.fresh "n" and arr = Sym.fresh "arr" in
  let inv = Sym.fresh "inv" in
  (* map(n){ i => inv = arr.copy(...); inv(i) } : copy is invariant *)
  let copy_e =
    Ir.Copy
      { csrc = Ir.Var arr;
        cdims = [ Ir.Coffset { off = Ir.Ci 0; len = Ir.Var n; max_len = None } ];
        creuse = 1 }
  in
  let idx = Sym.fresh "i" in
  let e =
    Ir.Map
      { mdims = [ Ir.Dfull (Ir.Var n) ];
        midxs = [ idx ];
        mbody = Ir.Let (inv, copy_e, Ir.Read (Ir.Var inv, [ Ir.Var idx ]));
        mprov = Prov.none }
  in
  match Code_motion.exp e with
  | Ir.Let (s, Ir.Copy _, Ir.Map _) when Sym.equal s inv -> ()
  | e' -> Alcotest.failf "not hoisted: %s" (Pp.exp_to_string e')

let test_code_motion_blocked () =
  (* a binding that uses the index must stay inside *)
  let n = Sym.fresh "n" in
  let idx = Sym.fresh "i" in
  let dep = Sym.fresh "dep" in
  let e =
    Ir.Map
      { mdims = [ Ir.Dfull (Ir.Var n) ];
        midxs = [ idx ];
        mbody =
          Ir.Let (dep, Ir.Prim (Ir.Mul, [ Ir.Var idx; Ir.Ci 2 ]), Ir.Var dep);
        mprov = Prov.none }
  in
  match Code_motion.exp e with
  | Ir.Map _ -> ()
  | e' -> Alcotest.failf "wrongly hoisted: %s" (Pp.exp_to_string e')

let test_code_motion_multifold_olets () =
  (* invariant olet floats out of the MultiFold *)
  let n = Sym.fresh "n" and arr = Sym.fresh "arr" in
  let e =
    multifold [ dfull (Ir.Var n) ] ~init:(zeros Ty.Float [ Ir.Var n ])
      (fun idxs ->
        [ { range = [ Ir.Var n ];
            region = point idxs;
            upd = (fun _ -> f 1.0) } ])
  in
  match e with
  | Ir.MultiFold mf ->
      let inv = Sym.fresh "inv" in
      let e2 = Ir.MultiFold { mf with olets = [ (inv, Ir.Len (Ir.Var arr, 0)) ] } in
      (match Code_motion.exp e2 with
      | Ir.Let (s, Ir.Len _, Ir.MultiFold _) when Sym.equal s inv -> ()
      | e' -> Alcotest.failf "olet not hoisted: %s" (Pp.exp_to_string e'))
  | _ -> assert false

(* ------------------------- fusion ------------------------- *)

let test_vertical_fusion () =
  let d = size "d" in
  let x = input "x" Ty.float_ [ Ir.Var d ] in
  let body =
    let_ ~name:"doubled"
      (map1 (dfull (Ir.Var d)) (fun idx -> f 2.0 *! read (in_var x) [ idx ]))
      (fun doubled ->
        fold1 (dfull (Ir.Var d)) ~init:(f 0.0)
          ~comb:(fun a b -> a +! b)
          (fun idx acc -> acc +! read doubled [ idx ]))
  in
  let prog = program ~name:"p" ~sizes:[ d ] ~inputs:[ x ] body in
  let fused = Fusion.program prog in
  (* the Let-bound Map disappears *)
  let maps = ref 0 in
  Rewrite.iter_exp
    (function Ir.Map _ -> incr maps | _ -> ())
    fused.Ir.body;
  Alcotest.(check int) "map inlined" 0 !maps;
  (* semantics preserved *)
  let dv = 17 in
  let rng = Workloads.Rng.make 3 in
  let xs = Workloads.float_vector rng dv in
  let sizes = [ (d, dv) ] in
  let inputs = [ (x.Ir.iname, Workloads.value_of_vector xs) ] in
  check_value "fusion sound"
    (Eval.eval_program prog ~sizes ~inputs)
    (Eval.eval_program fused ~sizes ~inputs)

let test_fusion_blocked_by_escape () =
  (* whole-array escape (a Slice) blocks fusion *)
  let d = size "d" in
  let x = input "x" Ty.float_ [ Ir.Var d; Ir.Var d ] in
  let body =
    let_ ~name:"m"
      (map2d (dfull (Ir.Var d)) (dfull (Ir.Var d)) (fun a b1 ->
           read (in_var x) [ a; b1 ]))
      (fun m -> read (slice_row m (i 0)) [ i 0 ])
  in
  let prog = program ~name:"p" ~sizes:[ d ] ~inputs:[ x ] body in
  let fused = Fusion.program prog in
  let maps = ref 0 in
  Rewrite.iter_exp (function Ir.Map _ -> incr maps | _ -> ()) fused.Ir.body;
  Alcotest.(check int) "map kept" 1 !maps

let test_filter_reduce_fusion () =
  let t = Tpchq6.make () in
  let fused = Fusion.program ~fuse_filters:true t.Tpchq6.prog in
  (* the FlatMap is gone; a conditional fold over n remains *)
  let flatmaps = ref 0 and folds = ref 0 in
  Rewrite.iter_exp
    (function
      | Ir.FlatMap _ -> incr flatmaps
      | Ir.Fold _ -> incr folds
      | _ -> ())
    fused.Ir.body;
  Alcotest.(check int) "flatmap fused away" 0 !flatmaps;
  Alcotest.(check int) "one fold" 1 !folds;
  (* semantics *)
  let n = 300 in
  let sizes = [ (t.Tpchq6.n, n) ] in
  let inputs = Tpchq6.gen_inputs t ~seed:9 ~n in
  check_value "q6 fused"
    (Eval.eval_program t.Tpchq6.prog ~sizes ~inputs)
    (Eval.eval_program fused ~sizes ~inputs);
  (* and the fused program still tiles correctly *)
  let tiled = strip_mine ~tiles:[ (t.Tpchq6.n, 16) ] fused in
  check_value "q6 fused+tiled"
    (Eval.eval_program t.Tpchq6.prog ~sizes ~inputs)
    (Eval.eval_program tiled ~sizes ~inputs)

let test_horizontal_fusion () =
  (* two maps over the same domain merge into one tuple-producing map *)
  let d = size "d" in
  let x = input "x" Ty.float_ [ Ir.Var d ] in
  let body =
    let_ ~name:"doubled"
      (map1 (dfull (Ir.Var d)) (fun idx -> f 2.0 *! read (in_var x) [ idx ]))
      (fun doubled ->
        let_ ~name:"squared"
          (map1 (dfull (Ir.Var d)) (fun idx -> square (read (in_var x) [ idx ])))
          (fun squared ->
            fold1 (dfull (Ir.Var d)) ~init:(f 0.0)
              ~comb:(fun a b -> a +! b)
              (fun idx acc -> acc +! (read doubled [ idx ] *! read squared [ idx ])))
      )
  in
  let prog = program ~name:"p" ~sizes:[ d ] ~inputs:[ x ] body in
  let fused = Fusion.program prog in
  (* after horizontal + vertical fusion no Let-bound Map remains *)
  let lets_of_maps = ref 0 in
  Rewrite.iter_exp
    (function Ir.Let (_, Ir.Map _, _) -> incr lets_of_maps | _ -> ())
    fused.Ir.body;
  Alcotest.(check int) "maps merged and inlined" 0 !lets_of_maps;
  let dv = 13 in
  let rng = Workloads.Rng.make 8 in
  let xs = Workloads.float_vector rng dv in
  let sizes = [ (d, dv) ] in
  let inputs = [ (x.Ir.iname, Workloads.value_of_vector xs) ] in
  check_value "horizontal fusion sound"
    (Eval.eval_program prog ~sizes ~inputs)
    (Eval.eval_program fused ~sizes ~inputs)

let test_fusion_default_keeps_flatmap () =
  let t = Tpchq6.make () in
  let fused = Fusion.program t.Tpchq6.prog in
  let flatmaps = ref 0 in
  Rewrite.iter_exp (function Ir.FlatMap _ -> incr flatmaps | _ -> ()) fused.Ir.body;
  Alcotest.(check int) "flatmap kept by default" 1 !flatmaps

(* ------------------------- staged tiling ------------------------- *)

let same_program msg (a : Ir.program) (b : Ir.program) =
  Alcotest.(check bool) (msg ^ ": header") true
    (a.Ir.pname = b.Ir.pname
    && List.equal Sym.equal a.Ir.size_params b.Ir.size_params
    && a.Ir.inputs = b.Ir.inputs);
  Alcotest.(check bool) (msg ^ ": alpha-equal body") true
    (Alpha.equal a.Ir.body b.Ir.body)

let test_staged_tiling_matches_run () =
  (* [front] + [tiled] is [run] without the reporting form: the same
     fused and final programs, up to the names of fresh binders *)
  List.iter
    (fun (b : Suite.bench) ->
      let tiles = b.Suite.tiles in
      let r = Tiling.run ~tiles b.Suite.prog in
      let front = Tiling.front b.Suite.prog in
      same_program (b.Suite.name ^ " fused") r.Tiling.fused
        (Validate.program (Tiling.fused front));
      same_program (b.Suite.name ^ " tiled") r.Tiling.tiled
        (Validate.program (Tiling.tiled front ~tiles));
      (* one front serves any number of tile configurations *)
      same_program (b.Suite.name ^ " tiled again") r.Tiling.tiled
        (Validate.program (Tiling.tiled front ~tiles)))
    (Suite.extended ())

let test_rejected_tiles_run_no_pass () =
  (* the tile checks come first in [run] and in [tiled]: a rejected
     configuration raises its own message and runs no pass *)
  let t = Gemm.make () in
  let front = Tiling.front t.Gemm.prog in
  let tiles = [ (t.Gemm.m, 0); (t.Gemm.n, 32); (t.Gemm.p, 32) ] in
  let expected =
    Printf.sprintf "Tiling.run: tile size 0 for %s" (Sym.name t.Gemm.m)
  in
  List.iter
    (fun (name, f) ->
      let base = Metrics.snapshot () in
      (match f () with
      | () -> Alcotest.fail (name ^ ": zero tile accepted")
      | exception Invalid_argument msg ->
          Alcotest.(check string) (name ^ ": message") expected msg);
      Alcotest.(check (list string)) (name ^ ": no pass ran") []
        (List.map fst (Metrics.diff ~base (Metrics.snapshot ()))))
    [ ("run", fun () -> ignore (Tiling.run ~tiles t.Gemm.prog));
      ("tiled", fun () -> ignore (Tiling.tiled front ~tiles)) ]

let () =
  Alcotest.run "passes"
    [ ( "simplify",
        [ Alcotest.test_case "constants" `Quick test_simplify_constants;
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "soundness" `Quick test_simplify_preserves_semantics
        ] );
      ( "affine",
        [ Alcotest.test_case "basic" `Quick test_affine_basic;
          Alcotest.test_case "rejections" `Quick test_affine_rejects;
          Alcotest.test_case "partition" `Quick test_affine_partition ] );
      ( "alpha",
        [ Alcotest.test_case "equality" `Quick test_alpha_equal ] );
      ( "cse",
        [ Alcotest.test_case "dedupe lets" `Quick test_cse_lets;
          Alcotest.test_case "constants not shared" `Quick
            test_cse_trivial_not_shared ] );
      ( "code motion",
        [ Alcotest.test_case "hoists invariant" `Quick test_code_motion_hoists;
          Alcotest.test_case "keeps dependent" `Quick test_code_motion_blocked;
          Alcotest.test_case "multifold olets" `Quick
            test_code_motion_multifold_olets ] );
      ( "fusion",
        [ Alcotest.test_case "vertical map" `Quick test_vertical_fusion;
          Alcotest.test_case "horizontal map" `Quick test_horizontal_fusion;
          Alcotest.test_case "escape blocks" `Quick test_fusion_blocked_by_escape;
          Alcotest.test_case "filter-reduce" `Quick test_filter_reduce_fusion;
          Alcotest.test_case "default keeps flatmap" `Quick
            test_fusion_default_keeps_flatmap ] );
      ( "staged tiling",
        [ Alcotest.test_case "front + tiled = run" `Quick
            test_staged_tiling_matches_run;
          Alcotest.test_case "rejected tiles run no pass" `Quick
            test_rejected_tiles_run_no_pass ] ) ]
