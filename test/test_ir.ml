(* Tests for the PPL IR: symbols, free variables, substitution, binder
   refreshing (on flattened tiled domains too), pretty printing, and the
   type checker. *)

open Dsl

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ty = Alcotest.testable (fun fmt t -> Ty.pp fmt t) Ty.equal

let test_sym_fresh () =
  let a = Sym.fresh "x" and b = Sym.fresh "x" in
  check_bool "distinct ids" false (Sym.equal a b);
  check_str "base preserved" "x" (Sym.base a);
  check_bool "name differs" true (Sym.name a <> Sym.name b)

let test_free_vars_simple () =
  let x = Sym.fresh "x" and y = Sym.fresh "y" in
  let e = Ir.Prim (Ir.Add, [ Ir.Var x; Ir.Var y ]) in
  let fv = Ir.free_vars e in
  check_bool "x free" true (Sym.Set.mem x fv);
  check_bool "y free" true (Sym.Set.mem y fv)

let test_free_vars_let () =
  let x = Sym.fresh "x" in
  let e = Ir.Let (x, Ir.Ci 1, Ir.Var x) in
  check_bool "bound not free" true (Sym.Set.is_empty (Ir.free_vars e))

let test_free_vars_pattern () =
  let arr = Sym.fresh "arr" and n = Sym.fresh "n" in
  let e = map1 (dfull (Ir.Var n)) (fun idx -> read (Ir.Var arr) [ idx ]) in
  let fv = Ir.free_vars e in
  check_bool "arr free" true (Sym.Set.mem arr fv);
  check_bool "n free" true (Sym.Set.mem n fv);
  Alcotest.(check int) "only two" 2 (Sym.Set.cardinal fv)

let test_free_vars_fold_acc_bound () =
  let n = Sym.fresh "n" in
  let e =
    fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
      ~comb:(fun a b -> a +! b)
      (fun _ acc -> acc +! f 1.0)
  in
  Alcotest.(check int) "only n free" 1 (Sym.Set.cardinal (Ir.free_vars e))

let test_subst () =
  let x = Sym.fresh "x" in
  let e = Ir.Prim (Ir.Add, [ Ir.Var x; Ir.Var x ]) in
  let e' = Ir.subst (Sym.Map.singleton x (Ir.Ci 3)) e in
  check_str "both replaced" "3 + 3" (Pp.exp_to_string e')

let test_subst_shadowing () =
  let x = Sym.fresh "x" in
  let e = Ir.Let (x, Ir.Ci 1, Ir.Var x) in
  let e' = Ir.subst (Sym.Map.singleton x (Ir.Ci 9)) e in
  (* the let-bound x shadows the substitution *)
  match e' with
  | Ir.Let (_, Ir.Ci 1, Ir.Var s) -> check_bool "kept binder" true (Sym.equal s x)
  | _ -> Alcotest.fail "unexpected shape"

let test_rename_binders () =
  let n = Sym.fresh "n" and arr = Sym.fresh "arr" in
  let e = map1 (dfull (Ir.Var n)) (fun idx -> read (Ir.Var arr) [ idx ]) in
  let e' = Ir.rename_binders e in
  (match (e, e') with
  | Ir.Map { midxs = [ s ]; _ }, Ir.Map { midxs = [ s' ]; _ } ->
      check_bool "binder renamed" false (Sym.equal s s')
  | _ -> Alcotest.fail "unexpected shape");
  (* free variables unchanged *)
  check_bool "same free vars" true
    (Sym.Set.equal (Ir.free_vars e) (Ir.free_vars e'))

(* the strip-mined form [map(Dtiles; Dtail {outer = ii}) { (ii, i) => .. }]
   over [n], whose second domain reads its own tile index [ii] *)
let flattened () =
  let n = Sym.fresh "n" and ii = Sym.fresh "ii" and i = Sym.fresh "i" in
  let e =
    Ir.Map
      { mdims =
          [ Ir.Dtiles { total = Ir.Var n; tile = 4 };
            Ir.Dtail { total = Ir.Var n; tile = 4; outer = ii } ];
        midxs = [ ii; i ];
        mbody = Ir.Prim (Ir.Add, [ Ir.Var ii; Ir.Var i ]);
        mprov = Prov.none }
  in
  (e, n, ii)

(* the outer index of a map's last domain, a [Dtail] *)
let dtail_outer = function
  | Ir.Map { mdims; _ } -> (
      match List.rev mdims with
      | Ir.Dtail { outer; _ } :: _ -> outer
      | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "unexpected shape"

let test_flattened_scoping () =
  let e, n, ii = flattened () in
  check_bool "tile index not free" false (Sym.Set.mem ii (Ir.free_vars e));
  check_bool "size free" true (Sym.Set.mem n (Ir.free_vars e));
  let z = Sym.fresh "z" in
  (* the binder shadows the map entry, in the domain as in the body *)
  let e' = Ir.subst (Sym.Map.singleton ii (Ir.Var z)) e in
  check_bool "bound outer kept" true (Sym.equal (dtail_outer e') ii);
  check_bool "body kept" true (e' = e);
  let r = Ir.rename_binders e in
  (match r with
  | Ir.Map { midxs = ii' :: _; _ } ->
      check_bool "outer follows its binder" true (Sym.equal (dtail_outer r) ii')
  | _ -> Alcotest.fail "unexpected shape");
  check_bool "renamed node alpha-equal" true (Alpha.equal e r)

let test_subst_outer () =
  (* a Dtail whose outer index is bound further out *)
  let jj = Sym.fresh "jj" and z = Sym.fresh "z" and i = Sym.fresh "i" in
  let e =
    Ir.Map
      { mdims = [ Ir.Dtail { total = Ir.Ci 10; tile = 4; outer = jj } ];
        midxs = [ i ];
        mbody = Ir.Var i;
        mprov = Prov.none }
  in
  check_bool "outer free" true (Sym.Set.mem jj (Ir.free_vars e));
  let e' = Ir.subst (Sym.Map.singleton jj (Ir.Var z)) e in
  check_bool "free outer replaced" true (Sym.equal (dtail_outer e') z);
  match Ir.subst (Sym.Map.singleton jj (Ir.Ci 3)) e with
  | _ -> Alcotest.fail "a non-variable outer replacement was accepted"
  | exception Invalid_argument _ -> ()

let test_dom_size () =
  let n = Sym.fresh "n" in
  let d = Ir.Dtiles { total = Ir.Var n; tile = 64 } in
  check_bool "strided" true (Ir.is_strided d);
  check_bool "full not strided" false (Ir.is_strided (Ir.Dfull (Ir.Var n)));
  (* ceil(n/64) encoding: (n + 63) / 64 *)
  check_str "tile count"
    ("(" ^ Sym.name n ^ " + 63) / 64")
    (Pp.exp_to_string (Ir.dom_size d))

(* -------------------- type checking -------------------- *)

let infer_closed e = Validate.infer Sym.Map.empty e

let test_infer_scalar () =
  Alcotest.check ty "float" Ty.float_ (infer_closed (f 1.0 +! f 2.0));
  Alcotest.check ty "int" Ty.int_ (infer_closed (i 1 +! i 2));
  Alcotest.check ty "bool" Ty.bool_ (infer_closed (f 1.0 <! f 2.0));
  Alcotest.check ty "tuple"
    (Ty.Tuple [ Ty.float_; Ty.int_ ])
    (infer_closed (pair (f 1.0) (i 2)))

let test_infer_mixed_arith_rejected () =
  check_bool "int + float rejected" true
    (try
       ignore (infer_closed (i 1 +! f 2.0));
       false
     with Validate.Type_error _ -> true)

let test_infer_map () =
  let t = infer_closed (map2d (dfull (i 4)) (dfull (i 5)) (fun a b -> a +! b)) in
  Alcotest.check ty "2-D int array" (Ty.array Ty.int_ 2) t

let test_nested_array_rejected () =
  (* a Map producing arrays would be a nested array: rejected *)
  let e = map1 (dfull (i 3)) (fun _ -> map1 (dfull (i 2)) (fun x -> x)) in
  check_bool "rejected" true
    (try
       ignore (infer_closed e);
       false
     with Validate.Type_error _ -> true)

let test_infer_fold_tuple () =
  let e =
    fold1 (dfull (i 10))
      ~init:(pair (f infinity) (i (-1)))
      ~comb:(fun a b -> if_ (fst_ a <! fst_ b) a b)
      (fun idx acc -> if_ (fst_ acc <! to_float idx) acc (pair (to_float idx) idx))
  in
  Alcotest.check ty "tuple acc" (Ty.Tuple [ Ty.float_; Ty.int_ ]) (infer_closed e)

let test_infer_flatmap () =
  let e = filter (dfull (i 9)) (fun idx -> idx >! i 3) (fun idx -> to_float idx) in
  Alcotest.check ty "1-D" (Ty.array Ty.float_ 1) (infer_closed e)

let test_infer_groupbyfold () =
  let e =
    groupbyfold (dfull (i 9)) ~init:(i 0)
      ~comb:(fun a b -> a +! b)
      (fun idx -> (idx %! i 3, fun acc -> acc +! i 1))
  in
  Alcotest.check ty "assoc" (Ty.Assoc (Ty.int_, Ty.int_)) (infer_closed e)

let test_infer_multifold_bad_comb_rejected () =
  let e =
    multifold [ dfull (i 4) ] ~init:(zeros Ty.Float [ i 4 ])
      ~comb:(fun a _ -> a)  (* comb : arrays, fine *)
      (fun idxs ->
        [ { range = [ i 4 ];
            region = point idxs;
            upd = (fun acc -> acc &&! b true) (* bool update on float acc *) } ])
  in
  check_bool "rejected" true
    (try
       ignore (infer_closed e);
       false
     with Validate.Type_error _ -> true)

let test_check_apps () =
  (* every benchmark program type checks, with the expected result type *)
  let expect =
    [ ("outerprod", Ty.array Ty.float_ 2);
      ("sumrows", Ty.array Ty.float_ 1);
      ("gemm", Ty.array Ty.float_ 2);
      ("tpchq6", Ty.float_);
      ("gda", Ty.array Ty.float_ 2);
      ("kmeans", Ty.array Ty.float_ 2) ]
  in
  List.iter
    (fun bench ->
      let expected = List.assoc bench.Suite.name expect in
      Alcotest.check ty bench.Suite.name expected
        (Validate.result (Validate.check_program bench.Suite.prog)))
    (Suite.all ());
  let h = Histogram.make () in
  Alcotest.check ty "histogram" (Ty.Assoc (Ty.int_, Ty.int_))
    (Validate.result (Validate.check_program h.Histogram.prog))

let test_pp_roundtrip_smoke () =
  (* pretty printing all apps must not raise and must mention the pattern *)
  List.iter
    (fun bench ->
      let s = Pp.program_to_string bench.Suite.prog in
      check_bool (bench.Suite.name ^ " prints") true (String.length s > 40))
    (Suite.all ())

let test_ty_well_formed () =
  check_bool "nested array ill-formed" false
    (Ty.well_formed (Ty.Array (Ty.Array (Ty.float_, 1), 1)));
  check_bool "array of tuples fine" true
    (Ty.well_formed (Ty.Array (Ty.Tuple [ Ty.float_; Ty.int_ ], 2)))

let () =
  Alcotest.run "ir"
    [ ( "symbols",
        [ Alcotest.test_case "fresh" `Quick test_sym_fresh ] );
      ( "free-vars",
        [ Alcotest.test_case "simple" `Quick test_free_vars_simple;
          Alcotest.test_case "let" `Quick test_free_vars_let;
          Alcotest.test_case "pattern binders" `Quick test_free_vars_pattern;
          Alcotest.test_case "fold acc bound" `Quick test_free_vars_fold_acc_bound
        ] );
      ( "subst",
        [ Alcotest.test_case "replace" `Quick test_subst;
          Alcotest.test_case "shadowing" `Quick test_subst_shadowing;
          Alcotest.test_case "rename binders" `Quick test_rename_binders;
          Alcotest.test_case "flattened tiled domains" `Quick
            test_flattened_scoping;
          Alcotest.test_case "Dtail outer index" `Quick test_subst_outer ] );
      ( "domains",
        [ Alcotest.test_case "dom_size/strided" `Quick test_dom_size ] );
      ( "typing",
        [ Alcotest.test_case "scalars" `Quick test_infer_scalar;
          Alcotest.test_case "mixed arith rejected" `Quick
            test_infer_mixed_arith_rejected;
          Alcotest.test_case "map" `Quick test_infer_map;
          Alcotest.test_case "nested arrays rejected" `Quick
            test_nested_array_rejected;
          Alcotest.test_case "fold tuple" `Quick test_infer_fold_tuple;
          Alcotest.test_case "flatmap" `Quick test_infer_flatmap;
          Alcotest.test_case "groupbyfold" `Quick test_infer_groupbyfold;
          Alcotest.test_case "bad multifold rejected" `Quick
            test_infer_multifold_bad_comb_rejected;
          Alcotest.test_case "all apps type check" `Quick test_check_apps;
          Alcotest.test_case "well-formed types" `Quick test_ty_well_formed ] );
      ( "printing",
        [ Alcotest.test_case "apps print" `Quick test_pp_roundtrip_smoke ] ) ]
