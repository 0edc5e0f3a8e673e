(* Direct unit tests for the small analysis helpers: combine-function
   analysis (Combs), pipeline-depth estimation (Depth), the split-cost
   heuristic (Split_cost), and metapipeline finalization (Metapipe). *)

open Dsl

(* ---------------- Combs ---------------- *)

let mk_elementwise_comb () =
  let n = Sym.fresh "n" in
  let a = Sym.fresh "a" and b = Sym.fresh "b" in
  let body =
    map1 (dfull (Ir.Var n)) (fun i ->
        read (Ir.Var a) [ i ] +! read (Ir.Var b) [ i ])
  in
  (n, { Ir.ca = a; cb = b; cbody = body })

let test_combs_rename_fresh () =
  let _, c = mk_elementwise_comb () in
  let c' = Combs.rename c in
  Alcotest.(check bool) "param a refreshed" false (Sym.equal c.Ir.ca c'.Ir.ca);
  Alcotest.(check bool) "param b refreshed" false (Sym.equal c.Ir.cb c'.Ir.cb);
  (* the refreshed comb computes the same function *)
  let arr vs = Value.Arr (Ndarray.init [ Array.length vs ] (function
    | [ i ] -> Value.F vs.(i)
    | _ -> assert false))
  in
  let x = Sym.fresh "x" and y = Sym.fresh "y" in
  let env =
    Sym.Map.add x (arr [| 1.0; 2.0 |])
      (Sym.Map.add y (arr [| 10.0; 20.0 |]) Sym.Map.empty)
  in
  (* bind the map extent to 2 via substituting a literal *)
  let apply c =
    let cbody =
      Ir.subst (Sym.Map.singleton c.Ir.ca (Ir.Var x)) c.Ir.cbody
    in
    let cbody = Ir.subst (Sym.Map.singleton c.Ir.cb (Ir.Var y)) cbody in
    cbody
  in
  let with_n c n_sym =
    Ir.subst (Sym.Map.singleton n_sym (Ir.Ci 2)) (apply c)
  in
  let n1, c1 = mk_elementwise_comb () in
  let c2 = Combs.rename c1 in
  let v1 = Eval.eval env (with_n c1 n1) in
  let v2 = Eval.eval env (with_n c2 n1) in
  Alcotest.(check bool) "same function" true (Value.equal ~eps:1e-9 v1 v2)

let test_combs_elementwise_detected () =
  let _, c = mk_elementwise_comb () in
  match Combs.elementwise c with
  | None -> Alcotest.fail "elementwise comb not recognized"
  | Some build ->
      (* rebuild at extent 3 over fresh arrays and evaluate *)
      let x = Sym.fresh "x" and y = Sym.fresh "y" in
      let e = build [ Ir.Ci 3 ] (Ir.Var x) (Ir.Var y) in
      let arr vs = Value.Arr (Ndarray.init [ Array.length vs ] (function
        | [ i ] -> Value.F vs.(i)
        | _ -> assert false))
      in
      let env =
        Sym.Map.add x (arr [| 1.0; 2.0; 3.0 |])
          (Sym.Map.add y (arr [| 5.0; 6.0; 7.0 |]) Sym.Map.empty)
      in
      let v = Eval.eval env e in
      Alcotest.(check bool) "sums" true
        (Value.equal ~eps:1e-9 v (arr [| 6.0; 8.0; 10.0 |]))

let test_combs_not_elementwise () =
  (* a(i+1) is not a read at exactly the map index *)
  let n = Sym.fresh "n" in
  let a = Sym.fresh "a" and b = Sym.fresh "b" in
  let shifted =
    { Ir.ca = a;
      cb = b;
      cbody =
        map1 (dfull (Ir.Var n)) (fun i ->
            read (Ir.Var a) [ i +! Dsl.i 1 ] +! read (Ir.Var b) [ i ]) }
  in
  Alcotest.(check bool) "shifted read rejected" true
    (Combs.elementwise shifted = None);
  (* scalar comb has no map to re-instantiate *)
  let scalar = { Ir.ca = a; cb = b; cbody = Ir.Var a +! Ir.Var b } in
  Alcotest.(check bool) "scalar comb rejected" true
    (Combs.elementwise scalar = None)

(* ---------------- Depth ---------------- *)

let test_depth_latencies () =
  Alcotest.(check int) "fadd" 8 (Depth.op_latency Ir.Add);
  Alcotest.(check int) "fmul" 6 (Depth.op_latency Ir.Mul);
  Alcotest.(check int) "fdiv" 28 (Depth.op_latency Ir.Div);
  Alcotest.(check int) "sqrt" 16 (Depth.op_latency Ir.Sqrt);
  Alcotest.(check int) "exp" 20 (Depth.op_latency Ir.Exp)

let test_depth_critical_path () =
  let x = Ir.Var (Sym.fresh "x") in
  (* a chain is the sum of its op latencies *)
  let chain = sqrt_ ((x *! x) +! f 1.0) in
  Alcotest.(check int) "mul+add+sqrt" (6 + 8 + 16) (Depth.of_exp chain);
  (* parallel operands: the max, not the sum *)
  let balanced = (x *! x) +! (x +! x) in
  Alcotest.(check int) "max(mul,add)+add" (8 + 8) (Depth.of_exp balanced)

let test_depth_let_on_path () =
  let x = Ir.Var (Sym.fresh "x") in
  let e = let_ (x *! x) (fun sq -> sq +! sq) in
  Alcotest.(check int) "let value on path" (6 + 8) (Depth.of_exp e)

(* ---------------- Split_cost ---------------- *)

let test_split_cost_width () =
  Alcotest.(check int) "float" 1 (Split_cost.width_words Ty.float_);
  Alcotest.(check int) "pair" 2
    (Split_cost.width_words (Ty.Tuple [ Ty.float_; Ty.int_ ]));
  Alcotest.(check bool) "array rejected" true
    (match Split_cost.width_words (Ty.Array (Ty.float_, 1)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_split_cost_dom_bound () =
  let n = Sym.fresh "n" in
  let bound = function
    | Ir.Var s when Sym.equal s n -> Some 1000
    | Ir.Ci c -> Some c
    | _ -> None
  in
  Alcotest.(check (option int)) "dfull" (Some 1000)
    (Split_cost.dom_bound ~bound (Ir.Dfull (Ir.Var n)));
  Alcotest.(check (option int)) "dtiles" (Some 16)
    (Split_cost.dom_bound ~bound
       (Ir.Dtiles { total = Ir.Var n; tile = 64 }));
  Alcotest.(check (option int)) "unbounded" None
    (Split_cost.dom_bound ~bound (Ir.Dfull (Ir.Var (Sym.fresh "m"))))

let test_split_cost_fits () =
  let n = Sym.fresh "n" in
  let bound = function
    | Ir.Var s when Sym.equal s n -> Some 1024
    | Ir.Ci c -> Some c
    | _ -> None
  in
  let doms = [ Ir.Dfull (Ir.Var n) ] in
  Alcotest.(check bool) "1024 floats fit in 2048" true
    (Split_cost.intermediate_fits ~budget_words:2048 ~bound doms Ty.float_);
  Alcotest.(check bool) "1024 pairs exceed 1024" false
    (Split_cost.intermediate_fits ~budget_words:1024 ~bound doms
       (Ty.Tuple [ Ty.float_; Ty.float_ ]));
  Alcotest.(check bool) "unbounded never fits" false
    (Split_cost.intermediate_fits ~budget_words:1_000_000 ~bound
       [ Ir.Dfull (Ir.Var (Sym.fresh "m")) ]
       Ty.float_)

(* ---------------- Metapipe ---------------- *)

let test_metapipe_stage_sets () =
  let b = Suite.find (Suite.all ()) "kmeans" in
  let d = Experiments.design_of Experiments.Tiled_meta b in
  (* every memory reported as written by the top controller is a declared
     memory, and port counts in the finalized design are consistent *)
  let names = List.map (fun m -> m.Hw.mem_name) d.Hw.mems in
  let writes, reads = Hw.subtree_refs d.Hw.top in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " declared") true (List.mem n names))
    (writes @ reads)

let test_metapipe_ports_positive () =
  let b = Suite.find (Suite.all ()) "gemm" in
  let d = Experiments.design_of Experiments.Tiled_meta b in
  let writes, reads = Hw.subtree_refs d.Hw.top in
  List.iter
    (fun m ->
      let used = List.mem m.Hw.mem_name (reads @ writes) in
      if used then
        Alcotest.(check bool)
          (m.Hw.mem_name ^ " has ports")
          true
          (m.Hw.readers + m.Hw.writers > 0))
    d.Hw.mems

let test_metapipe_idempotent () =
  let b = Suite.find (Suite.all ()) "sumrows" in
  let d = Experiments.design_of Experiments.Tiled_meta b in
  let d2 = Metapipe.finalize d in
  Alcotest.(check int) "same memory count" (List.length d.Hw.mems)
    (List.length d2.Hw.mems);
  List.iter2
    (fun m m2 ->
      Alcotest.(check bool) (m.Hw.mem_name ^ " kind stable") true
        (m.Hw.kind = m2.Hw.kind))
    d.Hw.mems d2.Hw.mems

(* ---------------- Simplify ---------------- *)

let test_simplify_identities () =
  let x = Ir.Var (Sym.fresh "x") in
  let cases =
    [ (x *! f 1.0, x);
      (x +! f 0.0, x);
      (Ir.Prim (Ir.Min, [ Ir.Ci 5; Ir.Ci 9 ]), Ir.Ci 5);
      (Ir.Prim (Ir.Add, [ Ir.Ci 2; Ir.Ci 3 ]), Ir.Ci 5) ]
  in
  List.iter
    (fun (e, expect) ->
      let got = Simplify.exp e in
      if got <> expect then
        Alcotest.failf "simplify: got %s, want %s" (Pp.exp_to_string got)
          (Pp.exp_to_string expect))
    cases

let () =
  Alcotest.run "units"
    [ ( "combs",
        [ Alcotest.test_case "rename refreshes binders" `Quick
            test_combs_rename_fresh;
          Alcotest.test_case "elementwise detected" `Quick
            test_combs_elementwise_detected;
          Alcotest.test_case "non-elementwise rejected" `Quick
            test_combs_not_elementwise ] );
      ( "depth",
        [ Alcotest.test_case "op latencies" `Quick test_depth_latencies;
          Alcotest.test_case "critical path" `Quick test_depth_critical_path;
          Alcotest.test_case "let on path" `Quick test_depth_let_on_path ] );
      ( "split cost",
        [ Alcotest.test_case "width words" `Quick test_split_cost_width;
          Alcotest.test_case "dom bound" `Quick test_split_cost_dom_bound;
          Alcotest.test_case "intermediate fits" `Quick test_split_cost_fits ]
      );
      ( "metapipe",
        [ Alcotest.test_case "stage sets declared" `Quick
            test_metapipe_stage_sets;
          Alcotest.test_case "ports positive" `Quick
            test_metapipe_ports_positive;
          Alcotest.test_case "finalize idempotent" `Quick
            test_metapipe_idempotent ] );
      ( "simplify",
        [ Alcotest.test_case "identities" `Quick test_simplify_identities ] )
    ]
