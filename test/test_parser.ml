(* Parser: concrete-syntax roundtrips.  parse (print p) must be
   alpha-equivalent to p and evaluate identically — for every benchmark,
   at every tiling stage (so the grammar covers tiled constructs: strided
   domains, tile tails, copies with reuse, regions with bounds). *)

let roundtrip_exp e =
  Parser.exp_of_string (Pp.exp_to_string e)

let check_alpha msg a b =
  if not (Alpha.equal a b) then
    Alcotest.failf "%s: not alpha-equal@.left:  %s@.right: %s" msg
      (Pp.exp_to_string a) (Pp.exp_to_string b)

(* -------------------- small expressions -------------------- *)

let test_scalars () =
  List.iter
    (fun src ->
      let e = Parser.exp_of_string src in
      (* printing and reparsing is stable *)
      check_alpha src e (roundtrip_exp e))
    [ "1 + 2 * 3";
      "(1.5 - 2.0) / 4.0";
      "min(1, 2) + max(3, 4)";
      "if 1 < 2 then 3 else 4";
      "not(true) || (false && true)";
      "(1, 2.0, true)._2";
      "toFloat(3) + sqrt(2.0)";
      "-1 + -2";
      "[1, 2, 3](0)";
      "inf";
      "x = 1 + 2\nx * x" ]

let test_operator_precedence () =
  let v e = Eval.eval Sym.Map.empty e in
  Alcotest.(check bool) "mul binds tighter" true
    (Value.equal (Value.I 7) (v (Parser.exp_of_string "1 + 2 * 3")));
  Alcotest.(check bool) "comparison" true
    (Value.equal (Value.B true) (v (Parser.exp_of_string "1 + 1 < 3")));
  Alcotest.(check bool) "and/or" true
    (Value.equal (Value.B true)
       (v (Parser.exp_of_string "true || false && false")))

let test_patterns_parse () =
  List.iter
    (fun src ->
      let e = Parser.exp_of_string src in
      check_alpha src e (roundtrip_exp e))
    [ "map(8){ i => 2 * i }";
      "map(4, 6){ (i, j) => i + j }";
      "fold(9)(0){ i => acc => acc + i }{ (a,b) => a + b }";
      "flatMap(5){ i => if i % 2 == 0 then [i] else [] }";
      "groupByFold(9)(0){ i => (i % 3, acc => acc + 1) }{ (a,b) => a + b }";
      "multiFold(4)(zeros(4)){ i => (<4>, i, acc => acc + 1.0) }{ (a,b) => \
       map(4){ j => a(j) + b(j) } }" ]

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.exp_of_string src with
      | exception Parser.Parse_error _ -> ()
      | e ->
          Alcotest.failf "expected parse error for %S, got %s" src
            (Pp.exp_to_string e))
    [ "1 +"; "map(3){ i => }"; "unboundvar"; "if 1 then 2"; "(1, 2"; "";
      "inf = 2.0\ninf * 3.0"; "nan = 2.0\nnan"; "map(3){ inf => 1.0 }" ]

(* -------------------- program roundtrips -------------------- *)

let subst_inputs (parsed : Ir.program) (orig : Ir.program) =
  (* align the parsed program's size/input symbols with the original's so
     the bodies can be compared and co-evaluated *)
  let pairs =
    List.map2
      (fun a b -> (a, Ir.Var b))
      (parsed.Ir.size_params @ List.map (fun i -> i.Ir.iname) parsed.Ir.inputs)
      (orig.Ir.size_params @ List.map (fun i -> i.Ir.iname) orig.Ir.inputs)
  in
  let sigma =
    List.fold_left (fun m (a, e) -> Sym.Map.add a e m) Sym.Map.empty pairs
  in
  Ir.subst sigma parsed.Ir.body

let roundtrip_program (p : Ir.program) =
  let text = Pp.program_to_string p in
  let parsed =
    try Parser.program_of_string text
    with Parser.Parse_error m ->
      Alcotest.failf "parse error on printed %s: %s@.%s" p.Ir.pname m text
  in
  Alcotest.(check string) "name" p.Ir.pname parsed.Ir.pname;
  Alcotest.(check int) "sizes" (List.length p.Ir.size_params)
    (List.length parsed.Ir.size_params);
  Alcotest.(check int) "inputs" (List.length p.Ir.inputs)
    (List.length parsed.Ir.inputs);
  (* max sizes survive *)
  Alcotest.(check (list int)) "max sizes"
    (List.map snd p.Ir.max_sizes)
    (List.map snd parsed.Ir.max_sizes);
  check_alpha p.Ir.pname p.Ir.body (subst_inputs parsed p);
  parsed

let test_suite_roundtrip () =
  List.iter
    (fun bench -> ignore (roundtrip_program bench.Suite.prog))
    (Suite.all ())

let test_tiled_roundtrip () =
  (* the hard case: tiled programs exercise Dtiles/Dtail/Copy/regions *)
  List.iter
    (fun bench ->
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      List.iter
        (fun (nm, prog) ->
          ignore
            (roundtrip_program { prog with Ir.pname = bench.Suite.name ^ nm }))
        [ ("_stripped", r.Tiling.stripped_with_copies); ("_tiled", r.Tiling.tiled) ])
    (Suite.all ())

let test_parsed_evaluates () =
  (* parsed tiled kmeans computes the same result *)
  let bench = Suite.find (Suite.all ()) "kmeans" in
  let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
  let parsed = Parser.program_of_string (Pp.program_to_string r.Tiling.tiled) in
  ignore (Validate.check_program parsed);
  let sizes = bench.Suite.test_sizes in
  let inputs = bench.Suite.gen ~sizes ~seed:3 in
  let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
  (* rebind sizes/inputs to the parsed program's own symbols, by position *)
  let sizes' =
    List.map2
      (fun s (_, v) -> (s, v))
      parsed.Ir.size_params
      (List.map
         (fun s ->
           (s, List.assoc s (List.map (fun (k, v) -> (k, v)) sizes)))
         r.Tiling.tiled.Ir.size_params)
  in
  ignore sizes';
  let sizes_parsed =
    List.map2
      (fun sp so ->
        ( sp,
          snd (List.find (fun (k, _) -> Sym.equal k so) sizes) ))
      parsed.Ir.size_params r.Tiling.tiled.Ir.size_params
  in
  let inputs_parsed =
    List.map2
      (fun (ip : Ir.input) (io : Ir.input) ->
        ( ip.Ir.iname,
          snd (List.find (fun (k, _) -> Sym.equal k io.Ir.iname) inputs) ))
      parsed.Ir.inputs r.Tiling.tiled.Ir.inputs
  in
  let actual =
    Eval.eval_program parsed ~sizes:sizes_parsed ~inputs:inputs_parsed
  in
  Alcotest.(check bool) "parsed program evaluates identically" true
    (Value.equal ~eps:1e-6 expected actual)

let test_ppl_file_workflow () =
  (* write-out / read-back, as the export command produces *)
  let t = Gemm.make () in
  let r =
    Tiling.run ~tiles:[ (t.Gemm.m, 32); (t.Gemm.n, 32); (t.Gemm.p, 32) ]
      t.Gemm.prog
  in
  let path = Filename.temp_file "gemm" ".ppl" in
  let oc = open_out path in
  output_string oc (Pp.program_to_string r.Tiling.tiled);
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let parsed = Parser.program_of_string text in
  ignore (Validate.check_program parsed);
  Alcotest.(check string) "name survives" "gemm" parsed.Ir.pname

(* -------------------- hand-written concrete syntax -------------------- *)

let eval_src src ~n ~xs =
  let parsed = Parser.program_of_string src in
  ignore (Validate.check_program parsed);
  let sizes = List.map (fun s -> (s, n)) parsed.Ir.size_params in
  let inputs =
    List.map
      (fun (i : Ir.input) -> (i.Ir.iname, Workloads.value_of_vector xs))
      parsed.Ir.inputs
  in
  Eval.eval_program parsed ~sizes ~inputs

let test_handwritten_average () =
  let src =
    "program average\n\
     size n\n\
     input x : Float(n)\n\
     s = fold(n)(0.0){ i => acc => acc + x(i) }{ (a,b) => a + b }\n\
     s / toFloat(n)"
  in
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let v = eval_src src ~n:4 ~xs in
  Alcotest.(check bool) "average" true
    (Value.equal ~eps:1e-9 (Value.F 2.5) v)

let test_handwritten_saxpy () =
  let src =
    "program scale\n\
     size n\n\
     input x : Float(n)\n\
     map(n){ i => 2.0 * x(i) + 1.0 }"
  in
  let xs = [| 0.0; 1.0; 2.0 |] in
  match eval_src src ~n:3 ~xs with
  | Value.Arr a ->
      List.iteri
        (fun i expect ->
          Alcotest.(check bool)
            (Printf.sprintf "elt %d" i)
            true
            (Value.equal ~eps:1e-9 (Value.F expect) (Ndarray.get a [ i ])))
        [ 1.0; 3.0; 5.0 ]
  | v -> Alcotest.failf "expected array, got %s" (Value.to_string v)

let test_handwritten_filter_sum () =
  let src =
    "program possum\n\
     size n\n\
     input x : Float(n)\n\
     kept = flatMap(n){ i => if x(i) > 0.0 then [x(i)] else [] }\n\
     fold(kept.dim(0))(0.0){ j => acc => acc + kept(j) }{ (a,b) => a + b }"
  in
  let xs = [| 1.0; -2.0; 3.0; -4.0; 5.0 |] in
  let v = eval_src src ~n:5 ~xs in
  Alcotest.(check bool) "positive sum" true
    (Value.equal ~eps:1e-9 (Value.F 9.0) v)

let test_handwritten_tiles_compile () =
  (* hand-written source goes through the whole pipeline *)
  let src =
    "program rowmax\n\
     size n\n\
     input x : Float(n)\n\
     fold(n)(-inf){ i => acc => max(acc, x(i)) }{ (a,b) => max(a, b) }"
  in
  let parsed = Parser.program_of_string src in
  let tiles = List.map (fun s -> (s, 8)) parsed.Ir.size_params in
  let r = Tiling.run ~tiles parsed in
  let d = Lower.program Lower.default_opts r.Tiling.tiled in
  Hw_check.check_exn d;
  let xs = Array.init 37 (fun i -> float_of_int ((i * 7919) mod 100)) in
  let sizes = List.map (fun s -> (s, 37)) parsed.Ir.size_params in
  let inputs =
    List.map
      (fun (i : Ir.input) -> (i.Ir.iname, Workloads.value_of_vector xs))
      parsed.Ir.inputs
  in
  let v0 = Eval.eval_program parsed ~sizes ~inputs in
  let v1 = Eval.eval_program r.Tiling.tiled ~sizes ~inputs in
  Alcotest.(check bool) "tiled hand-written program equivalent" true
    (Value.equal ~eps:1e-9 v0 v1)

let prop_float_literals_roundtrip =
  QCheck.Test.make ~name:"float literals roundtrip exactly" ~count:500
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      let f = Float.abs f in
      match Parser.exp_of_string (Pp.exp_to_string (Ir.Cf f)) with
      | Ir.Cf g -> g = f
      | _ -> false)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Non-finite constants: [1e400 - 1e400] folds to NaN, printed [-nan],
   and [1e999] reads as infinity, printed [inf].  Printing the tiled
   program, parsing it and printing again gives the same text, up to the
   binder numbers the parser hands out afresh. *)
let test_nonfinite_roundtrip () =
  let strip_ids text =
    let b = Buffer.create (String.length text) and in_id = ref false in
    String.iter
      (fun c ->
        let digit = c >= '0' && c <= '9' in
        if not (digit && !in_id) then Buffer.add_char b c;
        in_id := c = '_' || (digit && !in_id))
      text;
    Buffer.contents b
  in
  List.iter
    (fun (body, constant) ->
      let p =
        Parser.program_of_string
          ("program p\nsize n\nmaxsize n 1048576\ninput x : Float(n)\n\
            map(n){ i => " ^ body ^ " }\n")
      in
      let tiles = [ (List.hd p.Ir.size_params, 64) ] in
      let text = Pp.program_to_string (Tiling.run ~tiles p).Tiling.tiled in
      Alcotest.(check bool) (body ^ " prints " ^ constant) true
        (contains text (" " ^ constant ^ " "));
      let again = Pp.program_to_string (Parser.program_of_string text) in
      Alcotest.(check string) (body ^ " print-parse-print") (strip_ids text)
        (strip_ids again))
    [ ("x(i) + (1e400 - 1e400)", "-nan"); ("x(i) * 1e999", "inf") ]

let test_error_line_numbers () =
  List.iter
    (fun (src, line) ->
      match Parser.program_of_string src with
      | exception Parser.Parse_error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions %s" m line)
            true (contains m line)
      | _ -> Alcotest.failf "expected parse error")
    [ ("program p\nsize n\ninput x : Float(n)\nmap(n){ i => y(i) }", "line 4");
      ("program p\nsize n\ninput x : Quux(n)\nmap(n){ i => x(i) }", "line 3");
      ("program p\nsize n\ninput x : Float(n)\nmap(n){ i => x(i }", "line 4") ]

let test_extended_suite_roundtrip () =
  (* the extension apps roundtrip too — incl. histogram's flattened
     GroupByFold, whose domains reference the pattern's own binders *)
  List.iter
    (fun (bench : Suite.bench) ->
      ignore (roundtrip_program bench.Suite.prog);
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      ignore
        (roundtrip_program
           { r.Tiling.tiled with Ir.pname = bench.Suite.name ^ "_tiled" }))
    (Suite.extended ())

let () =
  Alcotest.run "parser"
    [ ( "expressions",
        [ Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "precedence" `Quick test_operator_precedence;
          Alcotest.test_case "patterns" `Quick test_patterns_parse;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "programs",
        [ Alcotest.test_case "suite roundtrip" `Quick test_suite_roundtrip;
          Alcotest.test_case "extended suite roundtrip" `Quick
            test_extended_suite_roundtrip;
          Alcotest.test_case "tiled roundtrip" `Quick test_tiled_roundtrip;
          Alcotest.test_case "parsed evaluates" `Quick test_parsed_evaluates;
          Alcotest.test_case "ppl file workflow" `Quick test_ppl_file_workflow
        ] );
      ( "hand-written",
        [ Alcotest.test_case "average" `Quick test_handwritten_average;
          Alcotest.test_case "scale" `Quick test_handwritten_saxpy;
          Alcotest.test_case "filter sum" `Quick test_handwritten_filter_sum;
          Alcotest.test_case "tiles and compiles" `Quick
            test_handwritten_tiles_compile;
          Alcotest.test_case "error line numbers" `Quick
            test_error_line_numbers;
          Alcotest.test_case "non-finite constants roundtrip" `Quick
            test_nonfinite_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_literals_roundtrip ] ) ]
