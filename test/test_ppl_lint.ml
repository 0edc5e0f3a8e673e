(* Source-level linter: every PPL2xx rule has a program that triggers it
   and a near-identical program that stays clean; the dependence core is
   property-tested against brute-force collision search on small
   concrete iteration boxes; the whole benchmark suite and the good
   corpus programs are lint-clean; the deliberately bad corpus programs
   trip the expected codes. *)

open Dsl

let codes ds = List.map (fun d -> d.Diagnostic.code) ds
let has code ds = List.mem code (codes ds)

let check_has name code ds =
  if not (has code ds) then
    Alcotest.failf "%s: expected %s, got [%s]" name code
      (String.concat "; " (codes ds))

let check_not name code ds =
  if has code ds then
    Alcotest.failf "%s: unexpected %s" name code

(* ------------------- PPL201/202: multiFold races ------------------- *)

let race_prog ~comb write =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n; Ir.Var n ] in
  let body =
    multifold
      [ dfull (Ir.Var n); dfull (Ir.Var n) ]
      ~init:(zeros Ty.Float [ Ir.Var n +! Ir.Var n ])
      ?comb
      (fun idxs ->
        match idxs with
        | [ i1; j1 ] ->
            [ { range = [ Ir.Var n +! Ir.Var n ];
                region = point [ write i1 j1 ];
                upd = (fun acc -> acc +! read (in_var x) [ i1; j1 ]) } ]
        | _ -> assert false)
  in
  program ~name:"race" ~sizes:[ n ]
    ~max_sizes:[ (n, 1024) ]
    ~inputs:[ x ] body

let arr_comb n a b = map1 (dfull n) (fun k -> read a [ k ] +! read b [ k ])

let test_combless_race () =
  (* acc(i+j) without a combine: two iterations hit the same cell *)
  let ds = Ppl_lint.check_program (race_prog ~comb:None (fun a b1 -> a +! b1)) in
  check_has "combine-less non-injective" "PPL201" ds;
  Alcotest.(check bool) "is error" true (Diagnostic.has_errors ds);
  (* acc(i, j) without a combine writes every cell exactly once: clean *)
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n; Ir.Var n ] in
  let body =
    multifold
      [ dfull (Ir.Var n); dfull (Ir.Var n) ]
      ~init:(zeros Ty.Float [ Ir.Var n; Ir.Var n ])
      (fun idxs ->
        match idxs with
        | [ i1; j1 ] ->
            [ { range = [ Ir.Var n; Ir.Var n ];
                region = point [ i1; j1 ];
                upd = (fun acc -> acc +! read (in_var x) [ i1; j1 ]) } ]
        | _ -> assert false)
  in
  let prog =
    program ~name:"scatter" ~sizes:[ n ] ~max_sizes:[ (n, 1024) ]
      ~inputs:[ x ] body
  in
  let ds' = Ppl_lint.check_program prog in
  check_not "combine-less injective" "PPL201" ds';
  check_not "combine-less injective" "PPL202" ds'

let test_parallel_race () =
  (* with a combine, acc(i+j) still races across the parallelized
     (innermost) dimension *)
  let comb = Some (fun a b -> arr_comb (i 2048) a b) in
  let ds = Ppl_lint.check_program (race_prog ~comb (fun a b1 -> a +! b1)) in
  check_has "parallelized overlap" "PPL201" ds

let test_reduction_axis_clean () =
  (* sumrows (Table 2): axis j reduces into acc(i) and the combine
     reconciles it — no diagnostic *)
  let t = Sumrows.make () in
  let ds = Ppl_lint.check_program t.Sumrows.prog in
  check_not "reduction with combine" "PPL201" ds;
  check_not "reduction with combine" "PPL202" ds

let test_serial_overlap_warns () =
  (* acc(i+j, k): i and j collide but the innermost axis k is injective,
     so the overlap only blocks the serial dimensions — a warning *)
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n; Ir.Var n ] in
  let body =
    multifold
      [ dfull (Ir.Var n); dfull (Ir.Var n); dfull (Ir.Var n) ]
      ~init:(zeros Ty.Float [ Ir.Var n +! Ir.Var n; Ir.Var n ])
      ~comb:(fun a b ->
        map2d (dfull (Ir.Var n +! Ir.Var n)) (dfull (Ir.Var n)) (fun p q ->
            read a [ p; q ] +! read b [ p; q ]))
      (fun idxs ->
        match idxs with
        | [ i1; j1; k1 ] ->
            [ { range = [ Ir.Var n +! Ir.Var n; Ir.Var n ];
                region = point [ i1 +! j1; k1 ];
                upd = (fun acc -> acc +! read (in_var x) [ i1; k1 ]) } ]
        | _ -> assert false)
  in
  let prog =
    program ~name:"serial" ~sizes:[ n ] ~max_sizes:[ (n, 1024) ]
      ~inputs:[ x ] body
  in
  let ds = Ppl_lint.check_program prog in
  check_has "serial-dim overlap" "PPL202" ds;
  check_not "serial-dim overlap is not an error" "PPL201" ds;
  Alcotest.(check bool) "warning, not error" false (Diagnostic.has_errors ds)

let test_fold_ignores_acc () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let bad =
    fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
      ~comb:(fun a b -> a +! b)
      (fun idx _acc -> read (in_var x) [ idx ])
  in
  let prog = program ~name:"over" ~sizes:[ n ] ~inputs:[ x ] bad in
  check_has "fold overwrites" "PPL202" (Ppl_lint.check_program prog);
  let good =
    fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
      ~comb:(fun a b -> a +! b)
      (fun idx acc -> acc +! read (in_var x) [ idx ])
  in
  let prog' = program ~name:"sum" ~sizes:[ n ] ~inputs:[ x ] good in
  let ds' = Ppl_lint.check_program prog' in
  check_not "fold accumulates" "PPL202" ds';
  check_not "no carried dependence" "PPL220" ds'

(* ------------------- PPL203: degenerate keys ------------------- *)

let test_constant_key () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let body =
    groupbyfold (dfull (Ir.Var n)) ~init:(i 0)
      ~comb:(fun a b -> a +! b)
      (fun _row -> (i 3, fun acc -> acc +! i 1))
  in
  let prog = program ~name:"onebucket" ~sizes:[ n ] ~inputs:[ x ] body in
  check_has "constant key" "PPL203" (Ppl_lint.check_program prog);
  (* histogram's data-dependent key is the legitimate use *)
  let t = Histogram.make () in
  check_not "histogram key" "PPL203" (Ppl_lint.check_program t.Histogram.prog)

(* ------------- PPL210/211/212: access classification ------------- *)

let read_prog mk_idx =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n *! Ir.Var n ] in
  let y = input "y" Ty.int_ [ Ir.Var n ] in
  let body = map1 (dfull (Ir.Var n)) (fun idx -> read (in_var x) [ mk_idx n y idx ]) in
  program ~name:"cls" ~sizes:[ n ] ~inputs:[ x; y ] body

let test_access_classes () =
  let affine = Ppl_lint.check_program (read_prog (fun _ _ idx -> idx +! i 1)) in
  check_has "affine" "PPL210" affine;
  check_not "affine" "PPL211" affine;
  check_not "affine" "PPL212" affine;
  (* i + n*n: non-affine, but the non-affine part is loop-invariant *)
  let modinv =
    Ppl_lint.check_program
      (read_prog (fun n _ idx -> idx +! (Ir.Var n *! Ir.Var n)))
  in
  check_has "affine mod invariant" "PPL211" modinv;
  check_not "affine mod invariant" "PPL212" modinv;
  (* x(y(i)): a gather *)
  let dd =
    Ppl_lint.check_program (read_prog (fun _ y idx -> read (in_var y) [ idx ]))
  in
  check_has "data-dependent" "PPL212" dd

(* ------------------- PPL213: backend cross-check ------------------- *)

let test_crosscheck () =
  let b = Suite.find (Suite.extended ()) "spmv" in
  let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
  (* the design actually lowered from the tiled program agrees *)
  let d_tiled = Experiments.design_of Experiments.Tiled b in
  Alcotest.(check (list string)) "agreement" []
    (codes (Ppl_lint.crosscheck ~cache_leftover:true r.Tiling.tiled d_tiled));
  (* the baseline design has no leftover caches: claiming it should
     have one is exactly the disagreement PPL213 reports *)
  let d_base = Experiments.design_of Experiments.Baseline b in
  let ds = Ppl_lint.crosscheck ~cache_leftover:true r.Tiling.tiled d_base in
  check_has "missing cache" "PPL213" ds;
  Alcotest.(check bool) "error severity" true (Diagnostic.has_errors ds)

let test_crosscheck_suite () =
  (* lint and backend must agree on every benchmark, all three configs *)
  List.iter
    (fun (b : Suite.bench) ->
      let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
      List.iter
        (fun cfg ->
          let prog, cache_leftover =
            match cfg with
            | Experiments.Baseline -> (r.Tiling.fused, false)
            | Experiments.Tiled | Experiments.Tiled_meta ->
                (r.Tiling.tiled, true)
          in
          let d = Experiments.design_of cfg b in
          match Ppl_lint.crosscheck ~cache_leftover prog d with
          | [] -> ()
          | ds ->
              Alcotest.failf "%s/%s: %s" b.Suite.name
                (Experiments.config_name cfg)
                (String.concat "; " (codes ds)))
        [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ])
    (Suite.extended ())

(* ------------------- PPL220/221/222 ------------------- *)

let test_carried_dependence () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let body =
    fold1 (dfull (Ir.Var n))
      ~init:(zeros Ty.Float [ Ir.Var n ])
      ~comb:(fun a b -> map1 (dfull (Ir.Var n)) (fun k -> read a [ k ] +! read b [ k ]))
      (fun idx acc ->
        map1 (dfull (Ir.Var n)) (fun k ->
            read acc [ k ] +! (read acc [ idx ] *! read (in_var x) [ idx ])))
  in
  let prog = program ~name:"carried" ~sizes:[ n ] ~inputs:[ x ] body in
  check_has "acc read at fold index" "PPL220" (Ppl_lint.check_program prog)

let test_unused_index () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let body = map2d (dfull (Ir.Var n)) (dfull (Ir.Var n)) (fun a _ -> read (in_var x) [ a ]) in
  let prog = program ~name:"unused" ~sizes:[ n ] ~inputs:[ x ] body in
  check_has "unused map index" "PPL221" (Ppl_lint.check_program prog);
  let body' = map2d (dfull (Ir.Var n)) (dfull (Ir.Var n)) (fun a b1 -> read (in_var x) [ a ] *! to_float b1) in
  let prog' = program ~name:"used" ~sizes:[ n ] ~inputs:[ x ] body' in
  check_not "both used" "PPL221" (Ppl_lint.check_program prog')

let test_dead_let () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let body =
    map1 (dfull (Ir.Var n)) (fun idx ->
        let_ (read (in_var x) [ idx ]) (fun _dead -> f 1.0))
  in
  let prog = program ~name:"deadlet" ~sizes:[ n ] ~inputs:[ x ] body in
  check_has "dead let" "PPL221" (Ppl_lint.check_program prog)

let test_guards () =
  let n = size "n" in
  let x = input "x" Ty.float_ [ Ir.Var n ] in
  let prog body = program ~name:"g" ~sizes:[ n ] ~inputs:[ x ] body in
  let div0 =
    Ppl_lint.check_program
      (prog (map1 (dfull (Ir.Var n)) (fun idx -> read (in_var x) [ idx ] /! f 0.0)))
  in
  check_has "division by zero" "PPL222" div0;
  Alcotest.(check bool) "div0 is error" true (Diagnostic.has_errors div0);
  let sqrtneg =
    Ppl_lint.check_program
      (prog (map1 (dfull (Ir.Var n)) (fun _ -> sqrt_ (f (-1.0)))))
  in
  check_has "sqrt of negative" "PPL222" sqrtneg;
  (* n+1 is provably >= 1: silent *)
  let proven =
    Ppl_lint.check_program
      (prog
         (map1 (dfull (Ir.Var n)) (fun idx ->
              read (in_var x) [ idx ] /! to_float (Ir.Var n +! i 1))))
  in
  check_not "provably nonzero denominator" "PPL222" proven;
  (* data-dependent denominator: only an info, never an error *)
  let dd =
    Ppl_lint.check_program
      (prog
         (map1 (dfull (Ir.Var n)) (fun idx ->
              f 1.0 /! read (in_var x) [ idx ])))
  in
  check_has "data-dependent denominator noted" "PPL222" dd;
  Alcotest.(check bool) "but not an error" false (Diagnostic.has_errors dd)

(* --------------- Depend: property-test the dependence core --------------- *)

let gen_case =
  QCheck.Gen.(
    int_range 1 3 >>= fun nax ->
    int_range 1 2 >>= fun nmaps ->
    list_repeat nax (int_range 1 4) >>= fun extents ->
    list_repeat nmaps (list_repeat nax (int_range (-3) 3)) >>= fun coeffs ->
    list_repeat nmaps (int_range (-2) 2) >>= fun consts ->
    return (extents, coeffs, consts))

(* The oracle: brute force over the concrete box (extents exact here,
   not upper bounds), the first pair of distinct points with equal
   images, or [None]; cost is the product of the extents. *)
exception Found of int list * int list

let collision ~axes maps =
  let syms = List.map fst axes in
  let eval pt (m : Affine.t) =
    List.fold_left2
      (fun acc s v -> acc + (Affine.coeff m s * v))
      m.Affine.const syms pt
  in
  let rec enum axes k =
    match axes with
    | [] -> k []
    | (_, e) :: rest ->
        for v = 0 to e - 1 do
          enum rest (fun tail -> k (v :: tail))
        done
  in
  let tbl = Hashtbl.create 64 in
  try
    enum axes (fun pt ->
        let image = List.map (eval pt) maps in
        match Hashtbl.find_opt tbl image with
        | Some prev -> raise (Found (prev, pt))
        | None -> Hashtbl.add tbl image pt);
    None
  with Found (a, b) -> Some (a, b)

let prop_injectivity_vs_bruteforce =
  QCheck.Test.make ~name:"depend: injectivity agrees with brute force"
    ~count:500
    (QCheck.make gen_case)
    (fun (extents, coeffs, consts) ->
      let syms = List.map (fun _ -> Sym.fresh "a") extents in
      let axes =
        List.map2 (fun s e -> { Depend.asym = s; extent = Some e }) syms extents
      in
      let maps =
        List.map2
          (fun cs c0 ->
            List.fold_left2
              (fun acc s c -> Affine.add acc (Affine.scale c (Affine.var s)))
              (Affine.const c0) syms cs)
          coeffs consts
      in
      let brute =
        collision ~axes:(List.combine syms extents) maps
      in
      match Depend.injectivity ~axes maps with
      | Depend.Injective -> brute = None
      | Depend.Overlapping _ -> brute <> None
      | Depend.Unknown _ -> true)

let test_injectivity_units () =
  let a = Sym.fresh "a" and b1 = Sym.fresh "b" in
  let ax e = List.map2 (fun s x -> { Depend.asym = s; extent = Some x }) [ a; b1 ] e in
  let m cs c0 =
    List.fold_left2
      (fun acc s c -> Affine.add acc (Affine.scale c (Affine.var s)))
      (Affine.const c0) [ a; b1 ] cs
  in
  (* (a, b) -> 4a + b with b < 4: mixed radix, injective *)
  Alcotest.(check bool) "mixed radix" true
    (Depend.injectivity ~axes:(ax [ 8; 4 ]) [ m [ 4; 1 ] 0 ] = Depend.Injective);
  (* (a, b) -> a + b: collides *)
  (match Depend.injectivity ~axes:(ax [ 4; 4 ]) [ m [ 1; 1 ] 0 ] with
  | Depend.Overlapping _ -> ()
  | _ -> Alcotest.fail "a+b should overlap");
  (* b never addresses the output *)
  (match Depend.injectivity ~axes:(ax [ 4; 4 ]) [ m [ 1; 0 ] 0 ] with
  | Depend.Overlapping { dims; _ } ->
      Alcotest.(check int) "missing axis" 1 (List.length dims)
  | _ -> Alcotest.fail "missing axis should overlap");
  (* 3a + b with b < 4 > 3: strides genuinely collide *)
  (match Depend.injectivity ~axes:(ax [ 4; 4 ]) [ m [ 3; 1 ] 0 ] with
  | Depend.Overlapping _ -> ()
  | _ -> Alcotest.fail "3a+b with b<4 should overlap")

(* --------------- Diagnostic code ordering --------------- *)

let test_compare_codes () =
  let lt a b1 =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s" a b1)
      true
      (Diagnostic.compare_codes a b1 < 0)
  in
  lt "HW9" "HW10";
  lt "HW101" "HW102";
  lt "HW142" "PPL201";
  lt "PPL201" "PPL210";
  lt "PPL222" "PPL230";
  Alcotest.(check int) "equal codes" 0 (Diagnostic.compare_codes "PPL201" "PPL201")

(* --------------- whole-suite and corpus cleanliness --------------- *)

let test_suite_error_clean () =
  List.iter
    (fun (b : Suite.bench) ->
      match Diagnostic.errors (Ppl_lint.check_all b.Suite.prog) with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: %s" b.Suite.name
            (String.concat "; "
               (List.map (Format.asprintf "%a" Diagnostic.pp) errs)))
    (Suite.extended ())

let corpus_dir () =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "average.ppl"))
    [ "../corpus"; "corpus"; "../../corpus" ]

let parse_corpus dir file =
  let ic = open_in (Filename.concat dir file) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Parser.program_of_string text

let test_corpus_good_clean () =
  match corpus_dir () with
  | None -> Alcotest.fail "corpus directory not found (dune deps missing?)"
  | Some dir ->
      List.iter
        (fun file ->
          let prog = parse_corpus dir file in
          ignore (Validate.check_program prog);
          let noisy =
            List.filter
              (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
              (Ppl_lint.check_all prog)
          in
          if noisy <> [] then
            Alcotest.failf "%s: %s" file (String.concat "; " (codes noisy)))
        [ "average.ppl"; "saxpy.ppl"; "possum.ppl"; "rowdot.ppl" ];
      (* possum's FlatMap-sized fold is the PPL220 showcase (info) *)
      check_has "possum streams" "PPL220"
        (Ppl_lint.check_program (parse_corpus (Option.get (corpus_dir ())) "possum.ppl"))

let test_corpus_bad () =
  match corpus_dir () with
  | None -> Alcotest.fail "corpus directory not found (dune deps missing?)"
  | Some dir ->
      let race = Ppl_lint.check_all (parse_corpus dir "bad_race.ppl") in
      check_has "bad_race" "PPL201" race;
      Alcotest.(check bool) "bad_race errors" true (Diagnostic.has_errors race);
      let na = Ppl_lint.check_all (parse_corpus dir "bad_nonaffine.ppl") in
      check_has "bad_nonaffine gather" "PPL212" na;
      check_has "bad_nonaffine bounds" "PPL230" na

let () =
  Alcotest.run "ppl_lint"
    [ ( "races",
        [ Alcotest.test_case "combine-less race" `Quick test_combless_race;
          Alcotest.test_case "parallelized overlap" `Quick test_parallel_race;
          Alcotest.test_case "reduction axis clean" `Quick
            test_reduction_axis_clean;
          Alcotest.test_case "serial overlap warns" `Quick
            test_serial_overlap_warns;
          Alcotest.test_case "fold ignores acc" `Quick test_fold_ignores_acc;
          Alcotest.test_case "constant key" `Quick test_constant_key ] );
      ( "access",
        [ Alcotest.test_case "classification" `Quick test_access_classes;
          Alcotest.test_case "crosscheck disagreement" `Quick test_crosscheck;
          Alcotest.test_case "crosscheck suite" `Quick test_crosscheck_suite ] );
      ( "mining",
        [ Alcotest.test_case "carried dependence" `Quick
            test_carried_dependence;
          Alcotest.test_case "unused index" `Quick test_unused_index;
          Alcotest.test_case "dead let" `Quick test_dead_let;
          Alcotest.test_case "guards" `Quick test_guards ] );
      ( "depend",
        [ QCheck_alcotest.to_alcotest prop_injectivity_vs_bruteforce;
          Alcotest.test_case "injectivity units" `Quick
            test_injectivity_units ] );
      ( "codes",
        [ Alcotest.test_case "numeric-aware ordering" `Quick
            test_compare_codes ] );
      ( "corpus",
        [ Alcotest.test_case "suite error-clean" `Quick test_suite_error_clean;
          Alcotest.test_case "good corpus clean" `Quick test_corpus_good_clean;
          Alcotest.test_case "bad corpus trips" `Quick test_corpus_bad ] ) ]
