(* IR-level memory profiling: the third leg of the Fig. 5c consistency
   triangle — words counted during actual interpretation of the tiled IR
   must match both the paper's closed forms and the hardware simulator's
   DRAM traffic counters. *)

(* the passes on a program checked here *)
let strip_mine ~tiles p = Strip_mine.program (Validate.check_program p) ~tiles

let test_untiled_counts () =
  (* fused kmeans reads points n*k*d + n*d times (distance fold reads the
     point row per centroid) and centroids n*k*d times, at the IR level *)
  let t = Kmeans.make () in
  let n = 16 and k = 4 and d = 3 in
  let sizes = [ (t.Kmeans.n, n); (t.Kmeans.k, k); (t.Kmeans.d, d) ] in
  let inputs = Kmeans.gen_inputs t ~seed:2 ~n ~k ~d in
  let _, counts = Mem_profile.run t.Kmeans.prog ~sizes ~inputs in
  (* [square (a - b)] duplicates its operand syntactically, so the IR
     issues two reads per distance term (hardware shares the wire) *)
  Alcotest.(check int) "centroids IR reads" (2 * n * k * d)
    (Mem_profile.words counts t.Kmeans.centroids.Ir.iname);
  (* per point: 2*k*d reads in the distance folds + d in the scatter *)
  Alcotest.(check int) "points IR reads"
    ((2 * n * k * d) + (n * d))
    (Mem_profile.words counts t.Kmeans.points.Ir.iname)

let test_tiled_counts_match_fig5c () =
  (* tiled kmeans moves exactly the Fig. 5c words: copies replace element
     traffic *)
  let t = Kmeans.make () in
  let n = 64 and k = 16 and d = 4 in
  let b0 = 16 and b1 = 4 in
  let r = Tiling.run ~tiles:[ (t.Kmeans.n, b0); (t.Kmeans.k, b1) ] t.Kmeans.prog in
  let sizes = [ (t.Kmeans.n, n); (t.Kmeans.k, k); (t.Kmeans.d, d) ] in
  let inputs = Kmeans.gen_inputs t ~seed:3 ~n ~k ~d in
  let _, counts = Mem_profile.run r.Tiling.tiled ~sizes ~inputs in
  Alcotest.(check int) "points tile words" (n * d)
    (Mem_profile.words counts t.Kmeans.points.Ir.iname);
  Alcotest.(check int) "centroids tile words" (n / b0 * k * d)
    (Mem_profile.words counts t.Kmeans.centroids.Ir.iname)

let test_matches_simulator () =
  (* interpreter-counted words = simulator-counted words on the tiled
     design, for kmeans and gemm at exactly-dividing sizes *)
  let check_kmeans () =
    let t = Kmeans.make () in
    let n = 64 and k = 16 and d = 4 in
    let r = Tiling.run ~tiles:[ (t.Kmeans.n, 16); (t.Kmeans.k, 4) ] t.Kmeans.prog in
    let sizes = [ (t.Kmeans.n, n); (t.Kmeans.k, k); (t.Kmeans.d, d) ] in
    let inputs = Kmeans.gen_inputs t ~seed:4 ~n ~k ~d in
    let _, counts = Mem_profile.run r.Tiling.tiled ~sizes ~inputs in
    let design = Lower.program Lower.default_opts r.Tiling.tiled in
    let rep = Simulate.run design ~sizes in
    Alcotest.(check int) "kmeans points: interp = sim"
      (int_of_float (Simulate.read_words rep "points"))
      (Mem_profile.words counts t.Kmeans.points.Ir.iname);
    Alcotest.(check int) "kmeans centroids: interp = sim"
      (int_of_float (Simulate.read_words rep "centroids"))
      (Mem_profile.words counts t.Kmeans.centroids.Ir.iname)
  in
  let check_gemm () =
    let t = Gemm.make () in
    let m = 16 and n = 16 and p = 16 in
    let r =
      Tiling.run ~tiles:[ (t.Gemm.m, 8); (t.Gemm.n, 8); (t.Gemm.p, 8) ] t.Gemm.prog
    in
    let sizes = [ (t.Gemm.m, m); (t.Gemm.n, n); (t.Gemm.p, p) ] in
    let inputs = Gemm.gen_inputs t ~seed:4 ~m ~n ~p in
    let _, counts = Mem_profile.run r.Tiling.tiled ~sizes ~inputs in
    let design = Lower.program Lower.default_opts r.Tiling.tiled in
    let rep = Simulate.run design ~sizes in
    Alcotest.(check int) "gemm x: interp = sim"
      (int_of_float (Simulate.read_words rep "x"))
      (Mem_profile.words counts t.Gemm.x.Ir.iname);
    Alcotest.(check int) "gemm y: interp = sim"
      (int_of_float (Simulate.read_words rep "y"))
      (Mem_profile.words counts t.Gemm.y.Ir.iname)
  in
  check_kmeans ();
  check_gemm ()

let test_reuse_discount () =
  (* overlapping window copies discount by the reuse factor *)
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
    Dsl.program ~name:"win" ~sizes:[ d ] ~max_sizes:[ (d, 4096) ] ~inputs:[ x ]
      body
  in
  let tiled = Copy_insert.program (strip_mine ~tiles:[ (d, 16) ] prog) in
  let dv = 64 in
  let rng = Workloads.Rng.make 5 in
  let xs = Workloads.float_vector rng (dv + 2) in
  let _, counts =
    Mem_profile.run tiled ~sizes:[ (d, dv) ]
      ~inputs:[ (x.Ir.iname, Workloads.value_of_vector xs) ]
  in
  (* 4 tiles of 18 words, halved by reuse=2 -> 36 *)
  Alcotest.(check int) "window words discounted" (4 * 18 / 2)
    (Mem_profile.words counts x.Ir.iname)

let test_hook_restored () =
  (* the hook uninstalls even on exceptions *)
  (try
     Eval.with_hook (fun _ _ -> ()) (fun () -> failwith "boom")
   with Failure _ -> ());
  (* a subsequent evaluation must not fire the old hook (would raise if
     the hook escaped, since the table is gone) *)
  let v = Eval.eval Sym.Map.empty (Dsl.( +! ) (Dsl.f 1.0) (Dsl.f 2.0)) in
  Alcotest.(check bool) "eval still works" true (Value.equal (Value.F 3.0) v)

let test_traffic_rows () =
  (* the generalized Fig. 5c report: the baseline re-reads the centroids
     once per point, the tiled design once per point tile — a reduction
     of exactly the point-tile size *)
  let b = Suite.find (Suite.all ()) "kmeans" in
  let rows = Experiments.traffic b in
  let centroids =
    List.find (fun r -> r.Experiments.tinput = "centroids") rows
  in
  let b0 = 1024.0 in
  Alcotest.(check bool) "centroids ratio = point-tile size" true
    (Float.abs
       ((centroids.Experiments.tbaseline /. centroids.Experiments.ttiled)
       -. b0)
    /. b0
    < 0.02)

let test_traffic_profile_cross_check () =
  (* on affine benchmarks at test sizes, the interpreter's tiled word
     counts agree with the simulator's *)
  List.iter
    (fun name ->
      let b = Suite.find (Suite.extended ()) name in
      let rows = Experiments.traffic ~profile:true b in
      List.iter
        (fun r ->
          match r.Experiments.tprofile with
          | None -> Alcotest.fail "profile column missing"
          | Some w ->
              let sim = r.Experiments.ttiled in
              let dev =
                Float.abs (sim -. float_of_int w) /. Float.max 1.0 sim
              in
              if dev > 0.05 then
                Alcotest.failf "%s/%s: sim %.0f vs interp %d" name
                  r.Experiments.tinput sim w)
        rows)
    [ "sumrows"; "gemm"; "matvec"; "outerprod" ]

(* ------------------ report writers on hostile names ------------------ *)

let render add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* frames and memory names with quotes, backslashes, control bytes and
   the trail separator itself; one trail is empty *)
let hostile_provs =
  [ Prov.none;
    Prov.root "q\"uote";
    { Prov.origin = "back\\slash"; trail = [ "a -> b"; "ctl\x00\x01\x1f\n\t\r" ] };
    { Prov.origin = ""; trail = [ "after an empty origin" ] };
    Prov.push (Prov.root "x") "\x7f\xc3\xa9" ]

let hostile_traffic = [ ("m\"em", 4.0); ("m -> \\\x02", 0.5) ]

let hostile_node i prov children =
  { Profile.name = Printf.sprintf "n\"%d\\" i;
    kind = "pipe";
    prov;
    total = 10.5;
    self = 10.5;
    invocations = 3.0;
    fill = 0.25;
    steady = 10.25;
    dram = 0.0;
    reads = hostile_traffic;
    writes = hostile_traffic;
    area = Area_model.zero;
    children }

let hostile_profile () =
  let leaves = List.mapi (fun i p -> hostile_node (i + 1) p []) hostile_provs in
  let root = hostile_node 0 (Prov.root "top -> \"") leaves in
  { Profile.design_name = "d\"\n";
    total_cycles = 52.5;
    dram_cycles = 0.0;
    fill_cycles = 1.25;
    steady_cycles = 51.25;
    dram_serial_cycles = 0.0;
    root;
    origins =
      [ { Profile.origin = "o -> \\\x03"; o_cycles = 52.5; o_share = 1.0;
          o_traffic = 9.0; o_area = Area_model.zero; o_ctrls = 6 } ];
    unattributed_area = Area_model.zero }

let test_hostile_names () =
  let p = hostile_profile () in
  let provs = p.Profile.root.Profile.prov :: hostile_provs in
  let json = Profile.to_json p in
  let parsed =
    try Mini_json.parse json
    with Mini_json.Bad_json msg -> Alcotest.fail ("profile JSON: " ^ msg)
  in
  (* the prov field is the escaped [Prov.to_string], as JSON text and
     as the parsed value, in tree order *)
  List.iter
    (fun pv ->
      let field = "\"prov\": " ^ render Json_out.add_string (Prov.to_string pv) in
      if not (contains json field) then Alcotest.fail ("missing " ^ field))
    provs;
  let tree = Mini_json.field "tree" parsed in
  let kids =
    match Mini_json.field "children" tree with
    | Mini_json.JArr l -> l
    | _ -> Alcotest.fail "children is not an array"
  in
  Alcotest.(check (list string))
    "parsed prov fields" (List.map Prov.to_string provs)
    (List.map (fun n -> Mini_json.str (Mini_json.field "prov" n)) (tree :: kids));
  Alcotest.(check (list string))
    "parsed memory names" (List.map fst hostile_traffic)
    (match Mini_json.field "reads" tree with
    | Mini_json.JObj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "reads is not an object");
  (* the text column is [Prov.to_string] unescaped *)
  let text = Format.asprintf "%a" Profile.pp_text p in
  List.iter
    (fun pv ->
      let col = "  " ^ Prov.to_string pv ^ "\n" in
      if not (contains text col) then Alcotest.fail ("missing text " ^ col))
    provs

(* indentation keeps growing past any fixed run of blanks *)
let test_deep_text () =
  let depth = 60 in
  let rec chain i =
    hostile_node i (Prov.root "deep") (if i = depth then [] else [ chain (i + 1) ])
  in
  let p = { (hostile_profile ()) with Profile.root = chain 0 } in
  let text = Format.asprintf "%a" Profile.pp_text p in
  let deepest = (hostile_node depth Prov.none []).Profile.name in
  Alcotest.(check bool)
    "deepest row indented by two spaces a level" true
    (contains text ("\n" ^ String.make (2 * depth) ' ' ^ deepest ^ " "))

let () =
  Alcotest.run "profile"
    [ ( "profile",
        [ Alcotest.test_case "untiled IR counts" `Quick test_untiled_counts;
          Alcotest.test_case "tiled counts = fig5c" `Quick
            test_tiled_counts_match_fig5c;
          Alcotest.test_case "interp = simulator" `Quick test_matches_simulator;
          Alcotest.test_case "window reuse discount" `Quick test_reuse_discount;
          Alcotest.test_case "hook restored" `Quick test_hook_restored ] );
      ( "traffic report",
        [ Alcotest.test_case "kmeans centroids ratio" `Quick test_traffic_rows;
          Alcotest.test_case "interp cross-check" `Quick
            test_traffic_profile_cross_check ] );
      ( "report writers",
        [ Alcotest.test_case "hostile names" `Quick test_hostile_names;
          Alcotest.test_case "deep tree text" `Quick test_deep_text ] ) ]
