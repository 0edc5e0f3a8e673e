(* Provenance preservation and profile attribution.

   The provenance stamped on the source patterns (Prov_stamp, run at
   Tiling.run entry) must survive fusion, strip mining, interchange,
   lowering and metapipelining: every controller of every generated
   design carries a non-empty trail whose origin is a real source
   pattern id.  And the attribution profiler must account for 100% of
   the simulated cycles: its root total is the Simulate.run figure
   verbatim, and the self cycles over the tree telescope back to it.
   Both properties are checked for every suite benchmark under all
   three hardware configurations.

   The folded flamegraph backend is validated by a hand-rolled parser:
   [;]-separated frames, one space, an integer weight — and the bytes
   are identical across runs and domain counts. *)

let configs =
  [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let cfg_name = Experiments.config_name

(* the source-pattern ids a benchmark can legitimately attribute to:
   stamping is a deterministic preorder pass, so stamping the source
   program here reproduces exactly the ids Tiling.run assigns *)
let source_origins (bench : Suite.bench) =
  let p = Prov_stamp.program (Validate.check_program bench.Suite.prog) in
  let acc = ref [ p.Ir.pname ^ "/top" ] in
  Rewrite.iter_exp
    (fun e ->
      let prov =
        match e with
        | Ir.Map m -> m.Ir.mprov
        | Ir.Fold f -> f.Ir.fprov
        | Ir.MultiFold mf -> mf.Ir.oprov
        | Ir.FlatMap fm -> fm.Ir.fmprov
        | Ir.GroupByFold g -> g.Ir.gprov
        | _ -> Prov.none
      in
      if not (Prov.is_none prov) then acc := prov.Prov.origin :: !acc)
    p.Ir.body;
  !acc

let unstamped = function
  | Ir.Map { Ir.mprov = prov; _ }
  | Ir.Fold { Ir.fprov = prov; _ }
  | Ir.MultiFold { Ir.oprov = prov; _ }
  | Ir.FlatMap { Ir.fmprov = prov; _ }
  | Ir.GroupByFold { Ir.gprov = prov; _ } ->
      Prov.is_none prov
  | _ -> false

(* a source program gets the preorder ids of the per-node stamping *)
let test_stamp_source () =
  List.iter
    (fun (bench : Suite.bench) ->
      let p = bench.Suite.prog in
      Alcotest.(check bool)
        (bench.Suite.name ^ ": source unstamped") true
        (Rewrite.exists_exp unstamped p.Ir.body);
      Alcotest.(check bool)
        (bench.Suite.name ^ ": its check sees it") false
        (Validate.stamped (Validate.check_program p));
      let stamped = Prov_stamp.program (Validate.check_program p) in
      Alcotest.(check bool)
        (bench.Suite.name ^ ": every pattern stamped") false
        (Rewrite.exists_exp unstamped stamped.Ir.body);
      Alcotest.(check bool)
        (bench.Suite.name ^ ": per-node stamping") true
        (stamped = { p with Ir.body = Prov_stamp.exp ~pname:p.Ir.pname p.Ir.body }))
    (Suite.extended ())

(* every stage Tiling returns is stamped throughout, as its check sees,
   so restamping it (as Lower.shape does) hands the same program back *)
let test_restamp_tiling_output () =
  List.iter
    (fun (bench : Suite.bench) ->
      let r = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog in
      List.iter
        (fun (stage, p) ->
          let c = Validate.check_program p in
          if Rewrite.exists_exp unstamped p.Ir.body || not (Validate.stamped c)
          then Alcotest.failf "%s %s: not stamped throughout" bench.Suite.name stage;
          if Prov_stamp.program c != p then
            Alcotest.failf "%s %s: restamping rebuilt the program"
              bench.Suite.name stage)
        [ ("fused", r.Tiling.fused);
          ("stripped", r.Tiling.stripped);
          ("stripped+copies", r.Tiling.stripped_with_copies);
          ("tiled", r.Tiling.tiled) ])
    (Suite.extended ())

let rec iter_ctrl f c =
  f c;
  match c with
  | Hw.Seq { children; _ } | Hw.Par { children; _ } ->
      List.iter (iter_ctrl f) children
  | Hw.Loop { stages; _ } -> List.iter (iter_ctrl f) stages
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ -> ()

let test_ctrl_provenance () =
  List.iter
    (fun (bench : Suite.bench) ->
      let origins = source_origins bench in
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg bench in
          let ctx name =
            Printf.sprintf "%s/%s: %s" bench.Suite.name (cfg_name cfg) name
          in
          iter_ctrl
            (fun c ->
              let p = Hw.ctrl_prov c in
              let name = Hw.ctrl_name c in
              Alcotest.(check bool)
                (ctx name ^ " has provenance")
                true
                (not (Prov.is_none p));
              Alcotest.(check bool)
                (ctx name ^ " rooted at a source pattern ("
               ^ p.Prov.origin ^ ")")
                true
                (List.mem p.Prov.origin origins))
            d.Hw.top;
          (* memories are attributed too: every on-chip buffer carries
             the provenance of the pattern it was allocated for *)
          List.iter
            (fun (m : Hw.mem) ->
              Alcotest.(check bool)
                (ctx m.Hw.mem_name ^ " (mem) has provenance")
                true
                (not (Prov.is_none m.Hw.mem_prov)))
            d.Hw.mems)
        configs)
    (Suite.extended ())

let rec sum_self (n : Profile.node) =
  List.fold_left (fun acc c -> acc +. sum_self c) n.Profile.self
    n.Profile.children

let test_full_attribution () =
  List.iter
    (fun (bench : Suite.bench) ->
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg bench in
          let sizes = bench.Suite.sim_sizes in
          let cache = Simulate.cache () in
          let rep = Simulate.run ~cache d ~sizes in
          let p = Profile.of_design ~cache d ~sizes in
          let ctx s =
            Printf.sprintf "%s/%s: %s" bench.Suite.name (cfg_name cfg) s
          in
          (* the root total is the simulator's figure, verbatim *)
          Alcotest.(check bool)
            (ctx "profile total = simulate total")
            true
            (Profile.total_cycles p = rep.Simulate.cycles);
          Alcotest.(check bool)
            (ctx "root node carries the total")
            true
            (p.Profile.root.Profile.total = rep.Simulate.cycles);
          (* ... and the self cycles telescope back to 100% of it *)
          let self_sum = sum_self p.Profile.root in
          let tol = 1e-6 *. Float.max 1.0 rep.Simulate.cycles in
          Alcotest.(check bool)
            (ctx "self cycles sum to the total")
            true
            (Float.abs (self_sum -. rep.Simulate.cycles) <= tol);
          (* the per-origin table is the same partition, re-keyed *)
          let origin_sum =
            List.fold_left
              (fun acc (o : Profile.origin_row) -> acc +. o.Profile.o_cycles)
              0.0 p.Profile.origins
          in
          Alcotest.(check bool)
            (ctx "origin rows sum to the total")
            true
            (Float.abs (origin_sum -. rep.Simulate.cycles) <= tol))
        configs)
    (Suite.extended ())

(* ------------------------- folded-stack format ----------------------- *)

let gemm () = Suite.find (Suite.extended ()) "gemm"

let gemm_profile () =
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  Profile.of_design d ~sizes:bench.Suite.sim_sizes

(* hand-rolled parser for the folded flamegraph format: each line is
   [frame;frame;...frame weight] — [;]-separated non-empty frames with
   no embedded whitespace, exactly one space, a non-negative integer
   weight, nothing else *)
let parse_folded_line line =
  match String.rindex_opt line ' ' with
  | None -> Error "no space separator"
  | Some i ->
      let stack = String.sub line 0 i in
      let weight = String.sub line (i + 1) (String.length line - i - 1) in
      if weight = "" then Error "empty weight"
      else if not (String.for_all (fun c -> c >= '0' && c <= '9') weight) then
        Error ("weight not an integer: " ^ weight)
      else
        let frames = String.split_on_char ';' stack in
        if frames = [] then Error "no frames"
        else if
          List.exists
            (fun f ->
              f = ""
              || String.exists
                   (fun c -> c = ' ' || c = '\t' || Char.code c < 0x20)
                   f)
            frames
        then Error ("bad frame in: " ^ stack)
        else Ok (frames, int_of_string weight)

let test_folded_format () =
  let folded = Profile.to_folded (gemm_profile ()) in
  Alcotest.(check bool) "folded output nonempty" true (String.length folded > 0);
  Alcotest.(check bool) "ends with a newline" true
    (folded.[String.length folded - 1] = '\n');
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' folded)
  in
  Alcotest.(check bool) "has stacks" true (List.length lines >= 2);
  let parsed =
    List.map
      (fun l ->
        match parse_folded_line l with
        | Ok p -> p
        | Error e -> Alcotest.fail (Printf.sprintf "line %S: %s" l e))
      lines
  in
  (* weights are positive (zero-weight stacks are dropped) *)
  List.iter
    (fun (_, w) -> Alcotest.(check bool) "positive weight" true (w > 0))
    parsed;
  (* stacks are unique and lexicographically sorted *)
  let stacks = List.map (fun l -> String.concat ";" (fst l)) parsed in
  Alcotest.(check (list string)) "sorted, duplicate-free stacks"
    (List.sort_uniq String.compare stacks)
    stacks;
  (* every stack is rooted at a gemm source pattern *)
  let origins = source_origins (gemm ()) in
  List.iter
    (fun (frames, _) ->
      Alcotest.(check bool)
        ("stack rooted at a source pattern: " ^ List.hd frames)
        true
        (List.mem (List.hd frames) origins))
    parsed;
  (* folded weights sum to (almost all of) the design total: only
     sub-cycle rounding of each node's self time may be lost *)
  let p = gemm_profile () in
  let weight_sum =
    List.fold_left (fun acc (_, w) -> acc +. float_of_int w) 0.0 parsed
  in
  let nodes =
    Profile.fold_nodes (fun acc _ -> acc + 1) 0 p
  in
  Alcotest.(check bool) "weights cover the cycle total" true
    (Float.abs (weight_sum -. Profile.total_cycles p)
    <= 0.5 *. float_of_int nodes)

let test_folded_deterministic () =
  let a = Profile.to_folded (gemm_profile ()) in
  let b = Profile.to_folded (gemm_profile ()) in
  Alcotest.(check string) "byte-identical across runs" a b;
  (* ... and across domain counts: profiles computed inside a parallel
     Pool sweep emit the same bytes as the sequential ones *)
  List.iter
    (fun domains ->
      let results =
        Pool.map ~domains (fun () -> Profile.to_folded (gemm_profile ()))
          [ (); () ]
      in
      List.iter
        (fun r ->
          Alcotest.(check string)
            (Printf.sprintf "byte-identical at %d domains" domains)
            a r)
        results)
    [ 1; 2 ]

let () =
  Alcotest.run "provenance"
    [ ( "stamping",
        [ Alcotest.test_case "source programs" `Quick test_stamp_source;
          Alcotest.test_case "restamping tiling output is a no-op" `Quick
            test_restamp_tiling_output ] );
      ( "preservation",
        [ Alcotest.test_case "every controller rooted at a source pattern"
            `Quick test_ctrl_provenance ] );
      ( "attribution",
        [ Alcotest.test_case "100% of cycles attributed (suite x configs)"
            `Quick test_full_attribution ] );
      ( "folded",
        [ Alcotest.test_case "format parses" `Quick test_folded_format;
          Alcotest.test_case "byte-deterministic" `Quick
            test_folded_deterministic ] ) ]
