(* The semantic design linter: every analysis class fires on a
   hand-built adversarial design, every generated design (suite and
   corpus, all configurations) is clean at error severity, and deleting
   the double-buffer promotion Metapipe.finalize performs makes the race
   lint fire on real benchmarks. *)

let pipe ?(par = 4) ?(trips = [ Hw.Tconst 16.0 ]) ?(template = Hw.Vector)
    ?(uses = []) ?(defines = []) ?(dram = []) name =
  Hw.Pipe
    { name;
      trips;
      template;
      par;
      depth = 4;
      ii = 1;
      ops =
        { Hw.flops = 1; int_ops = 0; cmp_ops = 0; mem_reads = 1; mem_writes = 1 };
      body = None;
      dram;
      uses;
      defines;
      prov = Prov.none }

let mem ?(kind = Hw.Buffer) ?(depth = 64) ?(banks = 4) name =
  { Hw.mem_name = name; kind; width_bits = 32; depth; banks;
    readers = 0; writers = 0; mem_prov = Prov.none }

(* honest port counts without Metapipe.finalize's promotion, so the
   adversarial designs stay adversarial *)
let design ?(mems = []) top =
  Hw.count_ports { Hw.design_name = "t"; mems; top; par_factor = 4 }

let codes d = List.map (fun f -> f.Diagnostic.code) (Hw_lint.check d)
let has_code d c = List.mem c (codes d)

let check_has d c =
  Alcotest.(check bool)
    (c ^ " fires") true (has_code d c)

let check_not d c =
  Alcotest.(check bool)
    (c ^ " silent") false (has_code d c)

let meta_loop ?(meta = true) name stages =
  Hw.Loop { name; trips = [ Hw.Tconst 8.0 ]; meta; stages; prov = Prov.none }

(* ------------------- 1. metapipeline races ------------------- *)

let test_race_buffer () =
  let top =
    meta_loop "l"
      [ pipe ~defines:[ "buf" ] "w"; pipe ~uses:[ "buf" ] "r" ]
  in
  let d = design ~mems:[ mem "buf" ] top in
  check_has d "HW101";
  (* the diagnostic carries the controller path to the loop *)
  let diag =
    List.find (fun f -> f.Diagnostic.code = "HW101") (Hw_lint.check d)
  in
  Alcotest.(check (list string)) "path" [ "l" ] diag.Diagnostic.path;
  Alcotest.(check string) "where" "buf" diag.Diagnostic.where;
  (* double-buffered, the same shape is exactly right *)
  let d = design ~mems:[ mem ~kind:Hw.Double_buffer "buf" ] top in
  check_not d "HW101";
  check_not d "HW102"

let test_race_needs_distinct_stages () =
  (* write and read within one stage: no overlap hazard *)
  let top =
    meta_loop "l" [ pipe ~uses:[ "buf" ] ~defines:[ "buf" ] "rw" ]
  in
  let d = design ~mems:[ mem "buf" ] top in
  check_not d "HW101"

let test_race_sequential_loop_exempt () =
  let top =
    meta_loop ~meta:false "l"
      [ pipe ~defines:[ "buf" ] "w"; pipe ~uses:[ "buf" ] "r" ]
  in
  let d = design ~mems:[ mem "buf" ] top in
  check_not d "HW101";
  (* ...but that shape is exactly what metapipelining overlaps *)
  check_has d "HW141"

let test_race_scalar_reg () =
  let top =
    meta_loop "l"
      [ pipe ~defines:[ "r0" ] "w"; pipe ~uses:[ "r0" ] "r" ]
  in
  let d = design ~mems:[ mem ~kind:Hw.Reg ~depth:1 ~banks:1 "r0" ] top in
  check_not d "HW101";
  check_has d "HW103";
  let diag =
    List.find (fun f -> f.Diagnostic.code = "HW103") (Hw_lint.check d)
  in
  Alcotest.(check bool) "warning severity" true
    (diag.Diagnostic.severity = Diagnostic.Warning)

let test_fifo_coupling_exempt () =
  (* a FIFO between stages is the decoupling mechanism, not a race *)
  let top =
    meta_loop "l"
      [ pipe ~template:Hw.Fifo_write ~defines:[ "q" ] "w";
        pipe ~uses:[ "q" ] "r" ]
  in
  let d = design ~mems:[ mem ~kind:Hw.Fifo ~depth:64 ~banks:1 "q" ] top in
  check_not d "HW101";
  check_not d "HW103"

let test_overpromotion () =
  let top =
    meta_loop "l" [ pipe ~uses:[ "db" ] ~defines:[ "db" ] "rw" ]
  in
  let d = design ~mems:[ mem ~kind:Hw.Double_buffer "db" ] top in
  check_has d "HW102"

(* ------------------- 2. banking / ports ------------------- *)

let test_bank_conflict () =
  let top = pipe ~par:8 ~uses:[ "m" ] ~defines:[ "out" ] "p" in
  let d =
    design ~mems:[ mem ~banks:2 "m"; mem ~banks:8 "out" ] top
  in
  check_has d "HW110";
  (* enough banks: clean *)
  let d =
    design ~mems:[ mem ~banks:8 "m"; mem ~banks:8 "out" ] top
  in
  check_not d "HW110"

let test_reg_broadcast_exempt () =
  (* a depth-1 register is broadcast to all lanes, not banked *)
  let top = pipe ~par:8 ~uses:[ "r0" ] ~defines:[ "out" ] "p" in
  let d =
    design ~mems:[ mem ~kind:Hw.Reg ~depth:1 ~banks:1 "r0"; mem ~banks:8 "out" ] top
  in
  check_not d "HW110"

let test_port_counts () =
  let top = pipe ~uses:[ "m" ] ~defines:[ "out" ] "p" in
  let d = design ~mems:[ mem "m"; mem "out" ] top in
  check_not d "HW111";
  (* stale declared counts are flagged *)
  let stale m = if m.Hw.mem_name = "m" then { m with Hw.readers = 5 } else m in
  check_has { d with Hw.mems = List.map stale d.Hw.mems } "HW111"

(* the one memory-reference rule every analysis shares *)
let test_reference_rule () =
  let words = Hw.Tconst 16.0 in
  let load =
    Hw.Tile_load
      { name = "load"; mem = "a"; array = "x"; words; path = []; reuse = 1;
        prov = Prov.none }
  in
  let store mem name =
    Hw.Tile_store { name; mem; array = "y"; words; path = []; prov = Prov.none }
  in
  let p = pipe ~uses:[ "a"; "a" ] ~defines:[ "out" ] "p" in
  let loop = meta_loop "l" [ p; store (Some "out") "store" ] in
  let par = Hw.Par { name = "par"; children = [ loop ]; prov = Prov.none } in
  let stream = store None "stream" in
  let top =
    Hw.Seq { name = "top"; children = [ load; par; stream ]; prov = Prov.none }
  in
  let refs = Alcotest.(pair (list string) (list string)) in
  let none = ([], []) in
  Alcotest.check refs "stream store names nothing" none (Hw.mem_refs stream);
  List.iter
    (fun c -> Alcotest.check refs (Hw.ctrl_name c) none (Hw.mem_refs c))
    [ top; par; loop ];
  Alcotest.check refs "pipe keeps duplicates" ([ "out" ], [ "a"; "a" ])
    (Hw.mem_refs p);
  Alcotest.check refs "subtree sorted, deduplicated"
    ([ "a"; "out" ], [ "a"; "out" ])
    (Hw.subtree_refs top);
  let ports = Hw.port_counts top in
  let rw = Alcotest.(pair int int) in
  Alcotest.check rw "a: two reads, one write" (2, 1) (ports "a");
  Alcotest.check rw "out: one read, one write" (1, 1) (ports "out");
  Alcotest.check rw "DRAM arrays have no ports" (0, 0) (ports "y");
  (* counted by name: a duplicated name (HW001) gets the count twice *)
  let d = design ~mems:[ mem "a"; mem "a"; mem "out" ] top in
  Alcotest.(check (list (pair int int)))
    "declared counts" [ (2, 1); (2, 1); (1, 1) ]
    (List.map (fun m -> (m.Hw.readers, m.Hw.writers)) d.Hw.mems)

(* ------------------- 3. FIFO rates / deadlock ------------------- *)

let fifo_pair ?(meta = false) ?(fifo_depth = 4096) ~ptrips ~ctrips () =
  let top =
    meta_loop ~meta "l"
      [ pipe ~trips:ptrips ~template:Hw.Fifo_write ~defines:[ "q" ] "prod";
        pipe ~trips:ctrips ~uses:[ "q" ] "cons" ]
  in
  design
    ~mems:[ mem ~kind:Hw.Fifo ~depth:fifo_depth ~banks:1 "q" ]
    top

let test_fifo_rate_mismatch () =
  let d =
    fifo_pair ~ptrips:[ Hw.Tconst 1024.0 ] ~ctrips:[ Hw.Tconst 256.0 ] ()
  in
  check_has d "HW120";
  (* matched rates: clean *)
  let d =
    fifo_pair ~ptrips:[ Hw.Tconst 1024.0 ] ~ctrips:[ Hw.Tconst 1024.0 ] ()
  in
  check_not d "HW120"

let test_fifo_rate_symbolic () =
  let n = Sym.fresh "n" in
  (* n*4 vs 4*n: same symbolic product, no finding *)
  let d =
    fifo_pair
      ~ptrips:[ Hw.Tsize n; Hw.Tconst 4.0 ]
      ~ctrips:[ Hw.Tconst 4.0; Hw.Tsize n ]
      ()
  in
  check_not d "HW120";
  (* n*4 vs n: same atoms, different constant — provably mismatched
     without knowing n *)
  let d =
    fifo_pair ~ptrips:[ Hw.Tsize n; Hw.Tconst 4.0 ] ~ctrips:[ Hw.Tsize n ] ()
  in
  check_has d "HW120";
  (* a data-dependent (selectivity-scaled) consumer rate is matched at
     runtime by construction: no static verdict *)
  let d =
    fifo_pair
      ~ptrips:[ Hw.Tsize n ]
      ~ctrips:[ Hw.Tscale (0.05, Hw.Tsize n) ]
      ()
  in
  check_not d "HW120"

let test_fifo_deadlock () =
  (* the producer must push 1024 elements before the consumer stage
     starts draining, through a 16-deep FIFO: it blocks forever *)
  let d =
    fifo_pair ~fifo_depth:16
      ~ptrips:[ Hw.Tconst 1024.0 ]
      ~ctrips:[ Hw.Tconst 1024.0 ]
      ()
  in
  check_has d "HW121";
  (* deep enough: clean *)
  let d =
    fifo_pair ~fifo_depth:2048
      ~ptrips:[ Hw.Tconst 1024.0 ]
      ~ctrips:[ Hw.Tconst 1024.0 ]
      ()
  in
  check_not d "HW121"

let test_fifo_burst_slack () =
  (* fits one burst but not two: a metapipeline serializes on it *)
  let d =
    fifo_pair ~meta:true ~fifo_depth:100
      ~ptrips:[ Hw.Tconst 64.0 ]
      ~ctrips:[ Hw.Tconst 64.0 ]
      ()
  in
  check_not d "HW121";
  check_has d "HW122";
  let d =
    fifo_pair ~meta:true ~fifo_depth:128
      ~ptrips:[ Hw.Tconst 64.0 ]
      ~ctrips:[ Hw.Tconst 64.0 ]
      ()
  in
  check_not d "HW122"

(* ------------------- 4. capacity ------------------- *)

let test_capacity_overflow () =
  let load words =
    Hw.Tile_load
      { name = "load"; mem = "buf"; array = "x"; words = Hw.Tconst words;
        path = []; reuse = 1; prov = Prov.none }
  in
  let top words =
    Hw.Seq
      { name = "top"; children = [ load words; pipe ~uses:[ "buf" ] ~defines:[ "out" ] "p" ]; prov = Prov.none }
  in
  let mems () = [ mem ~depth:1024 ~banks:4 "buf"; mem ~banks:4 "out" ] in
  let d = design ~mems:(mems ()) (top 4096.0) in
  check_has d "HW130";
  let d = design ~mems:(mems ()) (top 1024.0) in
  check_not d "HW130"

let test_capacity_store () =
  let store =
    Hw.Tile_store
      { name = "store"; mem = Some "buf"; array = "out";
        words = Hw.Tconst 4096.0; path = []; prov = Prov.none }
  in
  let top =
    Hw.Seq
      { name = "top"; children = [ pipe ~defines:[ "buf" ] "p"; store ]; prov = Prov.none }
  in
  let d = design ~mems:[ mem ~depth:64 ~banks:4 "buf" ] top in
  check_has d "HW130"

(* ------------------- 5. performance lints ------------------- *)

let test_dead_controller () =
  let top =
    Hw.Seq
      { name = "top";
        children =
          [ pipe ~defines:[ "m" ] "w";
            Hw.Seq { name = "dead"; children = [ pipe ~uses:[ "m" ] "r" ]; prov = Prov.none } ]; prov = Prov.none }
  in
  let d = design ~mems:[ mem "m" ] top in
  check_has d "HW140";
  let diag =
    List.find (fun f -> f.Diagnostic.code = "HW140") (Hw_lint.check d)
  in
  (* the topmost effect-free subtree is reported, not every node in it *)
  Alcotest.(check string) "where" "dead" diag.Diagnostic.where

let test_adjacent_dram_stages () =
  let load n m =
    Hw.Tile_load
      { name = n; mem = m; array = "x"; words = Hw.Tconst 64.0; path = [];
        reuse = 1; prov = Prov.none }
  in
  let top =
    meta_loop "l"
      [ load "la" "a"; load "lb" "b";
        pipe ~uses:[ "a"; "b" ] ~defines:[ "out" ] "p" ]
  in
  let d = design ~mems:[ mem "a"; mem "b"; mem ~banks:4 "out" ] top in
  check_has d "HW142";
  (* separated by a compute stage: the channel gets gaps *)
  let top =
    meta_loop "l"
      [ load "la" "a"; pipe ~uses:[ "a" ] ~defines:[ "out" ] "p";
        load "lb" "b" ]
  in
  let d = design ~mems:[ mem "a"; mem "b"; mem ~banks:4 "out" ] top in
  check_not d "HW142"

(* ------------- generated designs are lint-clean ------------- *)

let configs =
  [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let test_suite_clean () =
  List.iter
    (fun (b : Suite.bench) ->
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          match Diagnostic.errors (Hw_lint.check_all d) with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s/%s: %s" b.Suite.name
                (Experiments.config_name cfg)
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Diagnostic.pp) errs)))
        configs)
    (Suite.extended ())

(* Deleting the promotion Metapipe.finalize performs must make the race
   lint fire: demote every double buffer back to a plain buffer (the
   design a promotion-less finalize would produce) and re-lint. *)
let test_demoted_promotion_races () =
  let fired =
    List.filter
      (fun (b : Suite.bench) ->
        let d = Experiments.design_of Experiments.Tiled_meta b in
        let demoted =
          { d with
            Hw.mems =
              List.map
                (fun m ->
                  if m.Hw.kind = Hw.Double_buffer then
                    { m with Hw.kind = Hw.Buffer }
                  else m)
                d.Hw.mems }
        in
        has_code demoted "HW101")
      (Suite.extended ())
  in
  if fired = [] then
    Alcotest.fail
      "demoting every Double_buffer to Buffer raised no HW101 on any \
       benchmark: the race lint does not re-derive the promotion";
  (* the promotion matters on most of the suite; pin a known case *)
  Alcotest.(check bool) "gemm relies on promotion" true
    (List.exists (fun (b : Suite.bench) -> b.Suite.name = "gemm") fired)

(* ------------- corpus programs through the parser path ------------- *)

let corpus_dir () =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "average.ppl"))
    [ "../corpus"; "corpus"; "../../corpus" ]

let corpus_specs =
  [ ("average.ppl", [ ("n", 1024) ]);
    ("saxpy.ppl", [ ("n", 1024) ]);
    ("possum.ppl", [ ("n", 4096) ]);
    ("rowdot.ppl", [ ("m", 1024); ("n", 1024) ]) ]

let test_corpus_clean () =
  match corpus_dir () with
  | None -> Alcotest.fail "corpus directory not found (dune deps missing?)"
  | Some dir ->
      List.iter
        (fun (file, tile_spec) ->
          let path = Filename.concat dir file in
          let ic = open_in path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let prog = Parser.program_of_string text in
          ignore (Validate.check_program prog);
          let tiles =
            List.filter_map
              (fun (base, v) ->
                Option.map
                  (fun s -> (s, v))
                  (List.find_opt
                     (fun s -> Sym.base s = base)
                     prog.Ir.size_params))
              tile_spec
          in
          let r = Tiling.run ~tiles prog in
          let d = Lower.program Lower.default_opts r.Tiling.tiled in
          match Diagnostic.errors (Hw_lint.check_all d) with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s: %s" file
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Diagnostic.pp) errs)))
        corpus_specs

let () =
  Alcotest.run "hw_lint"
    [ ( "races",
        [ Alcotest.test_case "buffer coupling stages" `Quick test_race_buffer;
          Alcotest.test_case "same-stage write/read ok" `Quick
            test_race_needs_distinct_stages;
          Alcotest.test_case "sequential loop exempt" `Quick
            test_race_sequential_loop_exempt;
          Alcotest.test_case "scalar register warns" `Quick test_race_scalar_reg;
          Alcotest.test_case "fifo coupling exempt" `Quick
            test_fifo_coupling_exempt;
          Alcotest.test_case "over-promotion warns" `Quick test_overpromotion ] );
      ( "banking",
        [ Alcotest.test_case "bank conflict" `Quick test_bank_conflict;
          Alcotest.test_case "register broadcast exempt" `Quick
            test_reg_broadcast_exempt;
          Alcotest.test_case "port counts" `Quick test_port_counts;
          Alcotest.test_case "reference rule" `Quick test_reference_rule ] );
      ( "fifo",
        [ Alcotest.test_case "constant rate mismatch" `Quick
            test_fifo_rate_mismatch;
          Alcotest.test_case "symbolic rates" `Quick test_fifo_rate_symbolic;
          Alcotest.test_case "deadlock" `Quick test_fifo_deadlock;
          Alcotest.test_case "burst slack" `Quick test_fifo_burst_slack ] );
      ( "capacity",
        [ Alcotest.test_case "tile load overflow" `Quick test_capacity_overflow;
          Alcotest.test_case "tile store overflow" `Quick test_capacity_store ] );
      ( "perf",
        [ Alcotest.test_case "dead controller" `Quick test_dead_controller;
          Alcotest.test_case "adjacent dram stages" `Quick
            test_adjacent_dram_stages ] );
      ( "generated",
        [ Alcotest.test_case "suite clean at error severity" `Quick
            test_suite_clean;
          Alcotest.test_case "deleting promotion fires race lint" `Quick
            test_demoted_promotion_races;
          Alcotest.test_case "corpus clean via parser path" `Quick
            test_corpus_clean ] ) ]
