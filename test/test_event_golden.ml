(* Golden schedules of the event engine.  For every suite bench under every
   configuration, at the bench's simulation sizes, one digest covers what
   the engine reports and what the timeline exports: cycles, DRAM-busy
   cycles, per-array traffic (all floats in exact [%h] form), event and
   fallback counts, every recorded span, the DRAM busy calendar and the
   trace JSON text.  Any drift in a schedule, its traffic or its trace
   bytes fails here.  A deliberate model change regenerates the table
   from the failure message.  The same designs run unrecorded must report
   exactly what the recorded runs report, and a design that mixes an
   analytic fallback with event-simulated leaves on one array pins its
   traffic sum bit for bit. *)

let configs = [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let key (b : Suite.bench) cfg =
  b.Suite.name ^ " " ^ Experiments.config_name cfg

let digest_of d ~sizes =
  Trace.clear ();
  Trace.enable ();
  let r = Event_sim.run ~record:true d ~sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  Trace.disable ();
  let json = Trace.to_json () in
  Trace.clear ();
  let buf = Buffer.create 65536 in
  let pr fmt = Printf.bprintf buf fmt in
  let rep = r.Event_sim.report in
  pr "cycles %h dram %h events %d fallbacks %d\n" rep.Simulate.cycles
    rep.Simulate.dram_cycles r.Event_sim.events r.Event_sim.fallbacks;
  List.iter (fun (a, w) -> pr "R %s %h\n" a w) rep.Simulate.reads;
  List.iter (fun (a, w) -> pr "W %s %h\n" a w) rep.Simulate.writes;
  (match r.Event_sim.timeline with
  | None -> pr "no timeline\n"
  | Some tl ->
      pr "makespan %h\n" tl.Event_sim.tl_makespan;
      List.iter
        (fun (sp : Event_sim.span) ->
          pr "S %s %s %h %h" sp.Event_sim.sp_track sp.Event_sim.sp_name
            sp.Event_sim.sp_start sp.Event_sim.sp_finish;
          List.iter (fun (k, v) -> pr " %s=%h" k v) sp.Event_sim.sp_args;
          pr "\n")
        (Event_sim.spans tl);
      List.iter (fun (s, e) -> pr "D %h %h\n" s e) (Event_sim.tl_dram_busy tl));
  pr "%s" json;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), r)

(* every bench x config: its key, design, digest and recorded result *)
let runs =
  lazy
    (List.concat_map
       (fun b ->
         List.map
           (fun cfg ->
             let d = Experiments.design_of cfg b in
             let h, r = digest_of d ~sizes:b.Suite.sim_sizes in
             (key b cfg, d, b.Suite.sim_sizes, h, r))
           configs)
       (Suite.extended ()))

(* a report in exact [%h] form *)
let report_text (rep : Simulate.report) =
  let traffic tag ts =
    String.concat "" (List.map (fun (a, w) -> Printf.sprintf " %s %s %h" tag a w) ts)
  in
  Printf.sprintf "cycles %h dram %h%s%s" rep.Simulate.cycles rep.Simulate.dram_cycles
    (traffic "R" rep.Simulate.reads) (traffic "W" rep.Simulate.writes)

(* recorded with the list-based DRAM calendar, before it became an ordered
   map *)
let golden =
  [ ("outerprod baseline", "26bcf5b23ec24a4b910adaa43fe44e29");
    ("outerprod +tiling", "66907b81c827050c0488df915d6fdcd7");
    ("outerprod +tiling+metapipelining", "e404db727e065b50fb09e19c462c9545");
    ("sumrows baseline", "b3e1bd2075fc4cac6cd1a7fc2f1c912a");
    ("sumrows +tiling", "59a679a603f07dedb2475c85e5b1acd9");
    ("sumrows +tiling+metapipelining", "ad4ea913d8ea882814dedce5d43670f0");
    ("gemm baseline", "c1f966af19143ebe32e36bb1adc0295b");
    ("gemm +tiling", "c096e05fbc7677068e7aa2be0aea1a7d");
    ("gemm +tiling+metapipelining", "ddc0807e0c84567f6753333ad5e5c3f2");
    ("tpchq6 baseline", "debff98509b93320f001819e09bc826c");
    ("tpchq6 +tiling", "02cb330f227babed5a2ced6fb8949ac1");
    ("tpchq6 +tiling+metapipelining", "6381236bda13d205213a96acf803cf46");
    ("gda baseline", "9056758d09c42fd434cf93bced76baca");
    ("gda +tiling", "f4afc8dc81241bc25ab0de0ed0df7ced");
    ("gda +tiling+metapipelining", "f4c694e953b22d8e0e1bef5eb9bdb196");
    ("kmeans baseline", "8546793433305127c88788fd96d54926");
    ("kmeans +tiling", "f12bbacda5e5e0b4f45d9e44434aca7e");
    ("kmeans +tiling+metapipelining", "befce199b2b9b16feae73f64a6bd4ad6");
    ("histogram baseline", "b7cd5f057b50c94cbf48f56b791601dd");
    ("histogram +tiling", "5b5fa4a53abb7a37d3721846ca8831fe");
    ("histogram +tiling+metapipelining", "8ddf175cdae9090f51bcc8b0cdd45246");
    ("conv2d baseline", "4032f01bf2783a199a996a7b4a4d009f");
    ("conv2d +tiling", "d0408083cd3ce50e1b7132111cceadef");
    ("conv2d +tiling+metapipelining", "e0db8300e6438a1b432208e013eeaffe");
    ("logreg baseline", "882d0bfa1e0150517fd7aec3619a4d0d");
    ("logreg +tiling", "9bc5937b2d1295fec7d4933c888495f2");
    ("logreg +tiling+metapipelining", "860edd578b2ea7bb8b40784407d44ec6");
    ("blackscholes baseline", "2f6cc85dc61bfec2f0b88715549d271d");
    ("blackscholes +tiling", "708d061beec5187dd2c7e05fbc897abd");
    ("blackscholes +tiling+metapipelining", "fd0a2098a3c2dc9428004d706fc232f2");
    ("matvec baseline", "85c6c488ac5fa1a797e7b83547738b1a");
    ("matvec +tiling", "c33aabc0e5f318e0154c94c820b8161b");
    ("matvec +tiling+metapipelining", "4c8a55add1f4a688fe872b31da90102f");
    ("spmv baseline", "7fad11129f23e7784331936004c48956");
    ("spmv +tiling", "d04ff3ac954c7e5fe776f2993cf3bb46");
    ("spmv +tiling+metapipelining", "aeb6ca415d83ee5db898ce78a7765105") ]

let test_golden () =
  let actual = List.map (fun (k, _, _, h, _) -> (k, h)) (Lazy.force runs) in
  if actual <> golden then
    Alcotest.failf "event-engine digests drifted; the current table is\n%s"
      (String.concat "\n"
         (List.map (fun (k, h) -> Printf.sprintf "    (%S, %S);" k h) actual))

(* recording only adds the timeline: the unrecorded run schedules the
   same instances and reports the same floats *)
let test_unrecorded () =
  List.iter
    (fun (k, d, sizes, _, (r : Event_sim.result)) ->
      let u = Event_sim.run ~record:false d ~sizes in
      Alcotest.(check string) (k ^ " report") (report_text r.Event_sim.report)
        (report_text u.Event_sim.report);
      Alcotest.(check (list int)) (k ^ " events, fallbacks, coalesced")
        [ r.Event_sim.events; r.Event_sim.fallbacks; r.Event_sim.coalesced ]
        [ u.Event_sim.events; u.Event_sim.fallbacks; u.Event_sim.coalesced ];
      Alcotest.(check bool) (k ^ " no timeline") true (u.Event_sim.timeline = None))
    (Lazy.force runs)

(* Array [x] is read by an event-simulated tile load, then by a loop of
   10^9 iterations that the engine hands to the analytic one, then by a
   direct pipe read; [y] is written before, inside and after the loop.
   Each array's three terms add in that visit order (another order rounds
   differently).  The pinned text was taken from the engine before it
   resolved designs once per run. *)
let test_fallback_traffic () =
  let load words name =
    Hw.Tile_load
      { name; mem = "buf"; array = "x"; words = Hw.Tconst words; path = [];
        reuse = 1; prov = Prov.none }
  and store words name =
    Hw.Tile_store
      { name; mem = None; array = "y"; words = Hw.Tconst words; path = [];
        prov = Prov.none }
  in
  let pipe =
    Hw.Pipe
      { name = "p"; trips = [ Hw.Tconst 3.0 ]; template = Hw.Vector; par = 1;
        depth = 10; ii = 1;
        ops =
          { Hw.flops = 1; int_ops = 0; cmp_ops = 0; mem_reads = 1; mem_writes = 1 };
        body = None;
        dram =
          [ { Hw.da_array = "x"; da_path = [ (Hw.Tconst 0.3, true) ];
              da_contiguous = true; da_affine = true; da_row_words = Hw.Tconst 0.3;
              da_kind = `Read } ];
        uses = []; defines = []; prov = Prov.none }
  in
  let huge =
    Hw.Loop
      { name = "huge"; trips = [ Hw.Tconst 1e9 ]; meta = false;
        stages = [ load 0.1 "ld_in"; store 0.1 "st_in" ]; prov = Prov.none }
  in
  let top =
    Hw.Seq
      { name = "top";
        children = [ load 0.1 "ld"; store 0.1 "st0"; huge; pipe; store 0.3 "st" ];
        prov = Prov.none }
  in
  let d = { Hw.design_name = "mixed"; mems = []; top; par_factor = 1 } in
  List.iter
    (fun record ->
      let r = Event_sim.run ~record d ~sizes:[] in
      Alcotest.(check int) "one fallback" 1 r.Event_sim.fallbacks;
      Alcotest.(check string) "cycles, DRAM time and traffic sums in visit order"
        ("cycles 0x1.74935a4bc88p+37 dram 0x1.74935a4b86e66p+37"
       ^ " R x 0x1.7d78401999999p+26 W y 0x1.7d78401999999p+26")
        (report_text r.Event_sim.report))
    [ false; true ]

let () =
  Alcotest.run "event_golden"
    [ ( "golden",
        [ Alcotest.test_case "schedules and traces byte-identical" `Quick
            test_golden;
          Alcotest.test_case "unrecorded runs report the same" `Quick
            test_unrecorded;
          Alcotest.test_case "fallback and event traffic on one array" `Quick
            test_fallback_traffic ] ) ]
