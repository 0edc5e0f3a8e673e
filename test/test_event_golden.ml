(* Golden schedules of the event engine.  For every suite bench under every
   configuration, at the bench's simulation sizes, one digest covers what
   the engine reports and what the timeline exports: cycles, DRAM-busy
   cycles, per-array traffic (all floats in exact [%h] form), event and
   fallback counts, every recorded span, the DRAM busy calendar and the
   trace JSON text.  Any drift in a schedule, its traffic or its trace
   bytes fails here.  A deliberate model change regenerates the table
   from the failure message. *)

let configs = [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

let key (b : Suite.bench) cfg =
  b.Suite.name ^ " " ^ Experiments.config_name cfg

let digest_of (b : Suite.bench) cfg =
  let d = Experiments.design_of cfg b in
  Trace.clear ();
  Trace.enable ();
  let r = Event_sim.run ~record:true d ~sizes:b.Suite.sim_sizes in
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
        tl.Event_sim.tl_spans;
      List.iter (fun (s, e) -> pr "D %h %h\n" s e) tl.Event_sim.tl_dram_busy);
  pr "%s" json;
  Digest.to_hex (Digest.string (Buffer.contents buf))

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
  let actual =
    List.concat_map
      (fun b -> List.map (fun cfg -> (key b cfg, digest_of b cfg)) configs)
      (Suite.extended ())
  in
  if actual <> golden then
    Alcotest.failf "event-engine digests drifted; the current table is\n%s"
      (String.concat "\n"
         (List.map (fun (k, h) -> Printf.sprintf "    (%S, %S);" k h) actual))

let () =
  Alcotest.run "event_golden"
    [ ( "golden",
        [ Alcotest.test_case "schedules and traces byte-identical" `Quick
            test_golden ] ) ]
