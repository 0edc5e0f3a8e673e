(* Golden report strings.  Every text a report printer emits is pinned by
   a digest: the profile's JSON, text and folded backends for every suite
   bench under every configuration at sizes x0.5, x1 and x2; the
   diagnostics JSON of the source linter over every corpus program and of
   the design linter over every suite design; the MaxJ, listing and
   Graphviz texts of every suite design; and the metrics JSON of a fixed
   snapshot.  Any change to a printer's bytes, including number
   formatting and string escaping, fails here.  A deliberate format
   change regenerates the table from the failure message. *)

let configs = [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]
let scales = [ 0.5; 1.0; 2.0 ]

let scale_sizes k sizes =
  List.map
    (fun (s, v) -> (s, Int.max 1 (int_of_float (float_of_int v *. k))))
    sizes

let hex s = Digest.to_hex (Digest.string s)

let profile_digests () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          let buf = Buffer.create 65536 in
          List.iter
            (fun k ->
              let p =
                Profile.of_design d ~sizes:(scale_sizes k b.Suite.sim_sizes)
              in
              Buffer.add_string buf (Profile.to_json p);
              Buffer.add_string buf (Format.asprintf "%a" Profile.pp_text p);
              Buffer.add_string buf (Profile.to_folded p))
            scales;
          ( "profile " ^ b.Suite.name ^ " " ^ Experiments.config_name cfg,
            hex (Buffer.contents buf) ))
        configs)
    (Suite.extended ())

(* every corpus program, as listed in the test deps *)
let corpus =
  [ "average.ppl"; "bad_nonaffine.ppl"; "bad_race.ppl"; "possum.ppl";
    "rowdot.ppl"; "saxpy.ppl" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ppl_lint_digests () =
  List.map
    (fun f ->
      let prog = Parser.program_of_string (read_file ("../corpus/" ^ f)) in
      ("ppl_lint " ^ f, hex (Diagnostic.list_to_json (Ppl_lint.check_all prog))))
    corpus

let hw_lint_digests () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          ( "hw_lint " ^ b.Suite.name ^ " " ^ Experiments.config_name cfg,
            hex (Diagnostic.list_to_json (Hw_lint.check d)) ))
        configs)
    (Suite.extended ())

(* the design texts: the MaxJ kernel, the design listing and the Graphviz
   diagram print each controller's reads and writes in the order the
   lowering walked the IR, so a changed walk order shows here *)
let design_digests () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          ( "design " ^ b.Suite.name ^ " " ^ Experiments.config_name cfg,
            hex (Maxj.emit d ^ Hw_pp.design_to_string d ^ Dot.emit d) ))
        configs)
    (Suite.extended ())

(* counters, integral and fractional gauges (including ones %.6g writes
   in exponent form) and timers, integral seconds among them *)
let metrics_snapshot =
  Metrics.
    [ ("a.counter", Counter 0);
      ("b.counter", Counter 123456789);
      ("c.counter", Counter (-7));
      ("g.integral", Gauge 42.0);
      ("g.zero", Gauge 0.0);
      ("g.negative", Gauge (-3.0));
      ("g.fraction", Gauge 0.1);
      ("g.third", Gauge (1.0 /. 3.0));
      ("g.large", Gauge 1e20);
      ("g.small", Gauge 1.5e-7);
      ("t.zero", Timer { seconds = 0.0; count = 0 });
      ("t.one", Timer { seconds = 1.0; count = 3 });
      ("t.fraction", Timer { seconds = 0.0123456789; count = 12 });
      ("t.long", Timer { seconds = 12345.678901234; count = 1 }) ]

let metrics_digests () =
  [ ("metrics values_to_json", hex (Metrics.values_to_json metrics_snapshot)) ]

(* recorded with the sprintf-based printers and their separate escapers;
   the design rows with the map_children-based IR walk *)
let golden =
  [ ("profile outerprod baseline", "42d733fbc109f94c2182968e371bbada");
    ("profile outerprod +tiling", "8d9f3b393cffb0b77f4b08b698787dae");
    ("profile outerprod +tiling+metapipelining", "6a7052a558ea92b8e5694fa12766f7b6");
    ("profile sumrows baseline", "eef26fa2d91e03baf5ae21395fddfba5");
    ("profile sumrows +tiling", "29a4a2cf6e6f7e9e5342b0c1754f7146");
    ("profile sumrows +tiling+metapipelining", "6f16dd61f18f30872865b6eacd8a7246");
    ("profile gemm baseline", "dab4bdea738e3ef3f5153349e115f256");
    ("profile gemm +tiling", "5fc18b3060c4095c3713c369f66fd5ca");
    ("profile gemm +tiling+metapipelining", "6959c4fccb2b08c248f188019e07e900");
    ("profile tpchq6 baseline", "11f965705675b76176562c1da1ae424d");
    ("profile tpchq6 +tiling", "c2ba34fac5da26c97d369f4754ce5315");
    ("profile tpchq6 +tiling+metapipelining", "7159eae793c4e41ee5a745596f2f3a3c");
    ("profile gda baseline", "c90e1c0384533c1a9c66d504be5c9192");
    ("profile gda +tiling", "3e1a937835a9a34eb74f1128de0ab505");
    ("profile gda +tiling+metapipelining", "7287cda593ea3577af08831f2b6d85e1");
    ("profile kmeans baseline", "c33a9d5cf940386c317bee5ff2e9a258");
    ("profile kmeans +tiling", "f06870bd14c6b98ddaead608578cdcd0");
    ("profile kmeans +tiling+metapipelining", "68411071d191844bc6fac6a3934344f3");
    ("profile histogram baseline", "65ce63a5d84865f9b14c8ad0820c1898");
    ("profile histogram +tiling", "f4c0a71c4d4e0cc84f87da525825fb46");
    ("profile histogram +tiling+metapipelining", "de3d500f2977fd87a1ddb4609fc37aeb");
    ("profile conv2d baseline", "e516c95f0882946ed1ed26cd22368fbe");
    ("profile conv2d +tiling", "65657beb57bae8d888f7ea80ab211732");
    ("profile conv2d +tiling+metapipelining", "f1c0e5752ff881a06403c37b8a540056");
    ("profile logreg baseline", "abcb9c0e2f293538426633fac5f0c9b5");
    ("profile logreg +tiling", "3f6e49219172405cd8c93e9ab3b1212a");
    ("profile logreg +tiling+metapipelining", "64144399703fb09119fc5390b1a01def");
    ("profile blackscholes baseline", "075638be02acd4c431930a46dc809258");
    ("profile blackscholes +tiling", "c37b9d099db7afc094d3cb04608d708f");
    ("profile blackscholes +tiling+metapipelining", "71c47ef8caad068b91fa68237518bc8f");
    ("profile matvec baseline", "34fe4381187f960ba4caac5d59b65491");
    ("profile matvec +tiling", "691d47dca22d30a36c8d74650bbfe23d");
    ("profile matvec +tiling+metapipelining", "5ca4747818fb60a5bcc94defddfbe1e8");
    ("profile spmv baseline", "8471f045eb25c8de1debd172e3a11f6d");
    ("profile spmv +tiling", "71890c55c8c75ea1c43f9b2c9fcb6973");
    ("profile spmv +tiling+metapipelining", "281c5816137da2c91f502574e295bab2");
    ("ppl_lint average.ppl", "3125d1c01e0f87899198579595320447");
    ("ppl_lint bad_nonaffine.ppl", "ebad2bfdfec58e9deab84d0eddbbd370");
    ("ppl_lint bad_race.ppl", "9ecf7f7bef0b72509c2c8a25c88217d3");
    ("ppl_lint possum.ppl", "a63f6a3653c4f88c574590728dd236db");
    ("ppl_lint rowdot.ppl", "a0228eeb7b88a81af2e695d6fa91b9ed");
    ("ppl_lint saxpy.ppl", "5b5a1bf1af70d0f4ae670a021b639731");
    ("hw_lint outerprod baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint outerprod +tiling", "109445f8601ae63c9a07ddf5f7ada636");
    ("hw_lint outerprod +tiling+metapipelining", "2e34185d24c36c8b0450176d93a3b17f");
    ("hw_lint sumrows baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint sumrows +tiling", "f428926a585cb4b38429dce6711e439b");
    ("hw_lint sumrows +tiling+metapipelining", "03b31bc583f6c00ef79fee25ca542544");
    ("hw_lint gemm baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint gemm +tiling", "83a9975d81ae7b95c9284996a7c60c6d");
    ("hw_lint gemm +tiling+metapipelining", "26bf9f486b67c06944f27d07acff7c60");
    ("hw_lint tpchq6 baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint tpchq6 +tiling", "d9824357221c24fd6db456f12debef1d");
    ("hw_lint tpchq6 +tiling+metapipelining", "6dba38c1d089fe29c732e1930d2c8fe6");
    ("hw_lint gda baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint gda +tiling", "3e36b0fc4afc5165ec958bb8b1dbf98f");
    ("hw_lint gda +tiling+metapipelining", "ab03043f5b6ab888420c40bb7f27cf01");
    ("hw_lint kmeans baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint kmeans +tiling", "82f58d2a507b7a501eb2b17e436460a8");
    ("hw_lint kmeans +tiling+metapipelining", "40687185421ae6308d43c0950d6cdafa");
    ("hw_lint histogram baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint histogram +tiling", "02863c96aafac28f6aead811642ffdce");
    ("hw_lint histogram +tiling+metapipelining", "d751713988987e9331980363e24189ce");
    ("hw_lint conv2d baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint conv2d +tiling", "97cca699b5e22dcf961321cdafd50375");
    ("hw_lint conv2d +tiling+metapipelining", "d751713988987e9331980363e24189ce");
    ("hw_lint logreg baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint logreg +tiling", "f48c0cd74d0decb6e4100a160c001550");
    ("hw_lint logreg +tiling+metapipelining", "37d878516d8c43ac3fb35b9fbe363ca5");
    ("hw_lint blackscholes baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint blackscholes +tiling", "f02d5661c67b61c5e829cedf39a07eb4");
    ("hw_lint blackscholes +tiling+metapipelining", "8b47c2d81af411d591c033ed9e040c3a");
    ("hw_lint matvec baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint matvec +tiling", "a51cc1b50900c02ff1e1d3a0f7163d04");
    ("hw_lint matvec +tiling+metapipelining", "729542ba5ac58719e62e893f4b76fafe");
    ("hw_lint spmv baseline", "d751713988987e9331980363e24189ce");
    ("hw_lint spmv +tiling", "737c94e4736b7fcbdbd56a96a954ed79");
    ("hw_lint spmv +tiling+metapipelining", "6049c522a0dee33382472fe2a9a6f5c9");
    ("design outerprod baseline", "c6d351a5701880b91eceef05e30212cf");
    ("design outerprod +tiling", "f018b4a8547f7760d7fe193d9fcd9249");
    ("design outerprod +tiling+metapipelining", "9b60707dfa7ea27a140135a8e423f34d");
    ("design sumrows baseline", "908ff3ac68e46fc2601209a15145561e");
    ("design sumrows +tiling", "2e1953a81356a403c72f650ddc9c29aa");
    ("design sumrows +tiling+metapipelining", "8faed36754ea6f4003fa7b77fe9c8b7d");
    ("design gemm baseline", "4784d66014e48005cd153358cfdf7e8a");
    ("design gemm +tiling", "322d3015c3c193289f302d0de042de5f");
    ("design gemm +tiling+metapipelining", "48f0e41364bbfcb5ed7de2ebe4dfec1c");
    ("design tpchq6 baseline", "dbbe4c78253662666fb05a2854b27e6e");
    ("design tpchq6 +tiling", "59b42d680202949b4d679f7f34e1de29");
    ("design tpchq6 +tiling+metapipelining", "5e5f27231458ba3a3d622030f3995a91");
    ("design gda baseline", "17a88f94ebf0e0ac091f6b44f4bca482");
    ("design gda +tiling", "1fd655d32014d2e803130d526422c0ad");
    ("design gda +tiling+metapipelining", "80e97ae43fbc8862de20f9c58f73042c");
    ("design kmeans baseline", "9b4afd92e7f2a41269600519ab82da45");
    ("design kmeans +tiling", "5685969b91186e3dba81892e6d29f092");
    ("design kmeans +tiling+metapipelining", "2b35405a2393fa6253ea8992ab8044f8");
    ("design histogram baseline", "a8a24455a0aa0cf0d0db038d31c504fa");
    ("design histogram +tiling", "0ab3f5dadfeeb3e475769aedca9da4fc");
    ("design histogram +tiling+metapipelining", "8b3dc6c837c2680eb34a0bcdfae626d1");
    ("design conv2d baseline", "a66efdc460a34b6e8f1129176822814b");
    ("design conv2d +tiling", "ac3c6d19c8d043b34a7c4a658cc5849a");
    ("design conv2d +tiling+metapipelining", "c497a9e568223ae981af2c682e616595");
    ("design logreg baseline", "85615ab69c11a1c1f23c220936dfbfc8");
    ("design logreg +tiling", "c889654721975f706b7253693bd322ac");
    ("design logreg +tiling+metapipelining", "6b4fcd9216b788150eca2627c16fa7ec");
    ("design blackscholes baseline", "92ef398ab650a4e7bd8b942114f0f505");
    ("design blackscholes +tiling", "31a68f86bbae2ff6c44f4fdf1eb20705");
    ("design blackscholes +tiling+metapipelining", "e206e4632b421390338423face14b218");
    ("design matvec baseline", "abedb535739f8c189c1190ba3b6824ac");
    ("design matvec +tiling", "a7ba2f7b7bc767d26c6a4d5a934dff6c");
    ("design matvec +tiling+metapipelining", "039ffbf3c43e0064f6dba11c54698761");
    ("design spmv baseline", "1326cbe16d1e8303973abed1f6731f7a");
    ("design spmv +tiling", "d00d8f0405c96030bd1822aab51355d0");
    ("design spmv +tiling+metapipelining", "5fa9c2982a2c20141d87e876a300f5ea");
    ("metrics values_to_json", "0235ba2fa5fb8ab409881a02e3feb178") ]

let test_golden () =
  (* the texts print fresh symbol numbers, so the reports are built in a
     fixed order: the design texts after every other report *)
  let reports =
    profile_digests () @ ppl_lint_digests () @ hw_lint_digests ()
  in
  let designs = design_digests () in
  let actual = reports @ designs @ metrics_digests () in
  if actual <> golden then
    Alcotest.failf "report digests drifted; the current table is\n%s"
      (String.concat "\n"
         (List.map (fun (k, h) -> Printf.sprintf "    (%S, %S);" k h) actual))

(* the CLI mixes Format and Printf on stdout, so the text printer must
   end with a flush and leave nothing buffered *)
let test_pp_text_flushes () =
  let b = List.hd (Suite.extended ()) in
  let p =
    Profile.of_design
      (Experiments.design_of Experiments.Tiled_meta b)
      ~sizes:b.Suite.sim_sizes
  in
  let buf = Buffer.create 4096 and flushed = ref false in
  let fmt =
    Format.make_formatter (Buffer.add_substring buf) (fun () ->
        flushed := true)
  in
  Profile.pp_text fmt p;
  Alcotest.(check bool) "flushed" true !flushed;
  Alcotest.(check string) "whole report written"
    (Format.asprintf "%a" Profile.pp_text p)
    (Buffer.contents buf)

let () =
  Alcotest.run "report_golden"
    [ ( "golden",
        [ Alcotest.test_case "report strings byte-identical" `Quick
            test_golden;
          Alcotest.test_case "pp_text flushes" `Quick test_pp_text_flushes ]
      ) ]
