(* Golden report strings.  Every text a report printer emits is pinned by
   a digest: the profile's JSON, text and folded backends for every suite
   bench under every configuration at sizes x0.5, x1 and x2; the
   diagnostics JSON of the source linter over every corpus program and of
   the design linter over every suite design; the MaxJ, listing and
   Graphviz texts of every suite design, also at parallelism factors 1,
   4 and 64; every point of each bench's design-space sweep at those
   three factors; the metrics JSON of a fixed snapshot; and the
   simulator's breakdown and bottleneck tables, text and floats, at the
   profile's sizes.  Any change to a printer's bytes, including number
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

(* the same texts away from the default parallelism factor, which sets
   every pipe's lanes and every banked memory's bank count *)
let pars = [ 1; 4; 64 ]

let design_at cfg par (b : Suite.bench) =
  let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
  let o = { Lower.default_opts with Lower.par } in
  match cfg with
  | Experiments.Baseline ->
      Lower.program { Lower.baseline_opts with Lower.par } r.Tiling.fused
  | Experiments.Tiled -> Lower.program { o with Lower.meta = false } r.Tiling.tiled
  | Experiments.Tiled_meta -> Lower.program o r.Tiling.tiled

let par_design_digests () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.concat_map
        (fun cfg ->
          List.map
            (fun par ->
              let d = design_at cfg par b in
              ( Printf.sprintf "design %s %s par %d" b.Suite.name
                  (Experiments.config_name cfg) par,
                hex (Maxj.emit d ^ Hw_pp.design_to_string d ^ Dot.emit d) ))
            pars)
        configs)
    (Suite.extended ())

(* every swept point, floats in hex so a last-bit change shows *)
let dse_digests () =
  List.map
    (fun (b : Suite.bench) ->
      let r = Dse.explore_bench ~domains:1 ~pars:[ 4; 16; 64 ] b in
      let buf = Buffer.create 4096 in
      List.iter
        (fun (p : Dse.point) ->
          let a = p.Dse.area in
          Printf.bprintf buf "%s|%d|%h|%h|%h|%h|%h|%b\n"
            (String.concat ","
               (List.map
                  (fun (s, t) -> Printf.sprintf "%s=%d" (Sym.base s) t)
                  p.Dse.tiles))
            p.Dse.par p.Dse.cycles a.Area_model.logic a.Area_model.ff
            a.Area_model.bram a.Area_model.dsp p.Dse.feasible)
        r.Dse.points;
      ("dse " ^ b.Suite.name, hex (Buffer.contents buf)))
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

(* the analytic simulator's own reports: the breakdown and bottleneck
   texts, and every float behind them and behind [run] in hex, so a
   last-bit change in the cost rules shows *)
let sim_report_digests () =
  List.concat_map
    (fun (b : Suite.bench) ->
      List.map
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          let buf = Buffer.create 16384 in
          List.iter
            (fun k ->
              let sizes = scale_sizes k b.Suite.sim_sizes in
              let r = Simulate.run d ~sizes in
              let rows = Simulate.breakdown d ~sizes in
              let bns = Simulate.bottlenecks d ~sizes in
              Printf.bprintf buf "run|%h|%h\n" r.Simulate.cycles
                r.Simulate.dram_cycles;
              List.iter
                (fun (a, w) -> Printf.bprintf buf "%s|%h\n" a w)
                (r.Simulate.reads @ r.Simulate.writes);
              List.iter
                (fun (r : Simulate.breakdown_row) ->
                  Printf.bprintf buf "br|%h|%h\n" r.Simulate.br_cycles
                    r.Simulate.br_invocations)
                rows;
              List.iter
                (fun (r : Simulate.bottleneck_row) ->
                  Printf.bprintf buf "bn|%h|%h|%h|%h\n" r.Simulate.bn_iters
                    r.Simulate.bn_stage_cycles r.Simulate.bn_dram_sum
                    r.Simulate.bn_frac)
                bns;
              Buffer.add_string buf
                (Format.asprintf "%a%a" Simulate.pp_breakdown rows
                   Simulate.pp_bottlenecks bns))
            scales;
          ( "sim " ^ b.Suite.name ^ " " ^ Experiments.config_name cfg,
            hex (Buffer.contents buf) ))
        configs)
    (Suite.extended ())

(* recorded with the sprintf-based printers and their separate escapers;
   the design rows with the map_children-based IR walk; the par and dse
   rows with every design lowered in full at each parallelism factor *)
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
    ("design outerprod baseline par 1", "f5f0906def0fa057b977a65d7eeb7401");
    ("design outerprod baseline par 4", "75a04ded8ad556b4145cd7d3ad94b10e");
    ("design outerprod baseline par 64", "663db7de99cb2f6f43d0b4399dd25078");
    ("design outerprod +tiling par 1", "07cdfff0a9c5d0da71af59d12047c24a");
    ("design outerprod +tiling par 4", "aa5acbb834a8bddbb6e1afc034eae9f7");
    ("design outerprod +tiling par 64", "7abbb1802bf7a64cdf8933ca7ea22626");
    ("design outerprod +tiling+metapipelining par 1", "2580d163bf3259a8de8532ee5b97d021");
    ("design outerprod +tiling+metapipelining par 4", "58601c854da03044395923146acad23d");
    ("design outerprod +tiling+metapipelining par 64", "c2cd183dd5a0a9cc31e81ce5da274bd8");
    ("design sumrows baseline par 1", "ec4f9f9a4a96e3dc224ddbd5893d143f");
    ("design sumrows baseline par 4", "2541a576c5494cf07eef65bbf34e49d7");
    ("design sumrows baseline par 64", "403ee592a897ae8796154a1f69495826");
    ("design sumrows +tiling par 1", "835239d05c62f135aa11360526abbe9f");
    ("design sumrows +tiling par 4", "a0ff07eb6ebd4b4b472fdc10471208ab");
    ("design sumrows +tiling par 64", "384453ed4585d1f9f87c03cf7d713591");
    ("design sumrows +tiling+metapipelining par 1", "74cfe023178208a71252c53197a5c3c2");
    ("design sumrows +tiling+metapipelining par 4", "2a7fb3170b28e39452e1b3c319f90ea4");
    ("design sumrows +tiling+metapipelining par 64", "4dcf43a498e39599ee66c7e1ad800f9e");
    ("design gemm baseline par 1", "f6a000b3b208e4fcfed20612aee610ae");
    ("design gemm baseline par 4", "e591542df5ac6970786147e8ab390d7c");
    ("design gemm baseline par 64", "b952f66c1f402692770d2ac53912843a");
    ("design gemm +tiling par 1", "fdbef1f08e9a5f77a366d7b77580e24e");
    ("design gemm +tiling par 4", "88b499a03125c8f9b7c27e83ef0f7ab5");
    ("design gemm +tiling par 64", "32dcde2f697cf91c5ff765320fd9f2ec");
    ("design gemm +tiling+metapipelining par 1", "d6baf1905c4b902950896c7c599dce3f");
    ("design gemm +tiling+metapipelining par 4", "534b7de756f3306a3542becbac122c34");
    ("design gemm +tiling+metapipelining par 64", "f8c3e71cd8caed025b79dc1f437dfb6c");
    ("design tpchq6 baseline par 1", "62b30cf288b9871211bde4b05a48774d");
    ("design tpchq6 baseline par 4", "18e70e1cb6ecc4edb0d65ea47d4096d6");
    ("design tpchq6 baseline par 64", "1d759e5f2ddcad4664a4ae78c56a7295");
    ("design tpchq6 +tiling par 1", "991102f460335148b6bcd1b88706c2ed");
    ("design tpchq6 +tiling par 4", "b4079a82ff290a888bd60d7f1a22934b");
    ("design tpchq6 +tiling par 64", "c5a176f72e006c83b80415e3f86f0f4c");
    ("design tpchq6 +tiling+metapipelining par 1", "69ec6cc16c1ada14d390f1cf0810fc80");
    ("design tpchq6 +tiling+metapipelining par 4", "388573afe2fd333ce3c04dcd1f302f2b");
    ("design tpchq6 +tiling+metapipelining par 64", "1a3b18af4daf6f3fc2b790207c878b41");
    ("design gda baseline par 1", "c93c6c5584bd05daeeda4e6c500640a3");
    ("design gda baseline par 4", "c804b14e9b2f5704c3fd7d9bdd08b3f0");
    ("design gda baseline par 64", "54fa01c0b578c00827cfdaab555bed8d");
    ("design gda +tiling par 1", "567f8014aa40e2c3f631eaf2fa4e06d5");
    ("design gda +tiling par 4", "60f8f16ab3745200ecdf57856a631ebd");
    ("design gda +tiling par 64", "dad60e5cb1ce1a78c3b7f3013f23bd9b");
    ("design gda +tiling+metapipelining par 1", "820c8438405af17b777c8abcb35c7b21");
    ("design gda +tiling+metapipelining par 4", "040b1f66eead6aeb56195c8fd9821bb1");
    ("design gda +tiling+metapipelining par 64", "25c02f169e9fe7d8be2562392d0d2fc8");
    ("design kmeans baseline par 1", "da22aff30c7724d038d1b01ef5d10e2e");
    ("design kmeans baseline par 4", "361e343d74f9b0c18584d6f9d1e4c687");
    ("design kmeans baseline par 64", "0b29200ecb54537f9647e9c443601389");
    ("design kmeans +tiling par 1", "dde0942db7b093825c54e5e70b58aa62");
    ("design kmeans +tiling par 4", "b028a3ca5fa6367041261c910d7165e4");
    ("design kmeans +tiling par 64", "5229f721c42273c6cc3e777e69a3f714");
    ("design kmeans +tiling+metapipelining par 1", "ef7cbbbc00f105e50b41d2e23ae4a3a2");
    ("design kmeans +tiling+metapipelining par 4", "1f80cd62237eeeb491e9a3454fbdac5a");
    ("design kmeans +tiling+metapipelining par 64", "a83434cbd7fe5da62518a9c0e38392b1");
    ("design histogram baseline par 1", "369b1095d85ec52d92cc07936a5c7dba");
    ("design histogram baseline par 4", "89fc7bc101a26f80a8de3a7d53a522ce");
    ("design histogram baseline par 64", "c735582e680c18b5ef9942ee37cb1afc");
    ("design histogram +tiling par 1", "e2b75bf5f2924ad8a4b1192731a8293a");
    ("design histogram +tiling par 4", "63ff9e19c72f16d7726435e64a52dc49");
    ("design histogram +tiling par 64", "a885e8b3d30b4db41beb10e0b16c864d");
    ("design histogram +tiling+metapipelining par 1", "c202a59f349c48e0d295a90388837921");
    ("design histogram +tiling+metapipelining par 4", "a15e8c744d6facbea64ff115fd0c8994");
    ("design histogram +tiling+metapipelining par 64", "9ad55d1dd5d27c0441db224da00b6c84");
    ("design conv2d baseline par 1", "05f1e2550b193eaebd8bad9ec3fd65b6");
    ("design conv2d baseline par 4", "8136077509be5267c21f090aa24d2664");
    ("design conv2d baseline par 64", "d30bef301cca03ed621f68529fc513a1");
    ("design conv2d +tiling par 1", "2e0a1ba5140337959e51767d82df61a6");
    ("design conv2d +tiling par 4", "301a672240ae82e59fbbd5033c6fd00f");
    ("design conv2d +tiling par 64", "26cf7e583fda18ca34f9e3aab307e89a");
    ("design conv2d +tiling+metapipelining par 1", "eedda530b067e3c3d512b660b71cc4cb");
    ("design conv2d +tiling+metapipelining par 4", "56b52de21fa86bd675b1a65377fd2954");
    ("design conv2d +tiling+metapipelining par 64", "c095b16f02b5cd4a8a3e7ffafb5e5c3c");
    ("design logreg baseline par 1", "53829b49b59d330d500280c7901d1162");
    ("design logreg baseline par 4", "e92c988096b2e5f5e31aff3dc5836564");
    ("design logreg baseline par 64", "45230c930f9d6b54995b73c1b89955a1");
    ("design logreg +tiling par 1", "cb341d65212c24fabcd5f8cd68673bdd");
    ("design logreg +tiling par 4", "8876924d86cf7a842934b59ab8d10a78");
    ("design logreg +tiling par 64", "27bd75a1a9594c1a62214ed010f747d1");
    ("design logreg +tiling+metapipelining par 1", "819c222b490bfa723d4939cc3dc95ba5");
    ("design logreg +tiling+metapipelining par 4", "f1b9879487c0d4e962a00ff4159ebe2b");
    ("design logreg +tiling+metapipelining par 64", "0b32904daf3f3b65618466c54185cb8d");
    ("design blackscholes baseline par 1", "98ec239ff72045d348ac7bdbdfe5ed6b");
    ("design blackscholes baseline par 4", "b84c2ee3e82becd359c4d968a6de4ed4");
    ("design blackscholes baseline par 64", "4ef367718dacb59702bf32e79cb63a35");
    ("design blackscholes +tiling par 1", "d64184c142d9c48c26b6686e55ebec6a");
    ("design blackscholes +tiling par 4", "8c5aff0f7114e2116fcab4ee864bf0e1");
    ("design blackscholes +tiling par 64", "8792a5839d02fe78c0dddf974a7b54e9");
    ("design blackscholes +tiling+metapipelining par 1", "aa6ee652d83cd81e1dbe65ddb11dbf21");
    ("design blackscholes +tiling+metapipelining par 4", "cfbf0cabb50a8e752433eef754b2e936");
    ("design blackscholes +tiling+metapipelining par 64", "25ef837c2217292c10fbe3a19b1feb0c");
    ("design matvec baseline par 1", "c2ade2c794fc0ddf4cfe39165f38684d");
    ("design matvec baseline par 4", "995c34781f0eeebba0484997d3046d08");
    ("design matvec baseline par 64", "60576d6d7c5761b1b4ecd16e1481cfd3");
    ("design matvec +tiling par 1", "9a00bfe724a8a95b5b4e52fe34f08592");
    ("design matvec +tiling par 4", "6eae636841cde3cd60a65410f8edd756");
    ("design matvec +tiling par 64", "b7e7c0e689cda3112c26774c2dcda27e");
    ("design matvec +tiling+metapipelining par 1", "2f5d895d994b12dae5673026c50f2b96");
    ("design matvec +tiling+metapipelining par 4", "c6f47662d8e47dcee212444b6d54e3df");
    ("design matvec +tiling+metapipelining par 64", "eae25408d7651af31470decbf25041b5");
    ("design spmv baseline par 1", "d471bd0c28577401c20ac5e5aea0225b");
    ("design spmv baseline par 4", "494d305c8441121b7d79fc8d382930f1");
    ("design spmv baseline par 64", "1cc181f1d01709d2ddd4b5cf70f564f4");
    ("design spmv +tiling par 1", "69d717cf2ee1f344a9b9f9d0ead6aeac");
    ("design spmv +tiling par 4", "e9ca8c0b878a34cc8d5835b5c2ebda4b");
    ("design spmv +tiling par 64", "26ebeb4c159106384d1d329dd35c425a");
    ("design spmv +tiling+metapipelining par 1", "08e14a5a304b19b59caf332ac92911bd");
    ("design spmv +tiling+metapipelining par 4", "075e6c1800bfaee924c0fa38f2d45213");
    ("design spmv +tiling+metapipelining par 64", "0f66ea36c459302145e34bfbd1763ac8");
    ("dse outerprod", "c868beab1862b5279dd8f76d1c537a5c");
    ("dse sumrows", "af00c787e540e3f1d8562ccc747bb3a8");
    ("dse gemm", "f51922d807a0346c68f3a5515f960b1c");
    ("dse tpchq6", "ad66186ff36654d9ab7b4d72181b84fc");
    ("dse gda", "90a35c6fcc89aafa0c93ef31642eae49");
    ("dse kmeans", "04ff4fa8b82888d0f404519cb75d88ce");
    ("dse histogram", "e5334b6196530eb80a3bed20460da173");
    ("dse conv2d", "46f1332eb3742a80d51191790a4287c6");
    ("dse logreg", "4bd8c9ea4de0451b43dfe492a47e79a3");
    ("dse blackscholes", "6804eee49a9d738e3a36d6b78ae4701c");
    ("dse matvec", "6a28d03b4dfe8e799a41700618f651f5");
    ("dse spmv", "6681b35c6da22b0ce3e7923ce0a88d8d");
    ("metrics values_to_json", "0235ba2fa5fb8ab409881a02e3feb178");
    ("sim outerprod baseline", "0f04d6f86ac9425448ba57f8d45ce16f");
    ("sim outerprod +tiling", "33d9383e092f580442a564828e47546b");
    ("sim outerprod +tiling+metapipelining", "4f253e1d6d67e09764212230d148101d");
    ("sim sumrows baseline", "811a56061eec1592d9fde7ab0cbf4659");
    ("sim sumrows +tiling", "1f93f11136d74834ac47ec212626a6f5");
    ("sim sumrows +tiling+metapipelining", "2ea435d069ec5bb7899b6aa826eadc38");
    ("sim gemm baseline", "44222dc4670743c7b44859115834b2e8");
    ("sim gemm +tiling", "87dd2a91b21e1f2ffbb7bc6203a4d199");
    ("sim gemm +tiling+metapipelining", "dbdabacab26d21053c4a526dfdc37e21");
    ("sim tpchq6 baseline", "dd93c878e5b58aee6f863efe1ca55756");
    ("sim tpchq6 +tiling", "d8c9ba441c3524faa5c78ca6fbef79ee");
    ("sim tpchq6 +tiling+metapipelining", "990a05ed6e7b6b6c0f952d497659cbc3");
    ("sim gda baseline", "5fa765b30eb0d2a7081bb00ea304bb1f");
    ("sim gda +tiling", "a9051fdef7cb3bf10a6713f583e2e199");
    ("sim gda +tiling+metapipelining", "c88d0e806d7abcab30463e01c7b94481");
    ("sim kmeans baseline", "56dd891b818483eb3866f124c0b8e86a");
    ("sim kmeans +tiling", "f2265fa77ea046c01848b3ce5494520a");
    ("sim kmeans +tiling+metapipelining", "f555f98b3872aa757d1d482cb822b989");
    ("sim histogram baseline", "150a7bc69a52da1d15ccfc393555a9c5");
    ("sim histogram +tiling", "cb84939ff227260fa64702532bd5dcbf");
    ("sim histogram +tiling+metapipelining", "cbc2ebf6ceae7dec8ba10c7427b331d3");
    ("sim conv2d baseline", "264b23ff26a1d4d28fc9730b0a4dfe42");
    ("sim conv2d +tiling", "b1ab83a3c0483c69e98ac268795cc9ff");
    ("sim conv2d +tiling+metapipelining", "838d1fb2fb72bfd76afdb9e9b25a37f6");
    ("sim logreg baseline", "e9ad09db24bf0d3ca52bdda65e7f8073");
    ("sim logreg +tiling", "5c705accaa54d9327e51cf842f311416");
    ("sim logreg +tiling+metapipelining", "8410fbdcfdddcf793ff69e283bac0cb8");
    ("sim blackscholes baseline", "48a1892c15732a1f93222d43ef76023e");
    ("sim blackscholes +tiling", "4f7d21bef5ba17a5f74692a0f7332bd7");
    ("sim blackscholes +tiling+metapipelining", "aef26f0fe7afd1ae467c7238a7ec5c9b");
    ("sim matvec baseline", "7ecb39a4cc3bee74eaf17118edf61ba4");
    ("sim matvec +tiling", "f3a8b8ffb5bb70d8ffc16005d571a243");
    ("sim matvec +tiling+metapipelining", "e91c47c5247d098f468772425ddda798");
    ("sim spmv baseline", "6398835814a495e92666fe1c70c48f72");
    ("sim spmv +tiling", "296f0d47980d8fc254717cf512f7ae45");
    ("sim spmv +tiling+metapipelining", "867d50ee6e171ea5a1df1344eb92738c") ]

let test_golden () =
  (* the texts print fresh symbol numbers, so the reports are built in a
     fixed order: the design texts after every other report *)
  let reports =
    profile_digests () @ ppl_lint_digests () @ hw_lint_digests ()
  in
  let designs = design_digests () in
  let par_designs = par_design_digests () in
  let sweeps = dse_digests () in
  let sims = sim_report_digests () in
  let actual =
    reports @ designs @ par_designs @ sweeps @ metrics_digests () @ sims
  in
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
