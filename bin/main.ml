(* ppl-fpga: command-line driver for the parallel-patterns-to-hardware
   compiler, simulator, and experiment harness. *)

open Cmdliner

let benches () = Suite.extended ()

(* The suite benchmark of that name, or the one message every command
   gives for a name it does not know. *)
let find_bench s =
  match Suite.find (benches ()) s with
  | b -> Ok b
  | exception Not_found ->
      Error
        (`Msg
           (Printf.sprintf "unknown benchmark %S (try: %s)" s
              (String.concat ", "
                 (List.map (fun b -> b.Suite.name) (benches ())))))

let bench_conv =
  Arg.conv (find_bench, fun fmt b -> Format.pp_print_string fmt b.Suite.name)

(* A program target: a path that exists is a .ppl file, anything else
   must name a suite benchmark. *)
type target = File of string | Bench of Suite.bench

let target_conv =
  let parse s =
    if Sys.file_exists s then Ok (File s)
    else Result.map (fun b -> Bench b) (find_bench s)
  in
  let print fmt = function
    | File f -> Format.pp_print_string fmt f
    | Bench b -> Format.pp_print_string fmt b.Suite.name
  in
  Arg.conv (parse, print)

(* Tile sizes, size-parameter values and parallelism factors below 1
   cannot take effect: reject them as usage errors before any compiling. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 ->
        Error (`Msg (Printf.sprintf "must be at least 1 (got %d)" n))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* A file that cannot be read or written, or a .ppl file that does not
   parse or type-check, is bad input, not a bug: say what is wrong with
   it as FILE: message and exit 1. *)
let file_error file msg =
  let prefix = file ^ ": " in
  prerr_endline (if String.starts_with ~prefix msg then msg else prefix ^ msg);
  exit 1

(* [write oc] writes the file's contents *)
let write_file file write =
  try Out_channel.with_open_text file write
  with Sys_error msg -> file_error file msg

let usage_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 124)
    fmt

type resolved = {
  name : string;
  prog : Ir.program;
  tiles : (Sym.t * int) list;
  sizes : (Sym.t * int) list;
}

(* The one boundary between a command line and the compiler: a target
   plus its --tiles and --sizes specs (size-parameter base name, value)
   become a program, its tile sizes and its size values.  A benchmark
   supplies its default tiles and simulation sizes, which the specs
   override by name; a file has no defaults.  Sizes are all or nothing
   (all when [need_sizes]).  An unknown or repeated name, a missing
   size, a size above its declared maxsize and a tile above its size
   (else its maxsize) describe no design of the program: they are usage
   errors, exit 124, before any compiling. *)
let resolve ~cmd ?(need_sizes = false) ?(tiles = []) ?(sizes = []) target =
  let name, prog, default_tiles, default_sizes =
    match target with
    | Bench b -> (b.Suite.name, b.Suite.prog, b.Suite.tiles, b.Suite.sim_sizes)
    | File f -> (
        try
          let prog =
            Parser.program_of_string
              (In_channel.with_open_text f In_channel.input_all)
          in
          ignore (Validate.check_program prog);
          (Filename.basename f, prog, [], [])
        with
        | Parser.Parse_error msg | Validate.Type_error msg | Sys_error msg ->
          file_error f msg)
  in
  let params = prog.Ir.size_params in
  let find s l =
    List.find_map (fun (k, v) -> if Sym.equal k s then Some v else None) l
  in
  let override flag defaults spec =
    let given =
      List.fold_left
        (fun acc (n, v) ->
          match List.find_opt (fun s -> Sym.base s = n) params with
          | None ->
              usage_error cmd "--%s: %s has no size parameter %s (it has: %s)"
                flag prog.Ir.pname n
                (String.concat ", " (List.map Sym.base params))
          | Some s when find s acc <> None ->
              usage_error cmd "--%s: %s given twice" flag n
          | Some s -> acc @ [ (s, v) ])
        [] spec
    in
    List.map
      (fun (s, v) -> (s, Option.value (find s given) ~default:v))
      defaults
    @ List.filter (fun (s, _) -> find s defaults = None) given
  in
  let tiles = override "tiles" default_tiles tiles in
  let sizes = override "sizes" default_sizes sizes in
  (match List.find_opt (fun s -> find s sizes = None) params with
  | Some s when sizes <> [] || need_sizes ->
      usage_error cmd "--sizes: no value for %s (give every size parameter%s)"
        (Sym.base s)
        (if need_sizes then "" else " or none")
  | _ -> ());
  let within what bound_name bound (s, v) =
    match bound s with
    | Some b when v > b ->
        usage_error cmd "%s %s=%d exceeds %s %s=%d" what (Sym.base s) v
          bound_name (Sym.base s) b
    | _ -> ()
  in
  let maxsize = Ir.max_sizes_bound prog in
  List.iter (within "size" "maxsize" maxsize) sizes;
  List.iter
    (if sizes = [] then within "tile" "maxsize" maxsize
     else within "tile" "size" (fun s -> find s sizes))
    tiles;
  { name; prog; tiles; sizes }

let spec_arg name ~docv ~doc =
  Arg.(
    value
    & opt (list (pair ~sep:'=' string positive_int)) []
    & info [ name ] ~docv ~doc)

let tiles_arg =
  spec_arg "tiles" ~docv:"NAME=SIZE,..."
    ~doc:
      "Tile sizes by size-parameter base name, in place of a benchmark's \
       default tiles.  A tile may not exceed its size (without \
       $(b,--sizes), its declared maxsize)."

let sizes_arg ~doc =
  spec_arg "sizes" ~docv:"NAME=N,..."
    ~doc:
      ("Size-parameter values by base name, in place of a benchmark's \
        simulation sizes: every size parameter or none, and none above \
        its declared maxsize.  " ^ doc)

let bench_arg =
  Arg.(
    required
    & pos 0 (some bench_conv) None
    & info [] ~docv:"BENCH" ~doc:"Benchmark name (see $(b,ppl-fpga list)).")

let config_arg =
  let cfg_conv =
    Arg.enum
      [ ("baseline", Experiments.Baseline);
        ("tiled", Experiments.Tiled);
        ("meta", Experiments.Tiled_meta) ]
  in
  Arg.(
    value & opt cfg_conv Experiments.Tiled_meta
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Hardware configuration: $(b,baseline) (burst-level locality \
           only), $(b,tiled) (tiling, sequential controllers), or $(b,meta) \
           (tiling + metapipelining).")

let stage_arg =
  Arg.(
    value
    & opt (enum [ ("fused", `Fused); ("stripped", `Stripped);
                  ("stripped-copies", `Swc); ("tiled", `Tiled) ])
        `Tiled
    & info [ "s"; "stage" ] ~docv:"STAGE"
        ~doc:
          "Pipeline stage to show: $(b,fused), $(b,stripped) (after strip \
           mining), $(b,stripped-copies) (strip mining with tile copies), \
           or $(b,tiled) (after interchange; the final form).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Evaluate independent sweep points on $(docv) parallel OCaml \
           domains (default: the runtime's recommended count; 1 = \
           sequential).  Results are identical at every domain count.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering this run \
           (compiler-pass wall-clock spans plus the simulator's \
           virtual-cycle timeline); load it at https://ui.perfetto.dev \
           or chrome://tracing.  A per-track summary is printed to \
           stderr.  See doc/OBSERVABILITY.md.")

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let metrics_flag =
  flag_arg "metrics"
    "Print the metrics recorded by this invocation (pass timers, \
     simulator cache hit/miss counters, pool task counts, ...) \
     after the run.  The registry is process-global; the report is \
     the delta against a snapshot taken at command entry."

(* Run a command body under the observability flags: tracing is enabled
   for the duration when --trace FILE is given (the JSON is written and a
   summary goes to stderr afterwards, even if the body raises), and the
   metrics recorded by this invocation are printed when --metrics is.
   The metrics registry is process-global and survives across in-process
   runs, so the report is a delta against the snapshot taken here — not
   lifetime totals. *)
let obs_wrap trace metrics f =
  let metrics_base = if metrics then Metrics.snapshot () else [] in
  (match trace with
  | Some _ ->
      Trace.clear ();
      Trace.enable ()
  | None -> ());
  Fun.protect f ~finally:(fun () ->
      (match trace with
      | Some file ->
          Trace.disable ();
          write_file file Trace.output;
          prerr_string (Trace.summary ());
          Printf.eprintf "trace: wrote %s (open in https://ui.perfetto.dev)\n"
            file
      | None -> ());
      if metrics then
        Format.printf "%a" Metrics.pp_values
          (Metrics.diff ~base:metrics_base (Metrics.snapshot ())))

let warn_fallbacks ctx (r : Event_sim.result) =
  if r.Event_sim.fallbacks > 0 then
    Printf.eprintf
      "warning: %s: event engine fell back to the analytic model for %d \
       subtree(s) exceeding %d controller instances; their cycle counts \
       are closed-form estimates, not scheduled timelines\n"
      ctx r.Event_sim.fallbacks Event_sim.max_events

(* publish one event-engine run and (optionally) its timeline *)
let observe_event_run ctx trace (r : Event_sim.result) =
  warn_fallbacks ctx r;
  Metrics.incr ~by:r.Event_sim.events "sim.event.instances";
  Metrics.incr ~by:r.Event_sim.fallbacks "sim.event.fallbacks";
  Metrics.incr ~by:r.Event_sim.coalesced "sim.event.dram_coalesced";
  if trace <> None then Option.iter Sim_trace.record r.Event_sim.timeline

(* Simulate a design on the chosen engine; the event run comes back too
   when there is one.  The virtual timeline always comes from the event
   engine, so a trace has a simulator section under either engine. *)
let simulate_design ?cache engine trace ctx d ~sizes =
  match engine with
  | `Analytic ->
      let rep = Simulate.run ?cache d ~sizes in
      if trace <> None then
        observe_event_run ctx trace (Event_sim.run ~record:true d ~sizes);
      (rep, None)
  | `Event ->
      let r = Event_sim.run ~record:(trace <> None) d ~sizes in
      observe_event_run ctx trace r;
      (r.Event_sim.report, Some r)

let observe_cache cache =
  let st = Simulate.cache_stats cache in
  Metrics.incr ~by:st.Simulate.hits "sim.cache.hits";
  Metrics.incr ~by:st.Simulate.misses "sim.cache.misses"

(* Machine-readable simulation report, shared by `simulate --json` and
   `timeline --json`.  Numbers go through the same writer and precision as
   `profile --json`, so totals compare byte-for-byte with it. *)
let report_json ~bench ~config ~engine (rep : Simulate.report) area =
  let b = Buffer.create 512 in
  let str = Buffer.add_string b in
  let num = Json_out.add_float ~prec:6 b in
  let field name =
    str ", \"";
    str name;
    str "\": "
  in
  str "{\"bench\": ";
  Json_out.add_string b bench;
  field "config";
  Json_out.add_string b config;
  field "engine";
  Json_out.add_string b engine;
  field "cycles";
  num rep.Simulate.cycles;
  field "dram_cycles";
  num rep.Simulate.dram_cycles;
  field "reads";
  Json_out.add_float_object ~prec:6 b rep.Simulate.reads;
  field "writes";
  Json_out.add_float_object ~prec:6 b rep.Simulate.writes;
  field "area";
  Json_out.add_float_object ~prec:6 b
    [ ("logic", area.Area_model.logic); ("ff", area.Area_model.ff);
      ("bram", area.Area_model.bram); ("dsp", area.Area_model.dsp) ];
  field "time_ms";
  Json_out.add_fixed ~prec:6 b
    (1e3 *. Machine.seconds Machine.default rep.Simulate.cycles);
  str "}\n";
  Buffer.contents b

(* `lint` and `lint-ir`: each target's label, summary and diagnostics
   as text or, with --json, an array with one object per target (its
   string fields, its summary, then its diagnostics).  Exit 1 iff any
   diagnostic is an error. *)
let report_diagnostics json rows =
  if json then begin
    let b = Buffer.create 4096 in
    Buffer.add_char b '[';
    Json_out.add_list b
      (fun b (_, fields, ds) ->
        Buffer.add_char b '{';
        List.iter
          (fun (k, v) ->
            Json_out.add_string b k;
            Buffer.add_string b ": ";
            Json_out.add_string b v;
            Buffer.add_string b ", ")
          (fields @ [ ("summary", Diagnostic.summary ds) ]);
        Buffer.add_string b "\"diagnostics\": ";
        Buffer.add_string b (Diagnostic.list_to_json ds);
        Buffer.add_char b '}')
      rows;
    Buffer.add_string b "]\n";
    print_string (Buffer.contents b)
  end
  else
    List.iter
      (fun (label, _, ds) ->
        Printf.printf "%s: %s\n" label (Diagnostic.summary ds);
        Format.printf "%a" Diagnostic.pp_list ds)
      rows;
  if List.exists (fun (_, _, ds) -> Diagnostic.has_errors ds) rows then exit 1

(* a design's top-3 cycle sinks by source pattern, one line each *)
let top_sinks ~indent p =
  String.concat ""
    (List.map
       (fun (o : Profile.origin_row) ->
         Printf.sprintf "%s%-36s %14.0f cycles  %5.1f%%\n" indent
           o.Profile.origin o.Profile.o_cycles (100.0 *. o.Profile.o_share))
       (Profile.top_sinks p 3))

let tiling_of bench = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog

let stage_prog bench = function
  | `Fused -> (tiling_of bench).Tiling.fused
  | `Stripped -> (tiling_of bench).Tiling.stripped
  | `Swc -> (tiling_of bench).Tiling.stripped_with_copies
  | `Tiled -> (tiling_of bench).Tiling.tiled

(* ------------------------------ commands ---------------------------- *)

let list_cmd =
  let run () =
    Experiments.print_table5 (Suite.all ());
    let paper = List.map (fun b -> b.Suite.name) (Suite.all ()) in
    Printf.printf "\nExtension applications (beyond the paper's Table 5)\n";
    List.iter
      (fun (b : Suite.bench) ->
        if not (List.mem b.Suite.name paper) then
          Printf.printf "%-12s %-38s %s\n" b.Suite.name b.Suite.description
            b.Suite.collection_ops)
      (benches ())
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List the benchmark suite (Table 5) and extension applications.")
    Term.(const run $ const ())

let ir_cmd =
  let run bench stage =
    print_endline (Pp.program_to_string (stage_prog bench stage))
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:"Print a benchmark's parallel-pattern IR at a pipeline stage.")
    Term.(const run $ bench_arg $ stage_arg)

let design_cmd =
  let format_arg =
    Arg.(
      value
      & opt
          (enum [ ("hw", `Hw); ("maxj", `Maxj); ("dot", `Dot) ])
          `Hw
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,hw) (the controller tree and memory \
             table), $(b,maxj) (the MaxJ-like HGL kernel) or $(b,dot) (a \
             Graphviz block diagram, the Fig. 6 view).")
  in
  let run bench config format =
    let print =
      match format with
      | `Hw -> Hw_pp.design_to_string
      | `Maxj -> Maxj.emit
      | `Dot -> Dot.emit
    in
    print_string (print (Experiments.design_of config bench))
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Print the generated hardware design: its controllers and \
          memories, its MaxJ-like kernel or its Graphviz diagram.")
    Term.(const run $ bench_arg $ config_arg $ format_arg)

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("analytic", `Analytic); ("event", `Event) ]) `Analytic
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: $(b,analytic) (hierarchical closed forms) or \
           $(b,event) (per-instance scheduling with double-buffer \
           handshakes and a DRAM calendar).")

let breakdown_flag =
  flag_arg "breakdown" "Per-controller timing table."

let bottlenecks_flag =
  flag_arg "bottlenecks"
    "Per-metapipeline bottleneck table: the slowest stage and \
     whether compute or DRAM sets the steady state (the analysis \
     behind the gda rebalancing)."

let json_flag =
  flag_arg "json"
    "Machine-readable output: one JSON object with cycles, DRAM \
     traffic and area (numbers formatted as in $(b,profile --json), \
     so totals compare byte-for-byte)."

let simulate_cmd =
  let run bench config engine breakdown bottlenecks json trace metrics =
    obs_wrap trace metrics @@ fun () ->
    let d = Experiments.design_of config bench in
    (* the report, the breakdown and the bottleneck table are read from
       one annotation *)
    let cache = Simulate.cache () in
    let rep, event_run =
      simulate_design ~cache engine trace bench.Suite.name d
        ~sizes:bench.Suite.sim_sizes
    in
    if not json then
      Option.iter
        (fun (r : Event_sim.result) ->
          Printf.printf
            "(event engine: %d controller instances, %d fallbacks)\n"
            r.Event_sim.events r.Event_sim.fallbacks)
        event_run;
    let a = Area_model.of_design d in
    if json then
      print_string
        (report_json ~bench:bench.Suite.name
           ~config:(Experiments.config_name config)
           ~engine:(match engine with `Analytic -> "analytic" | `Event -> "event")
           rep a)
    else begin
      Printf.printf "%s / %s\n" bench.Suite.name
        (Experiments.config_name config);
      Format.printf "%a" Simulate.pp_report rep;
      Format.printf "area: %a@." Area_model.pp a;
      Format.printf "utilization (Stratix V): %a%s@." Area_model.pp_utilization
        a
        (if Area_model.fits a then "" else "  ** EXCEEDS CHIP **");
      Printf.printf "time at %.0f MHz: %.3f ms\n"
        Machine.default.Machine.clock_mhz
        (1e3 *. Machine.seconds Machine.default rep.Simulate.cycles);
      if breakdown then
        Format.printf "%a"
          Simulate.pp_breakdown
          (Simulate.breakdown ~cache d ~sizes:bench.Suite.sim_sizes);
      if bottlenecks then
        Format.printf "%a"
          Simulate.pp_bottlenecks
          (Simulate.bottlenecks ~cache d ~sizes:bench.Suite.sim_sizes)
    end;
    observe_cache cache
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a benchmark's design: cycles, DRAM traffic, area.")
    Term.(
      const run $ bench_arg $ config_arg $ engine_arg $ breakdown_flag
      $ bottlenecks_flag $ json_flag $ trace_arg $ metrics_flag)

let fig5c_cmd =
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~doc:"Number of points.") in
  let k = Arg.(value & opt int 256 & info [ "k" ] ~doc:"Number of clusters.") in
  let d = Arg.(value & opt int 32 & info [ "d" ] ~doc:"Point dimensionality.") in
  let b0 = Arg.(value & opt int 64 & info [ "b0" ] ~doc:"Tile size for n.") in
  let b1 = Arg.(value & opt int 16 & info [ "b1" ] ~doc:"Tile size for k.") in
  let run n k d b0 b1 =
    Experiments.print_fig5c (Experiments.fig5c ~n ~k ~d ~b0 ~b1 ())
  in
  Cmd.v
    (Cmd.info "fig5c"
       ~doc:
         "Reproduce Fig. 5c: k-means main-memory reads and on-chip storage \
          per structure for the fused, strip-mined and interchanged forms.")
    Term.(const run $ n $ k $ d $ b0 $ b1)

let stats_cmd =
  let run bench =
    let r = tiling_of bench in
    print_endline Ir_stats.header;
    List.iter
      (fun (name, prog) ->
        print_endline (Ir_stats.row name (Ir_stats.of_program prog)))
      [ ("source", bench.Suite.prog);
        ("fused", r.Tiling.fused);
        ("strip-mined", r.Tiling.stripped);
        ("with copies", r.Tiling.stripped_with_copies);
        ("interchanged", r.Tiling.tiled) ]
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show IR statistics for each transformation stage.")
    Term.(const run $ bench_arg)

let dse_cmd =
  let budget =
    Arg.(
      value & opt float 2560.0
      & info [ "bram" ] ~docv:"BLOCKS"
          ~doc:"On-chip memory budget in M20K blocks (Stratix V: 2560).")
  in
  let pars_arg =
    Arg.(
      value & opt (list positive_int) []
      & info [ "pars" ] ~docv:"P1,P2,..."
          ~doc:
            "Also sweep these parallelism factors jointly with the tile \
             sizes (default: the single default factor).")
  in
  let profile_flag =
    flag_arg "profile"
      "After the sweep, rebuild the selected design and print its \
       top-3 cycle sinks by source pattern — what to optimize next \
       at the chosen tile sizes."
  in
  let run bench budget pars domains profile trace metrics =
    obs_wrap trace metrics @@ fun () ->
    Printf.printf
      "tile-size exploration for %s (budget %.0f M20K, sizes at sim scale)\n\n"
      bench.Suite.name budget;
    let res = Dse.explore_bench ?domains ~bram_budget:budget ~pars bench in
    Dse.print_result res;
    if profile then
      match res.Dse.best with
      | None -> print_endline "\nprofile: no feasible point to profile"
      | Some best ->
          let d =
            Experiments.lower ~par:best.Dse.par Experiments.Tiled_meta
              (Tiling.run ~tiles:best.Dse.tiles bench.Suite.prog)
          in
          let p = Profile.of_design d ~sizes:bench.Suite.sim_sizes in
          Printf.printf "\ntop cycle sinks for the selected tile (%s, par %d)\n"
            (String.concat ", "
               (List.map
                  (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b)
                  best.Dse.tiles))
            best.Dse.par;
          print_string (top_sinks ~indent:"  " p)
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Automated tile-size (and optionally parallelism-factor) \
          selection (the paper's future-work loop): sweep candidates in \
          parallel across OCaml domains, model cycles and area, pick the \
          fastest design that fits the memory budget and the chip.")
    Term.(
      const run $ bench_arg $ budget $ pars_arg $ domains_arg $ profile_flag
      $ trace_arg $ metrics_flag)

let compile_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A .ppl program (the syntax ir/export emit).")
  in
  let sizes_arg =
    sizes_arg ~doc:"When given, the compiled design is also simulated at them."
  in
  let run file tiles sizes engine trace metrics =
    obs_wrap trace metrics @@ fun () ->
    let { prog; tiles; sizes; _ } =
      resolve ~cmd:"compile" ~tiles ~sizes (File file)
    in
    Printf.printf "parsed %s: %d IR nodes, result type ok\n" prog.Ir.pname
      (Rewrite.node_count prog.Ir.body);
    let r = Tiling.run ~tiles prog in
    print_endline (Pp.program_to_string r.Tiling.tiled);
    let d = Experiments.lower Experiments.Tiled_meta r in
    print_string (Hw_pp.design_to_string d);
    (match Hw_lint.check_all d with
    | [] -> print_endline "design check: ok"
    | fs ->
        List.iter (fun f -> Format.printf "design check: %a@." Diagnostic.pp f) fs;
        if Diagnostic.has_errors fs then exit 1
        else Printf.printf "design check: ok (%s)\n" (Diagnostic.summary fs));
    match sizes with
    | [] -> ignore engine
    | sizes ->
        let rep, _ = simulate_design engine trace prog.Ir.pname d ~sizes in
        Format.printf "%a" Simulate.pp_report rep;
        let a = Area_model.of_design d in
        Format.printf "area: %a@." Area_model.pp a
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Parse a .ppl file, tile it, print and validate the hardware \
          design, and (with --sizes) simulate it.")
    Term.(
      const run $ file $ tiles_arg $ sizes_arg $ engine_arg $ trace_arg
      $ metrics_flag)

let bounds_cmd =
  let run bench stage =
    let prog = stage_prog bench stage in
    let accesses, ds = Bounds.audit prog in
    Format.printf "%a" Diagnostic.pp_list ds;
    let v = List.length (Diagnostic.errors ds) in
    let u = List.length ds - v in
    Printf.printf "%d accesses: %d proven, %d unknown, %d violations\n"
      accesses (accesses - u - v) u v;
    if v > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:
         "Statically verify that every input access of the (tiled) program           stays within its declared shape.")
    Term.(const run $ bench_arg $ stage_arg)

let export_cmd =
  let outdir =
    Arg.(
      value & opt string "artifacts"
      & info [ "o"; "outdir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run outdir =
    (try if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755
     with Sys_error msg -> file_error outdir msg);
    let write name contents =
      write_file (Filename.concat outdir name) (fun oc ->
          output_string oc contents);
      Printf.printf "  wrote %s\n" (Filename.concat outdir name)
    in
    List.iter
      (fun (bench : Suite.bench) ->
        let r = tiling_of bench in
        let d = Experiments.design_of Experiments.Tiled_meta bench in
        write (bench.Suite.name ^ ".ppl") (Pp.program_to_string r.Tiling.tiled);
        write (bench.Suite.name ^ ".maxj") (Maxj.emit d);
        write (bench.Suite.name ^ ".dot") (Dot.emit d);
        write (bench.Suite.name ^ ".design") (Hw_pp.design_to_string d))
      (benches ());
    Printf.printf "exported %d benchmarks to %s/\n" (List.length (benches ()))
      outdir
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Write every benchmark's tiled IR, MaxJ-like kernel, Graphviz           diagram and design listing to a directory.")
    Term.(const run $ outdir)

let traffic_cmd =
  let profile_flag =
    flag_arg "profile"
      "Also execute the tiled program in the interpreter (at test \
       sizes) and report its independent per-input word counts."
  in
  let run bench profile =
    let rows = Experiments.traffic ~profile bench in
    Experiments.print_traffic bench.Suite.name rows;
    if profile then
      print_endline
        "(profile runs at test sizes; simulated columns use the same sizes)"
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Per-input DRAM read words under the baseline and tiled designs \
          (the Fig. 5c analysis generalized to any benchmark).")
    Term.(const run $ bench_arg $ profile_flag)

let check_cmd =
  let bench_opt =
    Arg.(
      value
      & pos 0 (some bench_conv) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark to check; omitted = the whole suite.")
  in
  let profile_flag =
    flag_arg "profile"
      "After the checks, print each benchmark's top-3 cycle sinks \
       by source pattern (meta configuration, simulation sizes)."
  in
  (* each bench's checks print into its own buffer, so the whole suite
     can run benches on parallel domains and still report in order *)
  let check_bench ~profile buf (bench : Suite.bench) =
    let failures = ref 0 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let report name ok detail =
      pr "  %-28s %s%s\n" name
        (if ok then "ok" else "FAIL")
        (if detail = "" then "" else " (" ^ detail ^ ")");
      if not ok then incr failures
    in
    let detail ds =
      String.concat "; " (List.map (Format.asprintf "%a" Diagnostic.pp) ds)
    in
    (* error-severity findings fail a lint; the rest are summarized *)
    let report_lint name ds =
      let errors = Diagnostic.errors ds in
      report name (errors = [])
        (if errors = [] then Diagnostic.summary ds else detail errors)
    in
    pr "%s\n" bench.Suite.name;
    (* 0. the source program is PPL-lint-clean at error severity — this
       runs before any tiling, where a race or legality finding still
       points at the pattern that caused it *)
    report_lint "lint-ir: source" (Ppl_lint.check_all bench.Suite.prog);
    let r = tiling_of bench in
    let stages =
      [ ("fused", r.Tiling.fused);
        ("strip-mined", r.Tiling.stripped);
        ("strip-mined+copies", r.Tiling.stripped_with_copies);
        ("interchanged", r.Tiling.tiled) ]
    in
    (* 1. every stage evaluates to the reference result (Tiling.run has
       type-checked each of them) *)
    let sizes = bench.Suite.test_sizes in
    let inputs = bench.Suite.gen ~sizes ~seed:2026 in
    let reference = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
    List.iter
      (fun (name, prog) ->
        let v = Eval.eval_program prog ~sizes ~inputs in
        report ("semantics: " ^ name) (Value.equal ~eps:1e-6 reference v) "")
      stages;
    (* 2. printed tiled IR parses back to an equivalent program *)
    (match
       let parsed = Parser.program_of_string (Pp.program_to_string r.Tiling.tiled) in
       (* the parser mints fresh symbols: rebind sizes by base name and
          inputs by declaration order *)
       let by_base = List.map (fun (s, v) -> (Sym.base s, v)) sizes in
       let sizes' =
         List.map (fun s -> (s, List.assoc (Sym.base s) by_base)) parsed.Ir.size_params
       in
       let inputs' =
         List.map2
           (fun (pi : Ir.input) (oi : Ir.input) ->
             (pi.Ir.iname, List.assoc oi.Ir.iname inputs))
           parsed.Ir.inputs bench.Suite.prog.Ir.inputs
       in
       Eval.eval_program parsed ~sizes:sizes' ~inputs:inputs'
     with
    | v -> report "printer/parser roundtrip" (Value.equal ~eps:1e-6 reference v) ""
    | exception e -> report "printer/parser roundtrip" false (Printexc.to_string e));
    (* 3. static bounds on the tiled program *)
    let accesses, ds = Bounds.audit r.Tiling.tiled in
    let v = List.length (Diagnostic.errors ds) in
    let u = List.length ds - v in
    report "bounds: tiled accesses" (v = 0)
      (Printf.sprintf "%d proven, %d unknown, %d violations"
         (accesses - u - v) u v);
    (* 4. every configuration's design passes the hardware validator and
       is lint-clean at error severity *)
    List.iter
      (fun cfg ->
        let d = Experiments.lower cfg r in
        let fs = Hw_check.check d in
        report ("design: " ^ Experiments.config_name cfg) (fs = []) (detail fs);
        report_lint ("lint: " ^ Experiments.config_name cfg) (Hw_lint.check d);
        (* the source linter's tile-vs-cache predictions must agree with
           the memories Lower actually instantiated for this config *)
        let opts, prog = Experiments.form cfg r in
        let xs =
          Ppl_lint.crosscheck ~cache_leftover:opts.Lower.cache_leftover prog d
        in
        report ("access classes: " ^ Experiments.config_name cfg) (xs = [])
          (detail xs))
      [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ];
    (* 5. the two simulation engines agree on the final design *)
    let d = Experiments.lower Experiments.Tiled_meta r in
    let a = (Simulate.run d ~sizes:bench.Suite.sim_sizes).Simulate.cycles in
    let er = Event_sim.run d ~sizes:bench.Suite.sim_sizes in
    warn_fallbacks (bench.Suite.name ^ " (engines agree)") er;
    let e = er.Event_sim.report.Simulate.cycles in
    let dev = Float.abs (a -. e) /. Float.max a e in
    report "engines agree" (dev < 0.02) (Printf.sprintf "deviation %.2f%%" (100.0 *. dev));
    (* 6. the design fits the chip *)
    let area = Area_model.of_design d in
    report "fits Stratix V" (Area_model.fits area) "";
    if profile then begin
      let p = Profile.of_design d ~sizes:bench.Suite.sim_sizes in
      pr "  top cycle sinks (meta):\n%s" (top_sinks ~indent:"    " p)
    end;
    !failures
  in
  let run bench_opt domains profile =
    let targets =
      match bench_opt with Some b -> [ b ] | None -> benches ()
    in
    let results =
      Pool.map ?domains
        (fun b ->
          let buf = Buffer.create 1024 in
          let n = check_bench ~profile buf b in
          (Buffer.contents buf, n))
        targets
    in
    let failures =
      List.fold_left
        (fun acc (out, n) ->
          print_string out;
          acc + n)
        0 results
    in
    if failures > 0 then begin
      Printf.printf "%d check(s) failed\n" failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run every validator on a benchmark (or the suite, with benchmarks \
          checked in parallel across OCaml domains): source-level pattern \
          lint (Ppl_lint, before tiling), interpreter equivalence of every \
          tiling stage against the source program, printer/parser \
          roundtrip, static bounds, access-classification \
          cross-check against the lowered memories, analytic/event engine \
          agreement, and chip fit.")
    Term.(const run $ bench_opt $ domains_arg $ profile_flag)

let lint_cmd =
  let bench_opt =
    Arg.(
      value
      & pos 0 (some bench_conv) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark to lint; omitted = the whole suite.")
  in
  let json_flag =
    flag_arg "json"
      "Machine-readable output: a JSON array of per-design objects, \
       each with the design name and its diagnostics."
  in
  let run bench_opt config json =
    let targets =
      match bench_opt with Some b -> [ b ] | None -> benches ()
    in
    let cfg = Experiments.config_name config in
    report_diagnostics json
      (List.map
         (fun (b : Suite.bench) ->
           let d = Experiments.design_of config b in
           ( b.Suite.name ^ " / " ^ cfg,
             [ ("bench", b.Suite.name); ("design", d.Hw.design_name);
               ("config", cfg) ],
             Hw_lint.check_all d ))
         targets)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the design-level static analyzer on a benchmark (or the \
          suite): structural validation (Hw_check) plus semantic lints — \
          metapipeline write-after-read races, banking and port conflicts, \
          FIFO rate/deadlock analysis, tile-capacity overflows, and \
          performance hints.  Codes are cataloged in doc/LINTS.md.  Exits \
          non-zero iff any error-severity diagnostic is produced.")
    Term.(const run $ bench_opt $ config_arg $ json_flag)

let lint_ir_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some target_conv) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Benchmark name or a .ppl source file; omitted = the whole \
             suite.")
  in
  let json_flag =
    flag_arg "json"
      "Machine-readable output: a JSON array of per-program objects, \
       each with the program name and its diagnostics."
  in
  let run target json =
    let targets =
      match target with
      | Some t -> [ t ]
      | None -> List.map (fun b -> Bench b) (benches ())
    in
    report_diagnostics json
      (List.map
         (fun t ->
           let { name; prog; _ } = resolve ~cmd:"lint-ir" t in
           (name, [ ("program", name) ], Ppl_lint.check_all prog))
         targets)
  in
  Cmd.v
    (Cmd.info "lint-ir"
       ~doc:
         "Run the source-level pattern analyzer on a benchmark, a .ppl \
          file, or the whole suite — before any tiling or lowering: \
          MultiFold/Fold accumulator race detection via affine write-map \
          injectivity, access-pattern classification (tile buffer vs \
          cache/CAM service), strip-mining legality, hygiene, and static \
          bounds.  Codes (PPL2xx) are cataloged in doc/LINTS.md.  Exits \
          non-zero iff any error-severity diagnostic is produced.")
    Term.(const run $ target $ json_flag)

let fig7_cmd =
  let run domains trace metrics =
    obs_wrap trace metrics @@ fun () ->
    Experiments.print_fig7 (Experiments.fig7 ?domains (Suite.all ()))
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Reproduce Fig. 7: speedups and relative resource usage of tiling \
          and metapipelining over the baseline, across the suite \
          (benchmarks evaluated in parallel across OCaml domains).")
    Term.(const run $ domains_arg $ trace_arg $ metrics_flag)

let timeline_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace JSON to $(docv) instead of stdout.")
  in
  let run bench config out json =
    (* compile before enabling the collector: the emitted JSON then holds
       only virtual-clock events and is bit-deterministic *)
    let d = Experiments.design_of config bench in
    Trace.clear ();
    Trace.enable ();
    let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
    warn_fallbacks bench.Suite.name r;
    Option.iter Sim_trace.record r.Event_sim.timeline;
    Trace.disable ();
    (match out with
    | Some file ->
        write_file file Trace.output;
        Printf.eprintf "timeline: wrote %s (open in https://ui.perfetto.dev)\n"
          file
    | None -> if not json then Trace.output stdout);
    if json then
      (* --json parity with `simulate`: the same report object on stdout
         (write the trace itself with -o FILE) *)
      print_string
        (report_json ~bench:bench.Suite.name
           ~config:(Experiments.config_name config)
           ~engine:"event" r.Event_sim.report
           (Area_model.of_design d));
    prerr_string (Trace.summary ())
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Simulate with the event engine and emit its virtual-cycle Gantt \
          timeline (one track per metapipeline stage, one per top-level \
          controller, plus the DRAM-busy track) as Chrome/Perfetto \
          trace-event JSON on stdout; a per-track utilization summary \
          goes to stderr.  The output is deterministic: bit-identical \
          across runs.  An unknown benchmark name is a clean usage error \
          (non-zero exit).  With $(b,--json) stdout instead carries the \
          same machine-readable report object as $(b,simulate --json) \
          (pass $(b,-o) to still write the trace).")
    Term.(const run $ bench_arg $ config_arg $ out_arg $ json_flag)

let profile_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some target_conv) None
      & info [] ~docv:"TARGET"
          ~doc:"Benchmark name or a .ppl source file.")
  in
  let sizes_arg =
    sizes_arg ~doc:"The design is profiled at them; a .ppl file needs them."
  in
  let profile_json_flag =
    flag_arg "json"
      "Machine-readable output: the full attribution tree and \
       per-origin table as one JSON object."
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Also write folded flamegraph stacks (one \
             $(i,frame;frame;... weight) line per provenance trail, \
             weight = self cycles) to $(docv); feed to flamegraph.pl or \
             speedscope.")
  in
  let run target config tiles sizes json folded trace metrics =
    obs_wrap trace metrics @@ fun () ->
    let { prog; tiles; sizes; _ } =
      resolve ~cmd:"profile" ~need_sizes:true ~tiles ~sizes target
    in
    let design = Experiments.lower config (Tiling.run ~tiles prog) in
    let p = Profile.of_design design ~sizes in
    (match folded with
    | Some file ->
        write_file file (fun oc -> output_string oc (Profile.to_folded p));
        Printf.eprintf
          "profile: wrote %s (render with flamegraph.pl or speedscope)\n" file
    | None -> ());
    if json then print_string (Profile.to_json p)
    else Format.printf "%a" Profile.pp_text p
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute simulated cycles (split into fill, steady-state and \
          DRAM-serialized time), DRAM traffic and modeled area back to \
          the source patterns they came from, via the provenance stamped \
          on every controller and memory.  Attribution is complete: the \
          tree's cycles sum exactly to the $(b,simulate) total.  Output \
          backends: aligned text, $(b,--json), and $(b,--folded) \
          flamegraph stacks.")
    Term.(
      const run $ target $ config_arg $ tiles_arg $ sizes_arg
      $ profile_json_flag $ folded_arg $ trace_arg $ metrics_flag)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let () =
  let info =
    Cmd.info "ppl-fpga" ~version:"1.0.0"
      ~doc:
        "Configurable hardware from parallel patterns: tiling and \
         metapipelining compiler with an FPGA performance model."
  in
  (* light-weight: -v anywhere on the command line enables pass tracing
     (stripped before cmdliner parses the rest) *)
  let verbose = Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv in
  setup_logs verbose;
  let argv =
    Array.of_list
      (List.filter
         (fun a -> a <> "-v" && a <> "--verbose")
         (Array.to_list Sys.argv))
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default info
          [ list_cmd; ir_cmd; design_cmd; simulate_cmd;
            profile_cmd; timeline_cmd; check_cmd; lint_cmd;
            lint_ir_cmd; traffic_cmd; stats_cmd; bounds_cmd; compile_cmd;
            dse_cmd; export_cmd; fig5c_cmd; fig7_cmd ]))
