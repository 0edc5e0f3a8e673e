(* The repository benchmark: four closed-loop workloads over the compiler
   and simulator, called in-process through the library's public API.

     main.exe --workload compile|dse|analyze|timeline|all --seed N
              --seconds S --trace 0|1

   With --trace 0 one workload is set up several times (the median is
   setup_s), then measured in whole rounds for about S seconds; the last
   line of stdout is one JSON object with the end-to-end metrics.  With
   --trace 1 every workload runs one untraced and one traced round and the
   JSON holds the per-layer metrics; the spans go to --spans.  See
   README.md in this directory. *)

open Common

type ctx = {
  seed : int;
  seconds : float;
  corpus : string;
  only : string list option;
  domains : int;
}

let workloads = [ "compile"; "dse"; "analyze"; "timeline" ]

let instance ctx = function
  | "compile" ->
      W_compile.instance (W_compile.setup ~seed:ctx.seed ~corpus:ctx.corpus ~only:ctx.only ())
  | "dse" -> W_dse.instance ~domains:ctx.domains (W_dse.setup ~only:ctx.only ())
  | "analyze" -> W_analyze.instance (W_analyze.setup ~only:ctx.only ())
  | "timeline" -> W_timeline.instance (W_timeline.setup ~only:ctx.only ())
  | w -> invalid_arg ("unknown workload " ^ w)

(* The end-to-end metrics every workload reports. *)
let generic =
  [ ("throughput_per_s", "1/s"); ("op_ms_p50", "ms"); ("op_ms_tail", "ms");
    ("design_cycles_geomean", "cycles"); ("design_logic_geomean", "ALMs");
    ("design_bram_geomean", "M20K") ]

(* Per workload: what one unit of work is, the tail percentile (the
   highest with at least ten samples beyond it at the default run
   length), the name each generic metric has on it (those marked [true]
   are the 16 of --workload all), and the layers the traced run times. *)
type info = {
  work_unit : string;
  tail : float;
  names : (string * bool) list;
  layers : string list;
}

let info = function
  | "compile" ->
      { work_unit = "programs"; tail = 99.0; layers = W_compile.layers;
        names =
          [ ("compile_programs_per_s", true); ("compile_ms_p50", true);
            ("compile_ms_p99", true); ("design_cycles_geomean", true);
            ("design_logic_geomean", true); ("design_bram_geomean", true) ] }
  | "dse" ->
      { work_unit = "points"; tail = 90.0; layers = W_dse.layers;
        names =
          [ ("dse_points_per_s", true); ("dse_sweep_ms_p50", true);
            ("dse_sweep_ms_p90", false); ("dse_best_cycles_geomean", true);
            ("dse_best_logic_geomean", false); ("dse_best_bram_geomean", false) ] }
  | "analyze" ->
      { work_unit = "designs"; tail = 99.0; layers = W_analyze.layers;
        names =
          [ ("analyze_designs_per_s", true); ("analyze_ms_p50", true);
            ("analyze_ms_p99", true); ("analyze_cycles_geomean", false);
            ("analyze_logic_geomean", false); ("analyze_bram_geomean", false) ] }
  | _ ->
      { work_unit = "events"; tail = 90.0; layers = W_timeline.layers;
        names =
          [ ("timeline_events_per_s", true); ("timeline_ms_p50", true);
            ("timeline_ms_p90", true); ("timeline_cycles_geomean", false);
            ("timeline_logic_geomean", false); ("timeline_bram_geomean", false) ] }

(* Set-ups per measured run; setup_s is their median. *)
let setups = 7

let report_failure name tally =
  Option.iter
    (fun why -> Printf.eprintf "%s: first failed operation: %s\n%!" name why)
    tally.first_failure

(* ---------------------------- measured run -------------------------- *)

type measured = {
  setup_s : float;
  metrics : metric list;  (* generic names, in [generic] order *)
  tally : tally;
}

let measure ctx name =
  let runs =
    List.init setups (fun _ ->
        Gc.full_major ();
        let inst, dt, _ = scaled ~domains:1 (fun () -> instance ctx name) in
        (dt, inst))
  in
  let setup_s = median (List.map fst runs) in
  let inst = snd (List.nth runs (setups - 1)) in
  let tally = new_tally () in
  let samples, factors, rounds, quality =
    closed_loop ~seed:ctx.seed ~seconds:ctx.seconds inst tally
  in
  let ms = List.map (fun s -> s.ms) samples in
  let work = List.fold_left (fun acc (s : sample) -> acc + s.work) 0 samples in
  let busy = List.fold_left ( +. ) 0.0 ms /. 1e3 in
  let q f = geomean (List.map f quality) in
  let values =
    [ F (float_of_int work /. busy);
      F (median_of_medians (List.map (fun s -> (s.key, s.ms)) samples));
      F (percentile (info name).tail ms);
      F (q (fun (c, _, _) -> c)); F (q (fun (_, l, _) -> l)); F (q (fun (_, _, b) -> b)) ]
  in
  Printf.printf
    "%s: %d rounds, %d operations, %d %s, %.3f s busy (scaled; median host-speed factor \
     %.3f), seed %d, %s\n"
    name rounds (List.length samples) work (info name).work_unit busy (median factors) ctx.seed
    (if name = "dse" then Printf.sprintf "%d domains" ctx.domains else "1 domain");
  Printf.printf "  %-26s %-24s %14.6g s\n" "setup_s" "setup_s" setup_s;
  List.iter2
    (fun ((g, unit_), (s, _)) v -> Printf.printf "  %-26s %-24s %14s %s\n" s g (value_text v) unit_)
    (List.combine generic (info name).names)
    values;
  report_failure name tally;
  { setup_s;
    metrics = List.map2 (fun (g, unit_) v -> metric g unit_ v) generic values;
    tally }

(* ----------------------------- traced run --------------------------- *)

let traced ctx name =
  let dse_items = lazy (W_dse.setup ~only:ctx.only ()) in
  let inst =
    if name = "dse" then W_dse.instance ~domains:ctx.domains (Lazy.force dse_items)
    else instance ctx name
  in
  let tally = new_tally () in
  let base = Metrics.snapshot () in
  W_dse.reset_pool ();
  let untraced, factor, counts = census ~seed:ctx.seed inst tally in
  let passes = if name = "compile" then W_compile.pass_metrics ~base ~factor else [] in
  let shared, spans =
    traced_census ~seed:ctx.seed ~prefix:name ~layers:(info name).layers ~untraced inst
      tally
  in
  let extra =
    if name <> "dse" then []
    else
      (* a ratio of wall-clock times: scaling would divide out the cost of
         running in parallel, which is what this measures *)
      let one, one_factor, _ =
        census ~seed:ctx.seed (W_dse.instance ~domains:1 (Lazy.force dse_items)) tally
      in
      let p = W_dse.pool in
      let get k = Option.value (List.assoc_opt k counts) ~default:0 in
      let per = if p.W_dse.per_domain = [||] then [| 0 |] else p.W_dse.per_domain in
      [ metric "dse.pool.busy_ratio" "ratio"
          (F (p.W_dse.busy /. (float_of_int ctx.domains *. p.W_dse.wall)));
        metric "dse.pool.domains" "count" (I ctx.domains);
        metric "dse.pool.items_min" "count" (I (Array.fold_left Int.min max_int per));
        metric "dse.pool.items_max" "count" (I (Array.fold_left Int.max 0 per));
        metric "dse.feasible_ratio" "ratio"
          (F (float_of_int (get "feasible") /. float_of_int (Int.max 1 (get "points"))));
        metric "dse.speedup_vs_1" "ratio"
          (F (one /. one_factor /. (untraced /. factor))) ]
  in
  report_failure name tally;
  (shared @ passes @ extra, spans, tally)

(* -------------------------------- main ------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let corpus = ref "corpus" and benches = ref "" and domains = ref 0 in
  let spans_file = ref (Filename.concat ".bench_out" "spans.json") in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME compile | dse | analyze | timeline | all");
      ("--seed", Arg.Set_int seed, "N seed for the inputs and the visiting order");
      ("--seconds", Arg.Set_float seconds, "S how long the measured loop runs");
      ("--trace", Arg.Set_int trace, "0|1 1 = the traced run (per-layer metrics)");
      ("--corpus", Arg.Set_string corpus, "DIR the corpus/*.ppl directory");
      ("--benches", Arg.Set_string benches, "A,B,... only these programs (for quick runs)");
      ("--domains", Arg.Set_int domains, "N domains for dse (default: Pool.default_domains)");
      ("--spans", Arg.Set_string spans_file, "FILE where the traced run writes its spans ('' = nowhere)") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if not (List.mem !workload ("all" :: workloads)) then fail ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Sys.file_exists (Filename.concat !corpus "saxpy.ppl")) then
    fail ("no corpus at " ^ !corpus);
  let ctx =
    { seed = !seed;
      seconds = !seconds;
      corpus = !corpus;
      only = (if !benches = "" then None else Some (String.split_on_char ',' !benches));
      domains = (if !domains > 0 then !domains else Pool.default_domains ()) }
  in
  let finish tallies metrics =
    let attempted = List.fold_left (fun a t -> a + t.attempted) 0 tallies in
    let failed = List.fold_left (fun a t -> a + t.failed) 0 tallies in
    print_endline
      (result_json ~correct:(failed = 0 && attempted > 0) ~attempted ~failed metrics)
  in
  if !trace = 1 then begin
    let results = List.map (fun w -> (w, traced ctx w)) workloads in
    let metrics = List.concat_map (fun (_, (m, _, _)) -> m) results in
    List.iter (fun m -> Printf.printf "  %-36s %14s %s\n" m.name (value_text m.value) m.unit_) metrics;
    if !spans_file <> "" then begin
      let dir = Filename.dirname !spans_file in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out_bin !spans_file in
      output_string oc (Span.to_chrome_json (List.map (fun (w, (_, s, _)) -> (w, s)) results));
      close_out oc;
      Printf.printf "spans written to %s\n" !spans_file
    end;
    finish (List.map (fun (_, (_, _, t)) -> t) results) metrics
  end
  else if !workload = "all" then begin
    let results = List.map (fun w -> (w, measure ctx w)) workloads in
    let setup_s = List.fold_left (fun a (_, r) -> a +. r.setup_s) 0.0 results in
    let named =
      List.concat_map
        (fun (w, r) ->
          List.filter_map
            (fun ((s, in_all), m) -> if in_all then Some { m with name = s } else None)
            (List.combine (info w).names r.metrics))
        results
    in
    finish (List.map (fun (_, r) -> r.tally) results) (metric "setup_s" "s" (F setup_s) :: named)
  end
  else begin
    let r = measure ctx !workload in
    finish [ r.tally ] (metric "setup_s" "s" (F r.setup_s) :: r.metrics)
  end
