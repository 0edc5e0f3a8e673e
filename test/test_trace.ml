(* The observability layer: the Chrome trace-event JSON emitted by
   [Trace] must parse, its B/E spans must balance per track, simulator
   spans must live on the deterministic virtual clock, and the stripped
   (wall-clock-free) form must be byte-stable across runs and domain
   counts.  The acceptance check ties the timeline back to the cycle
   model: gemm's top-level spans summed reproduce the event engine's
   cycle total, which in turn sits within 2% of the analytic report. *)

open Mini_json

let int_of j = int_of_float (num j)

let events_of json =
  match field "traceEvents" json with
  | JArr evs -> evs
  | _ -> Alcotest.fail "traceEvents is not an array"

(* ------------------------------ captures ----------------------------- *)

let gemm () = Suite.find (Suite.all ()) "gemm"

(* what `ppl-fpga simulate gemm --trace` records: traced compile passes
   (wall clock) plus the event engine's virtual timeline *)
let capture_sim_trace () =
  Trace.clear ();
  Trace.enable ();
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  Trace.disable ();
  (Trace.to_json (), r)

(* what `ppl-fpga timeline gemm` emits: the design is compiled before the
   collector is enabled, so the trace holds only virtual-clock events *)
let capture_timeline () =
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  Trace.clear ();
  Trace.enable ();
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  Trace.disable ();
  Trace.to_json ()

(* a full mixed-clock run with multi-domain wall activity: compile + sim
   timeline + a small DSE sweep fanned out over [domains] *)
let capture_full ~domains () =
  Trace.clear ();
  Trace.enable ();
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  let candidates =
    List.map (fun (s, dft) -> (s, [ dft; dft * 2 ])) bench.Suite.tiles
  in
  ignore
    (Dse.explore_joint ~domains ~prog:bench.Suite.prog ~candidates
       ~pars:[ 16 ] ~sizes:bench.Suite.sim_sizes ());
  Trace.disable ();
  Trace.to_json ()

let contains_sub line sub =
  let nl = String.length line and ns = String.length sub in
  let rec go i = i + ns <= nl && (String.sub line i ns = sub || go (i + 1)) in
  go 0

(* golden form: drop wall-clock lines (pid 0, the only nondeterministic
   events) and normalize the trailing commas their removal exposes *)
let strip_wall json =
  String.split_on_char '\n' json
  |> List.filter (fun l -> not (contains_sub l "\"pid\": 0"))
  |> List.map (fun l ->
         let len = String.length l in
         if len > 0 && l.[len - 1] = ',' then String.sub l 0 (len - 1) else l)

(* ------------------------------- tests ------------------------------- *)

let test_json_parses () =
  let json, _ = capture_sim_trace () in
  let evs = events_of (parse json) in
  Alcotest.(check bool) "trace has events" true (List.length evs > 100);
  (* both clocks are present: wall passes and virtual sim spans *)
  let pids = List.map (fun e -> int_of (field "pid" e)) evs in
  Alcotest.(check bool) "wall events present" true (List.mem 0 pids);
  Alcotest.(check bool) "virtual events present" true (List.mem 1 pids)

let test_be_balance () =
  let json, _ = capture_sim_trace () in
  let evs = events_of (parse json) in
  let depth : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let pairs = ref 0 in
  List.iter
    (fun e ->
      let ph = str (field "ph" e) in
      if ph = "B" || ph = "E" then begin
        let key = (int_of (field "pid" e), int_of (field "tid" e)) in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
        let d' = if ph = "B" then d + 1 else d - 1 in
        if d' < 0 then Alcotest.fail "E before B on a track";
        if ph = "E" then incr pairs;
        Hashtbl.replace depth key d'
      end)
    evs;
  Alcotest.(check bool) "has span pairs" true (!pairs > 100);
  Hashtbl.iter
    (fun _ d -> Alcotest.(check int) "every track balances" 0 d)
    depth

let test_virtual_timestamps () =
  let json, r = capture_sim_trace () in
  let evs = events_of (parse json) in
  let max_ts = ref 0.0 in
  List.iter
    (fun e ->
      let ph = str (field "ph" e) in
      if ph = "B" || ph = "E" then begin
        (* every sim span lives on the virtual pid with a cycle timestamp *)
        Alcotest.(check int) "sim spans on virtual pid" Trace.virtual_pid
          (int_of (field "pid" e));
        let ts = num (field "ts" e) in
        Alcotest.(check bool) "cycle timestamps are finite and >= 0" true
          (Float.is_finite ts && ts >= 0.0);
        if ts > !max_ts then max_ts := ts
      end)
    evs;
  let cycles = r.Event_sim.report.Simulate.cycles in
  Alcotest.(check bool) "timeline ends at the reported cycle count" true
    (Float.abs (!max_ts -. cycles) /. cycles < 1e-9)

let test_root_spans_sum_to_report () =
  (* acceptance: per-stage spans of the top-level track, summed, equal
     the event engine's cycle total for tiled gemm, which agrees with
     the analytic report within 2% *)
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let sizes = bench.Suite.sim_sizes in
  let r = Event_sim.run ~record:true d ~sizes in
  let tl =
    match r.Event_sim.timeline with
    | Some tl -> tl
    | None -> Alcotest.fail "no timeline recorded"
  in
  let root_sum =
    List.fold_left
      (fun acc (sp : Event_sim.span) ->
        if String.contains sp.Event_sim.sp_track '.' then acc
        else acc +. (sp.Event_sim.sp_finish -. sp.Event_sim.sp_start))
      0.0 (Event_sim.spans tl)
  in
  let ev = r.Event_sim.report.Simulate.cycles in
  let rel a b = Float.abs (a -. b) /. Float.max a b in
  Alcotest.(check bool) "has root spans" true (root_sum > 0.0);
  Alcotest.(check bool) "root spans sum to the event cycle total" true
    (rel root_sum ev < 1e-9);
  Alcotest.(check bool) "makespan equals the report" true
    (rel tl.Event_sim.tl_makespan ev < 1e-9);
  let an = (Simulate.run d ~sizes).Simulate.cycles in
  Alcotest.(check bool) "event total within 2% of analytic" true
    (rel an ev < 0.02);
  Alcotest.(check int) "no fallbacks on gemm" 0 r.Event_sim.fallbacks

let test_timeline_byte_identical () =
  (* virtual-only capture: fully deterministic, byte for byte *)
  let a = capture_timeline () and b = capture_timeline () in
  Alcotest.(check bool) "nonempty" true (String.length a > 1000);
  Alcotest.(check bool) "byte-identical across runs" true (String.equal a b)

let test_stripped_determinism () =
  let a = capture_full ~domains:1 () in
  let b = capture_full ~domains:1 () in
  let c = capture_full ~domains:2 () in
  (* wall lines exist and are the only thing stripping removes *)
  Alcotest.(check bool) "wall section present" true
    (List.length (strip_wall a)
    < List.length (String.split_on_char '\n' a));
  Alcotest.(check (list string)) "stripped form stable across runs"
    (strip_wall a) (strip_wall b);
  Alcotest.(check (list string)) "stripped form stable across domain counts"
    (strip_wall a) (strip_wall c)

let test_warm_cache_timeline () =
  (* the event engine's recorded timeline (and hence `timeline`'s JSON)
     must not depend on whether a Simulate memo cache is cold or warm:
     memoized re-runs return exactly the unmemoized results, and the
     virtual-clock capture is bit-identical either way *)
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  let sizes = bench.Suite.sim_sizes in
  let capture () =
    Trace.clear ();
    Trace.enable ();
    let r = Event_sim.run ~record:true d ~sizes in
    Option.iter Sim_trace.record r.Event_sim.timeline;
    Trace.disable ();
    (Trace.to_json (), r.Event_sim.report.Simulate.cycles)
  in
  let cold_json, cold_cycles = capture () in
  (* warm a shared cache with two analytic passes over the same design *)
  let cache = Simulate.cache () in
  let r1 = Simulate.run ~cache d ~sizes in
  let r2 = Simulate.run ~cache d ~sizes in
  Alcotest.(check bool) "cached re-run returns identical report" true
    (r1 = r2);
  Alcotest.(check bool) "second run reused the annotation" true
    ((Simulate.cache_stats cache).Simulate.hits > 0);
  let warm_json, warm_cycles = capture () in
  Alcotest.(check bool) "cycle total identical warm vs cold" true
    (cold_cycles = warm_cycles);
  Alcotest.(check bool) "timeline byte-identical warm vs cold" true
    (String.equal cold_json warm_json)

let test_metrics_json () =
  Metrics.reset ();
  Metrics.incr ~by:3 "t.counter";
  Metrics.incr "t.counter";
  Metrics.set_gauge "t.gauge" 0.25;
  ignore (Metrics.time "t.timer" (fun () -> 42));
  let j = parse (Metrics.to_json ()) in
  Alcotest.(check (float 0.0)) "counter value" 4.0
    (num (field "t.counter" (field "counters" j)));
  Alcotest.(check (float 0.0)) "gauge value" 0.25
    (num (field "t.gauge" (field "gauges" j)));
  Alcotest.(check (float 0.0)) "timer count" 1.0
    (num (field "count" (field "t.timer" (field "timers" j))))

let test_metrics_diff () =
  (* the registry is process-global; the CLI reports per-invocation
     deltas against a snapshot taken at command entry *)
  Metrics.reset ();
  Metrics.incr ~by:2 "d.count";
  Metrics.incr ~by:7 "d.idle";
  Metrics.set_gauge "d.gauge" 1.0;
  let base = Metrics.snapshot () in
  Metrics.incr ~by:5 "d.count";
  Metrics.incr "d.fresh";
  Metrics.set_gauge "d.gauge" 3.5;
  ignore (Metrics.time "d.timer" (fun () -> ()));
  let delta = Metrics.diff ~base (Metrics.snapshot ()) in
  let get k = List.assoc_opt k delta in
  (match get "d.count" with
  | Some (Metrics.Counter 5) -> ()
  | _ -> Alcotest.fail "counter delta should be 5");
  (match get "d.fresh" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "fresh counter should pass through");
  (match get "d.gauge" with
  | Some (Metrics.Gauge 3.5) -> ()
  | _ -> Alcotest.fail "gauge should keep its current value");
  (match get "d.timer" with
  | Some (Metrics.Timer { count = 1; _ }) -> ()
  | _ -> Alcotest.fail "timer delta should count 1 call");
  Alcotest.(check bool) "untouched entries are dropped" true
    (get "d.idle" = None)

let test_pass_instrumentation () =
  (* compiling a benchmark populates the pass timers even with tracing
     off: the registry is always on *)
  Metrics.reset ();
  let bench = gemm () in
  ignore (Experiments.design_of Experiments.Tiled_meta bench);
  let snap = Metrics.snapshot () in
  let timer_count name =
    match List.assoc_opt name snap with
    | Some (Metrics.Timer { count; _ }) -> count
    | _ -> 0
  in
  List.iter
    (fun pass ->
      Alcotest.(check bool) (pass ^ " timed") true (timer_count pass >= 1))
    [ "pass.fusion"; "pass.strip-mine"; "pass.interchange"; "pass.cse";
      "pass.lower"; "pass.metapipe" ]

(* ------------------------ exact serialization ------------------------ *)

let capture_virtual f =
  Trace.clear ();
  Trace.enable ();
  f ();
  Trace.disable ();
  let json = Trace.to_json () in
  Trace.clear ();
  json

(* one JSON line per list element, newline-terminated *)
let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

let test_escaping () =
  let json =
    capture_virtual (fun () ->
        Trace.virtual_span ~cat:"c\"t" ~track:"tr\\ack\n" ~name:"n\"a\\m\ne\x01"
          ~start:1.0 ~finish:2.0
          ~args:[ ("k\"\x01", Trace.Str "v\\\n\x01\"") ]
          ())
  in
  Alcotest.(check string) "escaped names, args and tracks"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "tr\\ack\n"}},|};
         {|{"ph": "B", "name": "n\"a\\m\ne\u0001", "cat": "c\"t", "pid": 1, "tid": 1, "ts": 1, "args": {"k\"\u0001": "v\\\n\u0001\""}},|};
         {|{"ph": "E", "name": "n\"a\\m\ne\u0001", "cat": "c\"t", "pid": 1, "tid": 1, "ts": 2, "args": {}}|};
         {|]}|} ])
    json

let test_float_text () =
  let json =
    capture_virtual (fun () ->
        Trace.virtual_span ~track:"t" ~name:"a" ~start:(-0.0) ~finish:3.0
          ~args:
            [ ("negzero", Trace.Float (-0.0)); ("int", Trace.Float 42.0);
              ("negint", Trace.Float (-7.0)); ("below", Trace.Float 999999999999999.0);
              ("at", Trace.Float 1e15); ("negat", Trace.Float (-1e15));
              ("half", Trace.Float 0.5); ("neg", Trace.Float (-2.25));
              ("third", Trace.Float (1.0 /. 3.0)); ("big", Trace.Float 1e20);
              ("i", Trace.Int (-3)) ]
          ();
        Trace.virtual_span ~track:"t" ~name:"b" ~start:3.5 ~finish:1e15 ())
  in
  Alcotest.(check string) "canonical float text"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "t"}},|};
         {|{"ph": "B", "name": "a", "cat": "sim", "pid": 1, "tid": 1, "ts": -0, "args": {"negzero": -0, "int": 42, "negint": -7, "below": 999999999999999, "at": 1000000000000000.0000, "negat": -1000000000000000.0000, "half": 0.5000, "neg": -2.2500, "third": 0.3333, "big": 100000000000000000000.0000, "i": -3}},|};
         {|{"ph": "E", "name": "a", "cat": "sim", "pid": 1, "tid": 1, "ts": 3, "args": {}},|};
         {|{"ph": "B", "name": "b", "cat": "sim", "pid": 1, "tid": 1, "ts": 3.5000, "args": {}},|};
         {|{"ph": "E", "name": "b", "cat": "sim", "pid": 1, "tid": 1, "ts": 1000000000000000.0000, "args": {}}|};
         {|]}|} ])
    json

let test_track_order () =
  (* tracks get tids in name order; each track's events keep record order *)
  let json =
    capture_virtual (fun () ->
        List.iter
          (fun (track, name, start) ->
            Trace.virtual_span ~track ~name ~start ~finish:(start +. 1.0) ())
          [ ("z", "z1", 0.0); ("a", "a1", 5.0); ("z", "z2", 1.0);
            ("m", "m1", 2.0); ("a", "a2", 6.0) ])
  in
  Alcotest.(check string) "grouped by track, record order within"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "a"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "m"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 3, "ts": 0, "args": {"name": "z"}},|};
         {|{"ph": "B", "name": "a1", "cat": "sim", "pid": 1, "tid": 1, "ts": 5, "args": {}},|};
         {|{"ph": "E", "name": "a1", "cat": "sim", "pid": 1, "tid": 1, "ts": 6, "args": {}},|};
         {|{"ph": "B", "name": "a2", "cat": "sim", "pid": 1, "tid": 1, "ts": 6, "args": {}},|};
         {|{"ph": "E", "name": "a2", "cat": "sim", "pid": 1, "tid": 1, "ts": 7, "args": {}},|};
         {|{"ph": "B", "name": "m1", "cat": "sim", "pid": 1, "tid": 2, "ts": 2, "args": {}},|};
         {|{"ph": "E", "name": "m1", "cat": "sim", "pid": 1, "tid": 2, "ts": 3, "args": {}},|};
         {|{"ph": "B", "name": "z1", "cat": "sim", "pid": 1, "tid": 3, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "z1", "cat": "sim", "pid": 1, "tid": 3, "ts": 1, "args": {}},|};
         {|{"ph": "B", "name": "z2", "cat": "sim", "pid": 1, "tid": 3, "ts": 1, "args": {}},|};
         {|{"ph": "E", "name": "z2", "cat": "sim", "pid": 1, "tid": 3, "ts": 2, "args": {}}|};
         {|]}|} ])
    json

(* the per-track table [ppl-fpga timeline conv2d] prints on stderr:
   counts, fractional busy cycles, utilization and stall per virtual track *)
let test_summary () =
  let bench = Suite.find (Suite.extended ()) "conv2d" in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  Trace.clear ();
  Trace.enable ();
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  Trace.disable ();
  let summary = Trace.summary () in
  Trace.clear ();
  Alcotest.(check string) "virtual-track table"
    (lines
       [ "virtual timeline (makespan 596717.1250 cycles)";
         "  track                                     spans    busy cycles    util   stall cycles";
         "  DRAM                                         56    209509.1250   35.1%         387208";
         "  load_kernel_1                                 1       101.1250    0.0%              0";
         "  mf_loop_6                                     1         596616  100.0%              0";
         "  mf_loop_6.load_img_2                         64          91268   15.3%              0";
         "  mf_loop_6.pipe_4                             64         593344   99.4%              0";
         "  mf_loop_6.store_result_5                     64         137472   23.0%         448749" ])
    summary

(* the per-track gauges [Sim_trace.record] publishes for the same
   timeline, exact to the bit; they are set even when tracing is off *)
let test_track_gauges () =
  let bench = Suite.find (Suite.extended ()) "conv2d" in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  Trace.clear ();
  Metrics.reset ();
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  let gauges =
    List.filter_map
      (function
        | name, Metrics.Gauge v
          when name = "sim.makespan_cycles"
               || String.starts_with ~prefix:"sim.track." name ->
            Some (Printf.sprintf "%s %h" name v)
        | _ -> None)
      (Metrics.snapshot ())
  in
  Alcotest.(check bool) "nothing traced" true (Trace.summary () = "");
  Alcotest.(check string) "sim.* gauges"
    (lines
       [ "sim.makespan_cycles 0x1.235da4p+19";
         "sim.track.DRAM.busy_cycles 0x1.99329p+17";
         "sim.track.DRAM.spans 0x1.cp+5";
         "sim.track.DRAM.stall_cycles 0x1.7a22p+18";
         "sim.track.DRAM.util 0x1.6787861bad55ap-2";
         "sim.track.load_kernel_1.busy_cycles 0x1.948p+6";
         "sim.track.load_kernel_1.spans 0x1p+0";
         "sim.track.load_kernel_1.stall_cycles 0x0p+0";
         "sim.track.load_kernel_1.util 0x1.6366ed76955fbp-13";
         "sim.track.mf_loop_6.busy_cycles 0x1.2351p+19";
         "sim.track.mf_loop_6.load_img_2.busy_cycles 0x1.6484p+16";
         "sim.track.mf_loop_6.load_img_2.spans 0x1p+6";
         "sim.track.mf_loop_6.load_img_2.stall_cycles 0x0p+0";
         "sim.track.mf_loop_6.load_img_2.util 0x1.393df38756effp-3";
         "sim.track.mf_loop_6.pipe_4.busy_cycles 0x1.21b8p+19";
         "sim.track.mf_loop_6.pipe_4.spans 0x1p+6";
         "sim.track.mf_loop_6.pipe_4.stall_cycles 0x0p+0";
         "sim.track.mf_loop_6.pipe_4.util 0x1.fd1b135eac99ap-1";
         "sim.track.mf_loop_6.spans 0x1p+0";
         "sim.track.mf_loop_6.stall_cycles 0x0p+0";
         "sim.track.mf_loop_6.store_result_5.busy_cycles 0x1.0c8p+17";
         "sim.track.mf_loop_6.store_result_5.spans 0x1p+6";
         "sim.track.mf_loop_6.store_result_5.stall_cycles 0x1.b63b4p+18";
         "sim.track.mf_loop_6.store_result_5.util 0x1.d7d1bd9f026d5p-3";
         "sim.track.mf_loop_6.util 0x1.ffe9c9912896bp-1" ])
    (lines gauges)

(* wall clock values vary run to run: mask the number after [key] *)
let mask key line =
  let k = "\"" ^ key ^ "\": " in
  let nk = String.length k and n = String.length line in
  let rec find i =
    if i + nk > n then None
    else if String.sub line i nk = k then Some (i + nk)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
      let j = ref i in
      while !j < n && line.[!j] <> ',' do incr j done;
      String.sub line 0 i ^ "#" ^ String.sub line !j (n - !j)

let test_wall_event () =
  let json =
    capture_virtual (fun () ->
        Trace.with_span ~args:(fun () -> [ ("nodes", Trace.Int 7) ])
          "fusion" (fun () -> ()))
  in
  let masked =
    List.map (fun l -> mask "dur" (mask "ts" l)) (String.split_on_char '\n' json)
  in
  Alcotest.(check (list string)) "complete event with masked clock"
    [ {|{"displayTimeUnit": "ms",|};
      {|"traceEvents": [|};
      {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "compiler (wall clock, us)"}},|};
      {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "wall-d0"}},|};
      {|{"ph": "X", "name": "fusion", "cat": "pass", "pid": 0, "tid": 1, "ts": #, "dur": #, "args": {"nodes": 7}}|};
      {|]}|}; "" ]
    masked

(* ----------------------- the writer's line cache ---------------------- *)

(* a line's category, pid and tid are written from text built once per
   run of one category on one track: switching category mid-track and
   back must rebuild it each time *)
let test_category_switch () =
  let json =
    capture_virtual (fun () ->
        List.iter
          (fun (track, cat, name, start) ->
            Trace.virtual_span ~cat ~track ~name ~start ~finish:(start +. 1.0)
              ())
          [ ("t", "a", "s1", 0.0); ("u", "a", "u1", 0.0); ("t", "a", "s2", 1.0);
            ("t", "b\"", "s3", 2.0); ("t", "a", "s4", 3.0);
            ("u", "b\"", "u2", 1.0) ])
  in
  Alcotest.(check string) "category runs on one track"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "t"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "u"}},|};
         {|{"ph": "B", "name": "s1", "cat": "a", "pid": 1, "tid": 1, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "s1", "cat": "a", "pid": 1, "tid": 1, "ts": 1, "args": {}},|};
         {|{"ph": "B", "name": "s2", "cat": "a", "pid": 1, "tid": 1, "ts": 1, "args": {}},|};
         {|{"ph": "E", "name": "s2", "cat": "a", "pid": 1, "tid": 1, "ts": 2, "args": {}},|};
         {|{"ph": "B", "name": "s3", "cat": "b\"", "pid": 1, "tid": 1, "ts": 2, "args": {}},|};
         {|{"ph": "E", "name": "s3", "cat": "b\"", "pid": 1, "tid": 1, "ts": 3, "args": {}},|};
         {|{"ph": "B", "name": "s4", "cat": "a", "pid": 1, "tid": 1, "ts": 3, "args": {}},|};
         {|{"ph": "E", "name": "s4", "cat": "a", "pid": 1, "tid": 1, "ts": 4, "args": {}},|};
         {|{"ph": "B", "name": "u1", "cat": "a", "pid": 1, "tid": 2, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "u1", "cat": "a", "pid": 1, "tid": 2, "ts": 1, "args": {}},|};
         {|{"ph": "B", "name": "u2", "cat": "b\"", "pid": 1, "tid": 2, "ts": 1, "args": {}},|};
         {|{"ph": "E", "name": "u2", "cat": "b\"", "pid": 1, "tid": 2, "ts": 2, "args": {}}|};
         {|]}|} ])
    json

(* arg keys are escaped once per distinct key and reused; escaped keys,
   keys shared across spans and every value kind *)
let test_arg_keys () =
  let json =
    capture_virtual (fun () ->
        Trace.virtual_span ~track:"t" ~name:"a" ~start:0.0 ~finish:1.0
          ~args:
            [ ("iteration", Trace.Float 0.0); ("k\"q", Trace.Int 2);
              ("tab\tkey", Trace.Str "v") ]
          ();
        Trace.virtual_span ~track:"t" ~name:"b" ~start:1.0 ~finish:2.5
          ~args:[ ("iteration", Trace.Float 1.0); ("k\"q", Trace.Float 0.5) ]
          ();
        Trace.virtual_span ~track:"d" ~name:"c" ~start:0.0 ~finish:2.0
          ~args:[ ("iteration", Trace.Str "x\\y"); ("\x01", Trace.Int (-1)) ]
          ())
  in
  Alcotest.(check string) "arg keys"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "d"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "t"}},|};
         {|{"ph": "B", "name": "c", "cat": "sim", "pid": 1, "tid": 1, "ts": 0, "args": {"iteration": "x\\y", "\u0001": -1}},|};
         {|{"ph": "E", "name": "c", "cat": "sim", "pid": 1, "tid": 1, "ts": 2, "args": {}},|};
         {|{"ph": "B", "name": "a", "cat": "sim", "pid": 1, "tid": 2, "ts": 0, "args": {"iteration": 0, "k\"q": 2, "tab\tkey": "v"}},|};
         {|{"ph": "E", "name": "a", "cat": "sim", "pid": 1, "tid": 2, "ts": 1, "args": {}},|};
         {|{"ph": "B", "name": "b", "cat": "sim", "pid": 1, "tid": 2, "ts": 1, "args": {"iteration": 1, "k\"q": 0.5000}},|};
         {|{"ph": "E", "name": "b", "cat": "sim", "pid": 1, "tid": 2, "ts": 2.5000, "args": {}}|};
         {|]}|} ])
    json

(* a wall domain's track name, [wall-d<id>]: the main domain's is
   [wall-d0]; any other id depends on how many domains ran before *)
let mask_domain line =
  let k = "wall-d" in
  let nk = String.length k and n = String.length line in
  let rec find i =
    if i + nk > n then line
    else if String.sub line i nk = k then begin
      let j = ref (i + nk) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      if String.sub line (i + nk) (!j - i - nk) = "0" then line
      else String.sub line 0 (i + nk) ^ "#" ^ String.sub line !j (n - !j)
    end
    else find (i + 1)
  in
  find 0

(* wall complete events on two domains' tracks, recorded between virtual
   spans; wall clock values and the second domain's id are masked *)
let test_wall_tracks () =
  let wall name =
    Trace.with_span
      ~args:(fun () -> [ ("nodes", Trace.Int 3); ("k\"", Trace.Str name) ])
      name
      (fun () -> ())
  in
  let json =
    capture_virtual (fun () ->
        wall "fusion";
        Trace.virtual_span ~track:"t" ~name:"v1" ~start:0.0 ~finish:4.0 ();
        Domain.join (Domain.spawn (fun () -> wall "lower"));
        Trace.virtual_span ~track:"t" ~name:"v2" ~start:4.0 ~finish:5.0 ();
        wall "cse")
  in
  let masked =
    List.map
      (fun l ->
        if contains_sub l "\"pid\": 0" then
          mask_domain (mask "dur" (mask "ts" l))
        else l)
      (String.split_on_char '\n' json)
  in
  Alcotest.(check string) "wall tracks mixed with virtual spans"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "t"}},|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "compiler (wall clock, us)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "wall-d0"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 0, "tid": 2, "ts": #, "args": {"name": "wall-d#"}},|};
         {|{"ph": "B", "name": "v1", "cat": "sim", "pid": 1, "tid": 1, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "v1", "cat": "sim", "pid": 1, "tid": 1, "ts": 4, "args": {}},|};
         {|{"ph": "B", "name": "v2", "cat": "sim", "pid": 1, "tid": 1, "ts": 4, "args": {}},|};
         {|{"ph": "E", "name": "v2", "cat": "sim", "pid": 1, "tid": 1, "ts": 5, "args": {}},|};
         {|{"ph": "X", "name": "fusion", "cat": "pass", "pid": 0, "tid": 1, "ts": #, "dur": #, "args": {"nodes": 3, "k\"": "fusion"}},|};
         {|{"ph": "X", "name": "cse", "cat": "pass", "pid": 0, "tid": 1, "ts": #, "dur": #, "args": {"nodes": 3, "k\"": "cse"}},|};
         {|{"ph": "X", "name": "lower", "cat": "pass", "pid": 0, "tid": 2, "ts": #, "dur": #, "args": {"nodes": 3, "k\"": "lower"}}|};
         {|]}|} ])
    (String.concat "\n" masked)

(* --------------------- record order across producers ------------------ *)

(* a top-level tile load, then three iterations of a metapipelined load
   and pipe: tracks [pre], [L], [L.ld], [L.p] and DRAM *)
let tiny_timeline () =
  let load name =
    Hw.Tile_load
      { name; mem = "buf"; array = "x"; words = Hw.Tconst 80.0; path = [];
        reuse = 1; prov = Prov.none }
  in
  let pipe =
    Hw.Pipe
      { name = "p"; trips = [ Hw.Tconst 20.0 ]; template = Hw.Vector; par = 1;
        depth = 10; ii = 1;
        ops =
          { Hw.flops = 1; int_ops = 0; cmp_ops = 0; mem_reads = 1; mem_writes = 1 };
        body = None; dram = []; uses = []; defines = []; prov = Prov.none }
  in
  let top =
    Hw.Seq
      { name = "top";
        children =
          [ load "pre";
            Hw.Loop
              { name = "L"; trips = [ Hw.Tconst 3.0 ]; meta = true;
                stages = [ load "ld"; pipe ]; prov = Prov.none } ];
        prov = Prov.none }
  in
  let d = { Hw.design_name = "tiny"; mems = []; top; par_factor = 1 } in
  match (Event_sim.run ~record:true d ~sizes:[]).Event_sim.timeline with
  | Some tl -> tl
  | None -> Alcotest.fail "no timeline recorded"

(* generic spans on tracks a recorded run also uses, recorded before and
   after the run, between wall spans: each track keeps record order
   across the two producers.  The pinned text was taken before runs were
   recorded as columns. *)
let test_producers_order () =
  let tl = tiny_timeline () in
  let wall name = Trace.with_span name (fun () -> ()) in
  let json =
    capture_virtual (fun () ->
        wall "before";
        Trace.virtual_span ~cat:"gen" ~track:"L.p" ~name:"early" ~start:(-4.0)
          ~finish:(-1.0) ~args:[ ("k", Trace.Int 1) ] ();
        Trace.virtual_span ~track:"DRAM" ~name:"warm" ~start:(-2.0) ~finish:(-0.5) ();
        Sim_trace.record tl;
        Trace.virtual_span ~cat:"gen" ~track:"L.p" ~name:"late"
          ~start:tl.Event_sim.tl_makespan ~finish:(tl.Event_sim.tl_makespan +. 1.5) ();
        Trace.virtual_span ~track:"A" ~name:"first" ~start:0.0 ~finish:1.0 ();
        wall "after")
  in
  let masked =
    List.map
      (fun l -> if contains_sub l "\"pid\": 0" then mask "dur" (mask "ts" l) else l)
      (String.split_on_char '\n' json)
  in
  Alcotest.(check string) "record order per track, across producers"
    (lines
       [ {|{"displayTimeUnit": "ms",|};
         {|"traceEvents": [|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "A"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 2, "ts": 0, "args": {"name": "DRAM"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 3, "ts": 0, "args": {"name": "L"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 4, "ts": 0, "args": {"name": "L.ld"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 5, "ts": 0, "args": {"name": "L.p"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 6, "ts": 0, "args": {"name": "pre"}},|};
         {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "compiler (wall clock, us)"}},|};
         {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 0, "tid": 1, "ts": #, "args": {"name": "wall-d0"}},|};
         {|{"ph": "B", "name": "first", "cat": "sim", "pid": 1, "tid": 1, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "first", "cat": "sim", "pid": 1, "tid": 1, "ts": 1, "args": {}},|};
         {|{"ph": "B", "name": "warm", "cat": "sim", "pid": 1, "tid": 2, "ts": -2, "args": {}},|};
         {|{"ph": "E", "name": "warm", "cat": "sim", "pid": 1, "tid": 2, "ts": -0.5000, "args": {}},|};
         {|{"ph": "B", "name": "busy", "cat": "sim", "pid": 1, "tid": 2, "ts": 0, "args": {}},|};
         {|{"ph": "E", "name": "busy", "cat": "sim", "pid": 1, "tid": 2, "ts": 440, "args": {}},|};
         {|{"ph": "B", "name": "L", "cat": "sim", "pid": 1, "tid": 3, "ts": 110, "args": {"top-level": 1}},|};
         {|{"ph": "E", "name": "L", "cat": "sim", "pid": 1, "tid": 3, "ts": 470, "args": {}},|};
         {|{"ph": "B", "name": "ld#1", "cat": "sim", "pid": 1, "tid": 4, "ts": 110, "args": {"iteration": 1}},|};
         {|{"ph": "E", "name": "ld#1", "cat": "sim", "pid": 1, "tid": 4, "ts": 220, "args": {}},|};
         {|{"ph": "B", "name": "ld#2", "cat": "sim", "pid": 1, "tid": 4, "ts": 220, "args": {"iteration": 2}},|};
         {|{"ph": "E", "name": "ld#2", "cat": "sim", "pid": 1, "tid": 4, "ts": 330, "args": {}},|};
         {|{"ph": "B", "name": "ld#3", "cat": "sim", "pid": 1, "tid": 4, "ts": 330, "args": {"iteration": 3}},|};
         {|{"ph": "E", "name": "ld#3", "cat": "sim", "pid": 1, "tid": 4, "ts": 440, "args": {}},|};
         {|{"ph": "B", "name": "early", "cat": "gen", "pid": 1, "tid": 5, "ts": -4, "args": {"k": 1}},|};
         {|{"ph": "E", "name": "early", "cat": "gen", "pid": 1, "tid": 5, "ts": -1, "args": {}},|};
         {|{"ph": "B", "name": "p#1", "cat": "sim", "pid": 1, "tid": 5, "ts": 220, "args": {"iteration": 1}},|};
         {|{"ph": "E", "name": "p#1", "cat": "sim", "pid": 1, "tid": 5, "ts": 250, "args": {}},|};
         {|{"ph": "B", "name": "p#2", "cat": "sim", "pid": 1, "tid": 5, "ts": 330, "args": {"iteration": 2}},|};
         {|{"ph": "E", "name": "p#2", "cat": "sim", "pid": 1, "tid": 5, "ts": 360, "args": {}},|};
         {|{"ph": "B", "name": "p#3", "cat": "sim", "pid": 1, "tid": 5, "ts": 440, "args": {"iteration": 3}},|};
         {|{"ph": "E", "name": "p#3", "cat": "sim", "pid": 1, "tid": 5, "ts": 470, "args": {}},|};
         {|{"ph": "B", "name": "late", "cat": "gen", "pid": 1, "tid": 5, "ts": 470, "args": {}},|};
         {|{"ph": "E", "name": "late", "cat": "gen", "pid": 1, "tid": 5, "ts": 471.5000, "args": {}},|};
         {|{"ph": "B", "name": "pre", "cat": "sim", "pid": 1, "tid": 6, "ts": 0, "args": {"top-level": 1}},|};
         {|{"ph": "E", "name": "pre", "cat": "sim", "pid": 1, "tid": 6, "ts": 110, "args": {}},|};
         {|{"ph": "X", "name": "before", "cat": "pass", "pid": 0, "tid": 1, "ts": #, "dur": #, "args": {}},|};
         {|{"ph": "X", "name": "after", "cat": "pass", "pid": 0, "tid": 1, "ts": #, "dur": #, "args": {}}|};
         {|]}|} ])
    (String.concat "\n" masked)

(* ------------------------------ summary ------------------------------ *)

(* [Trace.summary] of what [f] records *)
let summary_of f =
  Trace.clear ();
  Trace.enable ();
  f ();
  Trace.disable ();
  let s = Trace.summary () in
  Trace.clear ();
  s

(* the wall-clock section's rows, each with its total masked, and the
   totals in row order; the total is the column before [" ms"] *)
let wall_rows summary =
  let rec rows = function
    | [] -> []
    | "wall-clock spans (total ms, by name)" :: rest ->
        List.filter (fun r -> r <> "") rest
    | _ :: rest -> rows rest
  in
  List.map
    (fun r ->
      match List.rev (List.filter (( <> ) "") (String.split_on_char ' ' r)) with
      | "ms" :: ms :: _ ->
          (* the row up to its count: drop [" ms"], the total and its
             padding *)
          let cut = ref (String.length r - String.length ms - 3) in
          while !cut > 0 && r.[!cut - 1] = ' ' do decr cut done;
          (String.sub r 0 !cut ^ " # ms", float_of_string ms)
      | _ -> Alcotest.failf "wall row %S" r)
    (rows (String.split_on_char '\n' summary))

let check_descending what totals =
  ignore
    (List.fold_left
       (fun prev t ->
         if t > prev then Alcotest.failf "%s: totals not descending" what;
         t)
       infinity totals)

(* wall spans are counted by name and listed by total time, largest
   first: the names and counts are exact, the times masked *)
let test_summary_wall () =
  let span name = Trace.with_span name (fun () -> ()) in
  let summary =
    summary_of (fun () ->
        List.iter span [ "fusion"; "cse"; "fusion"; "lower"; "fusion"; "cse" ])
  in
  Alcotest.(check bool) "only the wall section" true
    (String.starts_with ~prefix:"wall-clock spans (total ms, by name)\n" summary);
  let rows = wall_rows summary in
  check_descending "rows" (List.map snd rows);
  Alcotest.(check (list string)) "names and counts"
    [ "  cse                                           2 # ms";
      "  fusion                                        3 # ms";
      "  lower                                         1 # ms" ]
    (List.sort String.compare (List.map fst rows))

(* past 12 names only the 12 largest totals are listed, each name once
   with its own count *)
let test_summary_wall_cap () =
  let names = List.init 14 (fun k -> (Printf.sprintf "pass%02d" k, 1 + (k mod 3))) in
  let summary =
    summary_of (fun () ->
        List.iter
          (fun (name, n) ->
            for _ = 1 to n do
              Trace.with_span name (fun () -> ())
            done)
          names)
  in
  let rows = wall_rows summary in
  Alcotest.(check int) "rows" 12 (List.length rows);
  check_descending "rows" (List.map snd rows);
  let shown =
    List.map
      (fun (r, _) ->
        match List.filter (( <> ) "") (String.split_on_char ' ' r) with
        | [ name; count; "#"; "ms" ] -> (name, int_of_string count)
        | _ -> Alcotest.failf "wall row %S" r)
      rows
  in
  Alcotest.(check int) "each name once" 12
    (List.length (List.sort_uniq compare (List.map fst shown)));
  List.iter
    (fun (name, count) ->
      Alcotest.(check (option int)) (name ^ " count") (Some count)
        (List.assoc_opt name names))
    shown

(* the virtual table of [test_producers_order]'s trace: generic spans
   on tracks a recorded run also uses are counted with the run's spans,
   in record order *)
let test_summary_producers () =
  let tl = tiny_timeline () in
  let wall name = Trace.with_span name (fun () -> ()) in
  let summary =
    summary_of (fun () ->
        wall "before";
        Trace.virtual_span ~cat:"gen" ~track:"L.p" ~name:"early" ~start:(-4.0)
          ~finish:(-1.0) ~args:[ ("k", Trace.Int 1) ] ();
        Trace.virtual_span ~track:"DRAM" ~name:"warm" ~start:(-2.0) ~finish:(-0.5) ();
        Sim_trace.record tl;
        Trace.virtual_span ~cat:"gen" ~track:"L.p" ~name:"late"
          ~start:tl.Event_sim.tl_makespan ~finish:(tl.Event_sim.tl_makespan +. 1.5) ();
        Trace.virtual_span ~track:"A" ~name:"first" ~start:0.0 ~finish:1.0 ();
        wall "after")
  in
  let rec virtual_part = function
    | [] | "wall-clock spans (total ms, by name)" :: _ -> []
    | l :: rest -> l :: virtual_part rest
  in
  Alcotest.(check (list string)) "virtual table"
    [ "virtual timeline (makespan 471.5000 cycles)";
      "  track                                     spans    busy cycles    util   stall cycles";
      "  A                                             1              1    0.2%              0";
      "  DRAM                                          2       441.5000   93.6%         0.5000";
      "  L                                             1            360   76.4%              0";
      "  L.ld                                          3            330   70.0%              0";
      "  L.p                                           5        94.5000   20.0%            381";
      "  pre                                           1            110   23.3%              0" ]
    (virtual_part (String.split_on_char '\n' summary));
  Alcotest.(check (list string)) "wall rows"
    [ "  after                                         1 # ms";
      "  before                                        1 # ms" ]
    (List.sort String.compare (List.map fst (wall_rows summary)))

(* --------------------------- buffer reuse --------------------------- *)

let two_spans () =
  capture_virtual (fun () ->
      Trace.virtual_span ~track:"x" ~name:"p" ~start:0.0 ~finish:2.0
        ~args:[ ("iteration", Trace.Float 0.0) ] ();
      Trace.virtual_span ~track:"x" ~name:"q" ~start:2.0 ~finish:3.0 ())

let two_spans_text =
  lines
    [ {|{"displayTimeUnit": "ms",|};
      {|"traceEvents": [|};
      {|{"ph": "M", "name": "process_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "simulator (virtual cycles)"}},|};
      {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": 1, "ts": 0, "args": {"name": "x"}},|};
      {|{"ph": "B", "name": "p", "cat": "sim", "pid": 1, "tid": 1, "ts": 0, "args": {"iteration": 0}},|};
      {|{"ph": "E", "name": "p", "cat": "sim", "pid": 1, "tid": 1, "ts": 2, "args": {}},|};
      {|{"ph": "B", "name": "q", "cat": "sim", "pid": 1, "tid": 1, "ts": 2, "args": {}},|};
      {|{"ph": "E", "name": "q", "cat": "sim", "pid": 1, "tid": 1, "ts": 3, "args": {}}|};
      {|]}|} ]

(* [timeline gemm]'s trace, as taken before the writer kept its buffer *)
let gemm_timeline_digest = "62a1f9ff3458a8f9956ef30726e8f508"

(* the writer's buffer outlives a call: a small trace written after a
   large one has no stale tail, and neither result changes when the
   buffer is refilled *)
let test_buffer_reuse () =
  let big = capture_timeline () in
  let big_digest = Digest.to_hex (Digest.string big) in
  Alcotest.(check string) "large trace" gemm_timeline_digest big_digest;
  let small = two_spans () in
  Alcotest.(check string) "small after large" two_spans_text small;
  Alcotest.(check string) "large result kept" big_digest
    (Digest.to_hex (Digest.string big));
  let small' = two_spans () in
  let big' = capture_timeline () in
  Alcotest.(check string) "large after small" big_digest
    (Digest.to_hex (Digest.string big'));
  Alcotest.(check string) "small result kept" two_spans_text small';
  Alcotest.(check string) "first small result kept" two_spans_text small

(* concurrent calls share the one buffer under the collector's lock: every
   domain's result equals the sequential one *)
let test_concurrent_to_json () =
  let bench = gemm () in
  let d = Experiments.design_of Experiments.Tiled_meta bench in
  Trace.clear ();
  Trace.enable ();
  let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
  Option.iter Sim_trace.record r.Event_sim.timeline;
  Trace.disable ();
  let expected = Trace.to_json () in
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () -> List.init 3 (fun _ -> Trace.to_json ())))
  in
  let here = List.init 3 (fun _ -> Trace.to_json ()) in
  let results = here @ List.concat_map Domain.join domains in
  Trace.clear ();
  Alcotest.(check int) "results" 12 (List.length results);
  List.iter
    (fun j -> Alcotest.(check bool) "equals sequential" true (String.equal expected j))
    results

(* ------------------ columns against the per-span path ----------------- *)

let sim_gauge name =
  name = "sim.makespan_cycles" || String.starts_with ~prefix:"sim.track." name

(* the [sim.*] gauges in the registry, by name, in exact [%h] form *)
let sim_gauges () =
  List.filter_map
    (function
      | name, Metrics.Gauge v when sim_gauge name -> Some (Printf.sprintf "%s %h" name v)
      | _ -> None)
    (Metrics.snapshot ())
  |> List.sort String.compare

(* The oracle: a timeline recorded one span at a time, as
   [Sim_trace.record] did before the engine kept columns.  Every span of
   [Event_sim.spans] goes through [Trace.virtual_span] and then every DRAM
   busy interval; each is counted as it is recorded, and the gauges are
   those counts, by name. *)
let replay (tl : Event_sim.timeline) =
  let occ = Trace.tracks () in
  let span ~track ~name ~start ~finish args =
    Trace.virtual_span ~cat:"sim" ~track ~name ~start ~finish ~args ();
    Trace.add_track_span occ ~track ~start ~finish
  in
  List.iter
    (fun (sp : Event_sim.span) ->
      span ~track:sp.Event_sim.sp_track ~name:sp.Event_sim.sp_name
        ~start:sp.Event_sim.sp_start ~finish:sp.Event_sim.sp_finish
        (List.map (fun (k, v) -> (k, Trace.Float v)) sp.Event_sim.sp_args))
    (Event_sim.spans tl);
  List.iter
    (fun (start, finish) -> span ~track:"DRAM" ~name:"busy" ~start ~finish [])
    (Event_sim.tl_dram_busy tl);
  let makespan = tl.Event_sim.tl_makespan in
  let gauges = ref [ Printf.sprintf "sim.makespan_cycles %h" makespan ] in
  Trace.iter_tracks occ ~makespan (fun track ~spans ~busy ~util ~stall ->
      let g field v = gauges := Printf.sprintf "sim.track.%s.%s %h" track field v :: !gauges in
      g "spans" (float_of_int spans);
      g "busy_cycles" busy;
      g "util" util;
      g "stall_cycles" stall);
  List.sort String.compare !gauges

(* what the trace holds after [f]: its JSON and its summary *)
let traced f =
  Trace.clear ();
  Trace.enable ();
  let v = f () in
  Trace.disable ();
  let json = Trace.to_json () and summary = Trace.summary () in
  Trace.clear ();
  (json, summary, v)

(* The virtual tracks' names in tid order, from the thread_name lines.
   Both producers share the writer's tid rule, so the replay alone cannot
   see it change; the names must ascend. *)
let virtual_track_names json =
  let prefix = {|{"ph": "M", "name": "thread_name", "cat": "meta", "pid": 1, "tid": |} in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix l then
        match String.split_on_char '"' l with
        | parts -> Some (List.nth parts (List.length parts - 2))
      else None)
    (String.split_on_char '\n' json)

(* Every extended bench under every config at ½, 1 and 2 times its
   simulation sizes: the columns written by [Sim_trace.record] give the
   JSON, the summary and every [sim.*] gauge the per-span replay of the
   same timeline gives, byte for byte and bit for bit, and the tracks
   take tids in name order. *)
let test_columns_equal_replay () =
  let configs = [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ] in
  let scale k sizes =
    List.map (fun (s, v) -> (s, Int.max 1 (int_of_float (float_of_int v *. k)))) sizes
  in
  let checked = ref 0 in
  List.iter
    (fun (b : Suite.bench) ->
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          List.iter
            (fun k ->
              let what =
                Printf.sprintf "%s %s x%g" b.Suite.name (Experiments.config_name cfg) k
              in
              let r = Event_sim.run ~record:true d ~sizes:(scale k b.Suite.sim_sizes) in
              let tl =
                match r.Event_sim.timeline with
                | Some tl -> tl
                | None -> Alcotest.fail (what ^ ": no timeline")
              in
              Metrics.reset ();
              let json, summary, () = traced (fun () -> Sim_trace.record tl) in
              let gauges = sim_gauges () in
              let json', summary', gauges' = traced (fun () -> replay tl) in
              Alcotest.(check bool) (what ^ ": JSON") true (String.equal json' json);
              Alcotest.(check string) (what ^ ": summary") summary' summary;
              Alcotest.(check (list string)) (what ^ ": gauges") gauges' gauges;
              let names = virtual_track_names json in
              Alcotest.(check (list string)) (what ^ ": tids in name order")
                (List.sort String.compare names) names;
              incr checked)
            [ 0.5; 1.0; 2.0 ])
        configs)
    (Suite.extended ());
  Alcotest.(check int) "runs compared" 108 !checked

(* ------------------ the writer against a reference ------------------ *)

(* A test-only writer for virtual blocks, one line per span, from Printf
   alone: its own escaping, instances by [%d], floats by the [%.0f] /
   [%.4f] rule Json_out's tests pin against Printf.  It shares no code
   with [Trace]'s writer. *)
let ref_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | '\t' -> Buffer.add_string b {|\t|}
      | '\r' -> Buffer.add_string b {|\r|}
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ref_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4f" f

let ref_arg (k, v) =
  Printf.sprintf "\"%s\": %s" (ref_escape k)
    (match v with
    | Trace.Int n -> Printf.sprintf "%d" n
    | Trace.Float f -> ref_float f
    | Trace.Str s -> Printf.sprintf "\"%s\"" (ref_escape s))

(* The JSON of [blocks], each recorded by [Trace.virtual_run ?args], in
   record order: tracks take tids in name order, and a track's spans
   come block by block, in index order within a block. *)
let reference (blocks : (Trace.columns * (string * Trace.arg) list option) list) =
  (* each track's B/E line pairs, newest first, with the tid left open *)
  let tracks = Hashtbl.create 16 in
  List.iter
    (fun ((c : Trace.columns), args) ->
      for i = 0 to c.Trace.len - 1 do
        let t = c.Trace.tracks.(c.Trace.track_id.(i)) and n = c.Trace.instance.(i) in
        let name =
          ref_escape t.Trace.label ^ if t.Trace.numbered then Printf.sprintf "%d" n else ""
        in
        let line ph ts args tid =
          String.concat ""
            [ {|{"ph": "|}; ph; {|", "name": "|}; name; {|", "cat": "sim", "pid": 1, "tid": |};
              Printf.sprintf "%d" tid; {|, "ts": |}; ref_float ts; {|, "args": {|}; args; "}}" ]
        in
        let b_args =
          match args with
          | None -> ref_arg (t.Trace.key, Trace.Int n)
          | Some args -> String.concat ", " (List.map ref_arg args)
        in
        let pair tid =
          line "B" c.Trace.start.(i) b_args tid ^ ",\n" ^ line "E" c.Trace.finish.(i) "" tid
        in
        let pairs = Option.value (Hashtbl.find_opt tracks t.Trace.track) ~default:[] in
        Hashtbl.replace tracks t.Trace.track (pair :: pairs)
      done)
    blocks;
  let names = List.sort String.compare (List.of_seq (Hashtbl.to_seq_keys tracks)) in
  let meta name tid label =
    Printf.sprintf
      {|{"ph": "M", "name": "%s", "cat": "meta", "pid": 1, "tid": %d, "ts": 0, "args": {"name": "%s"}}|}
      name tid (ref_escape label)
  in
  let lines =
    if names = [] then []
    else
      meta "process_name" 1 "simulator (virtual cycles)"
      :: List.mapi (fun i name -> meta "thread_name" (i + 1) name) names
      @ List.concat
          (List.mapi
             (fun i name -> List.rev_map (fun pair -> pair (i + 1)) (Hashtbl.find tracks name))
             names)
  in
  "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n" ^ String.concat ",\n" lines ^ "\n]}\n"

(* [Trace.output] into a temporary file *)
let output_text () =
  let file = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file Trace.output;
      In_channel.with_open_bin file In_channel.input_all)

(* [blocks] recorded alone: [to_json] equals the reference, and
   [output] equals [to_json] *)
let check_writer what blocks =
  Trace.clear ();
  Trace.enable ();
  List.iter (fun (c, args) -> Trace.virtual_run ?args c) blocks;
  Trace.disable ();
  let json = Trace.to_json () and written = output_text () in
  Trace.clear ();
  Alcotest.(check string) (what ^ ": to_json = reference") (reference blocks) json;
  Alcotest.(check bool) (what ^ ": output = to_json") true (String.equal json written)

(* a block of [len] spans over [tracks], span [i] on [track_id i] *)
let columns tracks ~track_id ~start ~finish ~instance len =
  { Trace.tracks; len; track_id = Array.init len track_id; start = Array.init len start;
    finish = Array.init len finish; instance = Array.init len instance }

let run_track ?(numbered = true) ?(key = "iteration") ?label track =
  { Trace.track; label = Option.value label ~default:track; numbered; key }

(* every extended bench under every config at its simulation sizes *)
let test_writer_suite () =
  let checked = ref 0 in
  List.iter
    (fun (b : Suite.bench) ->
      List.iter
        (fun cfg ->
          let d = Experiments.design_of cfg b in
          let r = Event_sim.run ~record:true d ~sizes:b.Suite.sim_sizes in
          match r.Event_sim.timeline with
          | None -> Alcotest.fail (b.Suite.name ^ ": no timeline")
          | Some tl ->
              (* the blocks [Sim_trace.record] records *)
              check_writer
                (Printf.sprintf "%s %s" b.Suite.name (Experiments.config_name cfg))
                [ (tl.Event_sim.tl_columns, None); (tl.Event_sim.tl_dram, Some []) ];
              incr checked)
        [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ])
    (Suite.extended ());
  Alcotest.(check int) "designs" 36 !checked

(* instance digits at every width boundary, in names and as the arg *)
let test_writer_instances () =
  let inst = [| 0; 9; 10; 99; 100; 9999; 10000; max_int |] in
  let n = Array.length inst in
  check_writer "instances"
    [ ( columns
          [| run_track "a"; run_track ~numbered:false ~key:"k" "b" |]
          ~track_id:(fun i -> i land 1)
          ~start:float_of_int ~finish:(fun i -> float_of_int (i + 1))
          ~instance:(fun i -> inst.(i)) n,
        None ) ]

(* timestamps on the plain-digit path's edges and on C's fallback *)
let test_writer_timestamps () =
  let ts =
    [| -0.0; 0.0; -1.0; -12345.0; 0.99995; 0.99994; -0.99995; 2.5; 1e15 -. 1.0; 1e15;
       -1e15; 1e20; Float.nan; Float.infinity; Float.neg_infinity; 1.0 /. 3.0 |]
  in
  let n = Array.length ts in
  check_writer "timestamps"
    [ ( columns [| run_track "t" |] ~track_id:(fun _ -> 0) ~start:(fun i -> ts.(i))
          ~finish:(fun i -> ts.(n - 1 - i)) ~instance:Fun.id n,
        None );
      ( columns [| run_track ~numbered:false "u" |] ~track_id:(fun _ -> 0)
          ~start:(fun i -> ts.(i)) ~finish:(fun i -> ts.(i)) ~instance:Fun.id n,
        Some
          [ ("f", Trace.Float ts.(3)); ("nan", Trace.Float Float.nan);
            ("carry", Trace.Float 0.99995); ("min", Trace.Int min_int);
            ("neg", Trace.Int (-7)); ("s", Trace.Str "x") ] ) ]

(* labels, track names, keys and string args holding quotes, backslashes
   and control bytes *)
let test_writer_escapes () =
  let odd = "q\"b\\n\n\t\r\x00\x01\x1f\x7f\xc3\xa9" in
  check_writer "escapes"
    [ ( columns
          [| run_track ~label:odd ~key:odd ("t" ^ odd); run_track ~numbered:false ~key:"k\"" odd |]
          ~track_id:(fun i -> i mod 2)
          ~start:float_of_int ~finish:(fun i -> float_of_int i +. 0.5) ~instance:Fun.id 4,
        None );
      ( columns [| run_track ~label:odd odd |] ~track_id:(fun _ -> 0)
          ~start:(fun _ -> 10.0) ~finish:(fun _ -> 11.0) ~instance:Fun.id 1,
        Some [ (odd, Trace.Str odd); ("\\", Trace.Str "\"") ] ) ]

(* text longer than the writer's 64 KiB chunk: many spans, and one label
   whose escaped text alone spans more than two chunks *)
let test_writer_long () =
  check_writer "many spans"
    [ ( columns
          (Array.init 7 (fun k -> run_track (Printf.sprintf "track%d" k)))
          ~track_id:(fun i -> i mod 7)
          ~start:(fun i -> float_of_int i *. 1.5) ~finish:(fun i -> float_of_int (i + 1) *. 1.5)
          ~instance:(fun i -> i * 37) 6000,
        None ) ];
  let huge = String.init 150_000 (fun i -> if i mod 3 = 0 then '"' else Char.chr (97 + (i mod 26))) in
  check_writer "a label longer than the chunk"
    [ ( columns
          [| run_track ~label:huge "h"; run_track "small" |]
          ~track_id:(fun i -> i mod 2)
          ~start:float_of_int ~finish:(fun i -> float_of_int (i + 1)) ~instance:Fun.id 3,
        None ) ]

let () =
  Alcotest.run "trace"
    [ ( "json",
        [ Alcotest.test_case "trace parses" `Quick test_json_parses;
          Alcotest.test_case "metrics parse" `Quick test_metrics_json ] );
      ( "serialization",
        [ Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "float text" `Quick test_float_text;
          Alcotest.test_case "track order" `Quick test_track_order;
          Alcotest.test_case "wall event" `Quick test_wall_event;
          Alcotest.test_case "summary table" `Quick test_summary;
          Alcotest.test_case "track gauges" `Quick test_track_gauges;
          Alcotest.test_case "category switch" `Quick test_category_switch;
          Alcotest.test_case "arg keys" `Quick test_arg_keys;
          Alcotest.test_case "wall tracks" `Quick test_wall_tracks;
          Alcotest.test_case "producers share record order" `Quick
            test_producers_order;
          Alcotest.test_case "summary wall section" `Quick test_summary_wall;
          Alcotest.test_case "summary wall row cap" `Quick test_summary_wall_cap;
          Alcotest.test_case "summary across producers" `Quick
            test_summary_producers;
          Alcotest.test_case "buffer reuse" `Quick test_buffer_reuse;
          Alcotest.test_case "concurrent calls" `Quick
            test_concurrent_to_json ] );
      ( "writer oracle",
        [ Alcotest.test_case "suite designs" `Quick test_writer_suite;
          Alcotest.test_case "instance widths" `Quick test_writer_instances;
          Alcotest.test_case "timestamp edges" `Quick test_writer_timestamps;
          Alcotest.test_case "escapes" `Quick test_writer_escapes;
          Alcotest.test_case "longer than the chunk" `Quick test_writer_long ] );
      ( "spans",
        [ Alcotest.test_case "B/E balance per track" `Quick test_be_balance;
          Alcotest.test_case "virtual timestamps" `Quick
            test_virtual_timestamps;
          Alcotest.test_case "root spans reproduce the report" `Quick
            test_root_spans_sum_to_report;
          Alcotest.test_case "columns equal the per-span replay" `Quick
            test_columns_equal_replay ] );
      ( "determinism",
        [ Alcotest.test_case "timeline byte-identical" `Quick
            test_timeline_byte_identical;
          Alcotest.test_case "timeline unaffected by warm sim cache" `Quick
            test_warm_cache_timeline;
          Alcotest.test_case "stripped trace stable" `Quick
            test_stripped_determinism ] );
      ( "metrics",
        [ Alcotest.test_case "pass timers recorded" `Quick
            test_pass_instrumentation;
          Alcotest.test_case "per-invocation deltas" `Quick
            test_metrics_diff ] ) ]
