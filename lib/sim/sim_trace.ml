let record (tl : Event_sim.timeline) =
  let occ = Trace.tracks () in
  List.iter
    (fun (sp : Event_sim.span) ->
      let track = sp.Event_sim.sp_track
      and start = sp.Event_sim.sp_start
      and finish = sp.Event_sim.sp_finish in
      Trace.virtual_span ~cat:"sim" ~track ~name:sp.Event_sim.sp_name ~start
        ~finish
        ~args:
          (List.map (fun (k, v) -> (k, Trace.Float v)) sp.Event_sim.sp_args)
        ();
      Trace.add_track_span occ ~track ~start ~finish)
    tl.Event_sim.tl_spans;
  List.iter
    (fun (start, finish) ->
      Trace.virtual_span ~cat:"sim" ~track:"DRAM" ~name:"busy" ~start ~finish
        ();
      Trace.add_track_span occ ~track:"DRAM" ~start ~finish)
    tl.Event_sim.tl_dram_busy;
  let makespan = tl.Event_sim.tl_makespan in
  Metrics.set_gauge "sim.makespan_cycles" makespan;
  Trace.iter_tracks occ ~makespan (fun track ~spans ~busy ~util ~stall ->
      let base = "sim.track." ^ track in
      Metrics.set_gauge (base ^ ".spans") (float_of_int spans);
      Metrics.set_gauge (base ^ ".busy_cycles") busy;
      Metrics.set_gauge (base ^ ".util") util;
      Metrics.set_gauge (base ^ ".stall_cycles") stall)
