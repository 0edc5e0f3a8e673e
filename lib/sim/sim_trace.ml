let record (tl : Event_sim.timeline) =
  let cols = tl.Event_sim.tl_columns and dram = tl.Event_sim.tl_dram in
  Trace.virtual_run cols;
  Trace.virtual_run ~args:[] dram;
  let occ = Trace.tracks () in
  Trace.add_run occ cols;
  Trace.add_run occ dram;
  let makespan = tl.Event_sim.tl_makespan in
  Metrics.set_gauge "sim.makespan_cycles" makespan;
  Trace.iter_tracks occ ~makespan (fun track ~spans ~busy ~util ~stall ->
      let base = "sim.track." ^ track in
      Metrics.set_gauge (base ^ ".spans") (float_of_int spans);
      Metrics.set_gauge (base ^ ".busy_cycles") busy;
      Metrics.set_gauge (base ^ ".util") util;
      Metrics.set_gauge (base ^ ".stall_cycles") stall)
