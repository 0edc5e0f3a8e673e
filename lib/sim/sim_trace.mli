(** Bridge from {!Event_sim} timelines to the observability layer.

    {!record} registers a timeline with the global {!Trace} collector as
    two blocks ({!Trace.virtual_run}), both by reference: its span
    columns (stage instances, top-level controllers) and then its DRAM
    busy intervals, written as virtual-cycle B/E events.  It also
    publishes per-track occupancy into {!Metrics} as gauges
    ([sim.track.<track>.busy_cycles], [.util], [.stall_cycles],
    [.spans]) plus [sim.makespan_cycles], counted in one pass over each
    block, even when tracing is off.  All recorded
    data is on the virtual clock, so the resulting trace JSON is
    bit-deterministic. *)

val record : Event_sim.timeline -> unit
