(* timeline: the event-driven engine on prebuilt designs, recording its
   virtual-cycle schedule and exporting it as trace JSON, as
   [timeline -c <config>] does.  One operation is one design at one size;
   its work is the number of controller instances the engine scheduled. *)

open Common

let layers = [ "event_sim"; "sim_trace"; "trace_json" ]

(* An operation's exact outputs, to compare later visits against. *)
type seen = { events : int; fallbacks : int; makespan : float; json : Digest.t }

let setup ~only () =
  let designs = prebuilt_designs ~only in
  let analytic =
    Array.map
      (fun d -> Array.map (fun sizes -> (Simulate.run d.design ~sizes).Simulate.cycles) d.sizes)
      designs
  in
  (designs, analytic)

let instance (designs, analytic) =
  let seen = Hashtbl.create 128 in
  let run item scale =
    let d = designs.(item) in
    Trace.clear ();
    Trace.enable ();
    let r =
      Span.with_ "event_sim" (fun () ->
          Event_sim.run ~record:true d.design ~sizes:d.sizes.(scale))
    in
    Span.with_ "sim_trace" (fun () -> Option.iter Sim_trace.record r.Event_sim.timeline);
    Trace.disable ();
    let json = Span.with_ "trace_json" Trace.to_json in
    let cycles = r.Event_sim.report.Simulate.cycles in
    { work = r.Event_sim.events;
      designs = [ (cycles, d.area.Area_model.logic, d.area.Area_model.bram) ];
      verify =
        (fun () ->
          let a = analytic.(item).(scale) in
          let dev = Float.abs (a -. cycles) /. Float.max a cycles in
          let now =
            { events = r.Event_sim.events; fallbacks = r.Event_sim.fallbacks;
              makespan =
                (match r.Event_sim.timeline with
                | Some tl -> tl.Event_sim.tl_makespan
                | None -> nan);
              json = Digest.string json }
          in
          if dev > 0.02 then
            Some (Printf.sprintf "event and analytic engines differ by %.2f%%" (100.0 *. dev))
          else if now.makespan <> cycles then Some "makespan differs from the report's cycles"
          else
            match Hashtbl.find_opt seen (item, scale) with
            | None ->
                Hashtbl.replace seen (item, scale) now;
                None
            | Some before when before = now -> None
            | Some _ -> Some "schedule differs from an earlier run of the same design");
      counts =
        (fun () ->
          [ ("events", r.Event_sim.events);
            ("fallbacks", r.Event_sim.fallbacks);
            ("trace_bytes", String.length json) ]) }
  in
  { items = Array.length designs; domains = 1; label = design_label designs; run }
