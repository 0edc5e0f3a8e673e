(* analyze: the analytic simulator and its reports on prebuilt designs,
   as [simulate --breakdown --bottlenecks] plus [profile] produce them.
   One operation is one design at one size: eight report calls sharing
   one [Simulate.cache], as a single invocation shares it. *)

open Common

let layers =
  [ "simulate"; "breakdown"; "bottlenecks"; "profile"; "to_json"; "to_folded";
    "pp_text"; "area" ]

type reference = { cycles : float; json : Digest.t }

let setup ~only () =
  let designs = prebuilt_designs ~only in
  let reference =
    Array.map
      (fun d ->
        Array.map
          (fun sizes ->
            let p = Profile.of_design d.design ~sizes in
            { cycles = (Simulate.run d.design ~sizes).Simulate.cycles;
              json = Digest.string (Profile.to_json p) })
          d.sizes)
      designs
  in
  (designs, reference)

let instance (designs, reference) =
  let run item scale =
    let d = designs.(item) in
    let sizes = d.sizes.(scale) in
    let cache = Simulate.cache () in
    let rep = Span.with_ "simulate" (fun () -> Simulate.run ~cache d.design ~sizes) in
    let rows = Span.with_ "breakdown" (fun () -> Simulate.breakdown ~cache d.design ~sizes) in
    let _bn = Span.with_ "bottlenecks" (fun () -> Simulate.bottlenecks ~cache d.design ~sizes) in
    let p = Span.with_ "profile" (fun () -> Profile.of_design ~cache d.design ~sizes) in
    let json = Span.with_ "to_json" (fun () -> Profile.to_json p) in
    let folded = Span.with_ "to_folded" (fun () -> Profile.to_folded p) in
    let text = Span.with_ "pp_text" (fun () -> Format.asprintf "%a" Profile.pp_text p) in
    let area = Span.with_ "area" (fun () -> Area_model.of_design d.design) in
    let cycles = rep.Simulate.cycles in
    { work = 1;
      designs = [ (cycles, area.Area_model.logic, area.Area_model.bram) ];
      verify =
        (fun () ->
          let r = reference.(item).(scale) in
          if Profile.total_cycles p <> cycles then
            Some
              (Printf.sprintf "profile total %.17g <> simulated %.17g"
                 (Profile.total_cycles p) cycles)
          else if cycles <> r.cycles then Some "cycles differ from the reference"
          else if Digest.string json <> r.json then Some "profile JSON differs from the reference"
          else if rows = [] || folded = "" || text = "" then Some "empty report"
          else if area <> d.area then Some "area differs from the reference"
          else None);
      counts =
        (fun () ->
          let s = Simulate.cache_stats cache in
          [ ("cache_hits", s.Simulate.hits); ("cache_misses", s.Simulate.misses) ]) }
  in
  { items = Array.length designs; domains = 1; label = design_label designs; run }
