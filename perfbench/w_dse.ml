(* dse: tile-size and parallelism exploration, [Dse.explore_bench] over
   every suite bench.  One operation is one sweep: the same program is
   tiled and lowered at many tile sizes, fanned out over [Pool].

   The traced run cannot put spans inside the library's sweep, so it
   replays each point's chain (tiling, lower, simulate, area) through
   [Pool.map] from here, with the library's candidate set and selection
   rule, and the check asserts the replay equals the library's sweep. *)

open Common

let pars = [ 4; 16; 64 ]
let layers = [ "tiling"; "lower"; "simulate"; "area" ]
let bram_budget = 2560.0  (* [Dse.explore_joint]'s default *)

type item = {
  name : string;
  benches : Suite.bench array;  (* per scale: the bench at scaled sizes *)
  reference : Dse.result array;  (* per scale: the sweep on one domain *)
}

let setup ~only () =
  Array.of_list
    (List.map
       (fun (b : Suite.bench) ->
         let benches =
           Array.init (Array.length scales) (fun k ->
               { b with Suite.sim_sizes = scale_sizes k b.Suite.sim_sizes })
         in
         { name = b.Suite.name;
           benches;
           reference = Array.map (Dse.explore_bench ~domains:1 ~pars) benches })
       (select_benches only))

(* ----------------------------- replay ------------------------------- *)

(* Pool observations accumulated over the replayed sweeps. *)
type pool_stats = {
  mutable wall : float;  (* seconds inside [Pool.map] *)
  mutable busy : float;  (* seconds of point evaluation, all domains *)
  mutable per_domain : int array;  (* items completed per worker *)
}

let pool = { wall = 0.0; busy = 0.0; per_domain = [||] }
let busy_lock = Mutex.create ()

let reset_pool () =
  pool.wall <- 0.0;
  pool.busy <- 0.0;
  pool.per_domain <- [||]

let candidates (b : Suite.bench) =
  List.map
    (fun (s, default) ->
      ( s,
        List.sort_uniq compare
          (default
          :: List.filter
               (fun t -> t >= 8)
               [ default / 4; default / 2; default; default * 2; default * 4 ]) ))
    b.Suite.tiles

let cartesian cands =
  List.fold_right
    (fun (s, sizes) acc ->
      List.concat_map (fun rest -> List.map (fun t -> (s, t) :: rest) sizes) acc)
    cands [ [] ]

let point_order (a : Dse.point) (b : Dse.point) =
  match (Float.is_finite a.Dse.cycles, Float.is_finite b.Dse.cycles) with
  | true, false -> -1
  | false, true -> 1
  | _ -> Float.compare a.Dse.cycles b.Dse.cycles

let eval_point (b : Suite.bench) tiles =
  let t0 = now () in
  let r =
    Span.with_ "point" (fun () ->
        match Span.with_ "tiling" (fun () -> Tiling.run ~tiles b.Suite.prog) with
        | exception Invalid_argument reason -> Error { Dse.sk_tiles = tiles; sk_reason = reason }
        | exception Validate.Type_error reason ->
            Error { Dse.sk_tiles = tiles; sk_reason = reason }
        | r ->
            Ok
              (List.map
                 (fun par ->
                   let design =
                     Span.with_ "lower" (fun () ->
                         Lower.program { Lower.default_opts with Lower.par } r.Tiling.tiled)
                   in
                   let rep =
                     Span.with_ "simulate" (fun () ->
                         Simulate.run design ~sizes:b.Suite.sim_sizes)
                   in
                   let area = Span.with_ "area" (fun () -> Area_model.of_design design) in
                   let cycles = rep.Simulate.cycles in
                   { Dse.tiles; par; cycles; area;
                     feasible =
                       Float.is_finite cycles
                       && area.Area_model.bram <= bram_budget
                       && Area_model.fits area })
                 pars))
  in
  let dt = now () -. t0 in
  Mutex.protect busy_lock (fun () -> pool.busy <- pool.busy +. dt);
  r

let replay ~domains (b : Suite.bench) =
  let tally = Pool.tally () in
  let t0 = now () in
  let evaluated = Pool.map ~domains ~tally (eval_point b) (cartesian (candidates b)) in
  pool.wall <- pool.wall +. (now () -. t0);
  let per = tally.Pool.per_domain in
  if Array.length pool.per_domain < Array.length per then
    pool.per_domain <-
      Array.init (Array.length per) (fun i ->
          if i < Array.length pool.per_domain then pool.per_domain.(i) else 0);
  Array.iteri (fun i n -> pool.per_domain.(i) <- pool.per_domain.(i) + n) per;
  let points =
    List.sort point_order (List.concat_map (function Ok ps -> ps | Error _ -> []) evaluated)
  in
  { Dse.points;
    best = List.find_opt (fun (p : Dse.point) -> p.Dse.feasible) points;
    skipped = List.filter_map (function Error s -> Some s | Ok _ -> None) evaluated }

(* -------------------------------------------------------------------- *)

let same_result (a : Dse.result) (b : Dse.result) =
  a.Dse.points = b.Dse.points && a.Dse.best = b.Dse.best && a.Dse.skipped = b.Dse.skipped

let instance ~domains items =
  let run item scale =
    let it = items.(item) in
    let b = it.benches.(scale) in
    let r =
      if Span.enabled () then replay ~domains b
      else Dse.explore_bench ~domains ~pars b
    in
    let points = List.length r.Dse.points in
    { work = points;
      designs =
        (match r.Dse.best with
        | Some p -> [ (p.Dse.cycles, p.Dse.area.Area_model.logic, p.Dse.area.Area_model.bram) ]
        | None -> []);
      verify =
        (fun () ->
          if r.Dse.best = None then Some "no feasible point"
          else if same_result r it.reference.(scale) then None
          else Some "sweep differs from the one-domain reference");
      counts =
        (fun () ->
          [ ("points", points);
            ("skipped", List.length r.Dse.skipped);
            ("feasible", List.length (List.filter (fun (p : Dse.point) -> p.Dse.feasible) r.Dse.points)) ]) }
  in
  { items = Array.length items;
    domains;
    label = (fun item scale -> Printf.sprintf "%s x%g" items.(item).name scales.(scale));
    run }
