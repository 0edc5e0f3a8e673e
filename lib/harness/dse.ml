type point = {
  tiles : (Sym.t * int) list;
  par : int;
  cycles : float;
  area : Area_model.t;
  feasible : bool;
}

type skip = {
  sk_tiles : (Sym.t * int) list;
  sk_reason : string;
}

type result = {
  points : point list;
  best : point option;
  skipped : skip list;
}

let cartesian (candidates : (Sym.t * int list) list) =
  List.fold_right
    (fun (s, sizes) acc ->
      List.concat_map (fun rest -> List.map (fun b -> (s, b) :: rest) sizes) acc)
    candidates [ [] ]

(* Non-finite cycles sort last and can never be [best]; among finite
   points, strictly by cycles (Float.compare, not the polymorphic
   compare, so a NaN cannot poison the order). *)
let point_order a b =
  match (Float.is_finite a.cycles, Float.is_finite b.cycles) with
  | true, false -> -1
  | false, true -> 1
  | _ -> Float.compare a.cycles b.cycles

let explore_joint ?domains ?machine ?(bram_budget = 2560.0) ~prog ~candidates
    ~pars ~sizes () =
  List.iter
    (fun par ->
      if par < 1 then
        invalid_arg (Printf.sprintf "Dse.explore_joint: par %d is below 1" par))
    pars;
  (* a repeated par would evaluate every point twice: keep the first *)
  let pars =
    List.rev
      (List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) [] pars)
  in
  (* the tile-independent stages run once for the whole sweep *)
  let front = Tiling.front prog in
  let eval_assignment tiles =
    (* Only tiling rejections of *this candidate* are survivable: a bad
       tile size or a tile parameter the program does not have
       (Invalid_argument), or an ill-typed program or a tiling stage
       failing to re-validate at these tiles (Type_error).  Anything
       else — including any exception out of Lower / Simulate /
       Area_model — is a genuine bug and propagates. *)
    match Tiling.tiled front ~tiles with
    | exception Invalid_argument reason -> Error { sk_tiles = tiles; sk_reason = reason }
    | exception Validate.Type_error reason ->
        Error { sk_tiles = tiles; sk_reason = reason }
    | tiled ->
        (* lowered once; only the bound parallelism factor differs *)
        let shaped = Lower.shape Lower.default_opts tiled in
        Ok
          (List.map
             (fun par ->
               let design = Lower.bind par shaped in
               let rep = Simulate.run ?machine design ~sizes in
               let area = Area_model.of_design design in
               let cycles = rep.Simulate.cycles in
               { tiles;
                 par;
                 cycles;
                 area;
                 feasible =
                   Float.is_finite cycles
                   && area.Area_model.bram <= bram_budget
                   && Area_model.fits area })
             pars)
  in
  let tally = Pool.tally () in
  let evaluated = Pool.map ?domains ~tally eval_assignment (cartesian candidates) in
  let points = List.concat_map (function Ok ps -> ps | Error _ -> []) evaluated in
  let skipped =
    List.filter_map (function Error s -> Some s | Ok _ -> None) evaluated
  in
  Metrics.incr ~by:(List.length points) "dse.points.evaluated";
  Metrics.incr ~by:(List.length skipped) "dse.points.skipped";
  Array.iteri
    (fun d n -> Metrics.incr ~by:n (Printf.sprintf "dse.pool.d%d.completed" d))
    tally.Pool.per_domain;
  (* List.sort is a stable merge sort and the pool preserves input order,
     so the sorted list is identical at every domain count *)
  let points = List.sort point_order points in
  let best = List.find_opt (fun p -> p.feasible) points in
  { points; best; skipped }

let explore_bench ?domains ?bram_budget ?(pars = []) (bench : Suite.bench) =
  let candidates =
    List.map
      (fun (s, default) ->
        (* the bench's own default is always a candidate — otherwise a
           tile whose default is small (< 8) would filter to an empty
           axis and silently empty the whole cartesian sweep *)
        let around =
          List.sort_uniq compare
            (default
            :: List.filter
                 (fun b -> b >= 8)
                 [ default / 4; default / 2; default; default * 2; default * 4 ])
        in
        (s, around))
      bench.Suite.tiles
  in
  let pars = if pars = [] then [ Lower.default_opts.Lower.par ] else pars in
  explore_joint ?domains ?bram_budget ~prog:bench.Suite.prog ~candidates ~pars
    ~sizes:bench.Suite.sim_sizes ()

let tiles_to_string tiles =
  String.concat ", "
    (List.map (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b) tiles)

let print_result r =
  Printf.printf "%-36s %5s %14s %10s %10s\n" "tiles" "par" "cycles" "bram"
    "feasible";
  List.iter
    (fun p ->
      Printf.printf "%-36s %5d %14.0f %10.0f %10s%s\n" (tiles_to_string p.tiles)
        p.par p.cycles p.area.Area_model.bram
        (if p.feasible then "yes" else "no")
        (* structural comparison: after the parallel rewrite the selected
           point is no longer the same physical list as the printed one *)
        (match r.best with
        | Some b when b.tiles = p.tiles && b.par = p.par -> "   <- selected"
        | _ -> ""))
    r.points;
  if r.skipped <> [] then begin
    Printf.printf "\n%d point(s) skipped (tiling rejected the candidate):\n"
      (List.length r.skipped);
    List.iter
      (fun s ->
        Printf.printf "  %-36s %s\n" (tiles_to_string s.sk_tiles) s.sk_reason)
      r.skipped
  end
