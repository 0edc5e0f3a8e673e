type result = {
  fused : Ir.program;
  stripped : Ir.program;
  stripped_with_copies : Ir.program;
  tiled : Ir.program;
  fused_check : Validate.checked;
  stripped_check : Validate.checked;
  tiled_check : Validate.checked;
}

let src = Logs.Src.create "ppl.tiling" ~doc:"Tiling pipeline driver"

module Log = (val Logs.src_log src : Logs.LOG)

let canonicalize_lens (p : Ir.program) =
  let shapes =
    List.map (fun i -> (i.Ir.iname, i.Ir.ishape)) p.Ir.inputs
  in
  let rule e =
    match e with
    | Ir.Len (Ir.Var s, d) -> (
        match List.find_opt (fun (n, _) -> Sym.equal n s) shapes with
        | Some (_, shape) when d < List.length shape -> List.nth shape d
        | _ -> e)
    | e -> e
  in
  { p with body = Rewrite.bottom_up rule p.body }

(* Run one program->program pass under observability: a wall-clock span
   carrying before/after Ir_stats deltas (when tracing is on) and an
   accumulated [pass.<name>] timer in the metrics registry (always).
   Applied to its name alone, it builds the metric name once. *)
let traced_pass name =
  let pass = Trace.pass name in
  fun f p ->
    pass
      ~args:(fun r ->
        let b = Ir_stats.of_program p and a = Ir_stats.of_program r in
        [ ("nodes_before", Trace.Int b.Ir_stats.nodes);
          ("nodes_after", Trace.Int a.Ir_stats.nodes);
          ("copies_before", Trace.Int b.Ir_stats.copies);
          ("copies_after", Trace.Int a.Ir_stats.copies);
          ("strided_before", Trace.Int b.Ir_stats.strided_loops);
          ("strided_after", Trace.Int a.Ir_stats.strided_loops);
          ("nest_before", Trace.Int b.Ir_stats.max_nest);
          ("nest_after", Trace.Int a.Ir_stats.max_nest) ])
      (fun () -> f p)

let simplify = traced_pass "simplify" Simplify.program
let copy_insert = traced_pass "copy-insert" Copy_insert.program
let strip_mine_pass = traced_pass "strip-mine"
let interchange_pass = traced_pass "interchange"

let cleanup =
  let cse = traced_pass "cse" Cse.program in
  let code_motion = traced_pass "code-motion" Code_motion.program in
  fun p -> simplify (code_motion (cse p))

(* The tile-independent front of the pipeline: the checked fused form and
   its strip miner, which types binders from that check's table.  A
   [Validate.Type_error] is held rather than raised, so that [tiled] can
   reject a bad tile configuration first, exactly as a single [run] does. *)
type front = {
  source : Ir.program;
  outcome :
    (Validate.checked * (tiles:(Sym.t * int) list -> Ir.program), string)
    Stdlib.result;
}

let nodes (q : Ir.program) = Rewrite.node_count q.Ir.body

let tiling_span (p : Ir.program) f =
  Trace.with_span
    ~args:(fun () -> [ ("program", Trace.Str p.Ir.pname) ])
    ("tiling:" ^ p.Ir.pname)
    f

let front_passes ?fuse_filters (source : Ir.program) =
  (* name every source pattern before any transformation touches it, so
     the hardware tree can be attributed back to this program's patterns *)
  match
    let p = Prov_stamp.program (Validate.check_program source) in
    let fused =
      cleanup
        (traced_pass "fusion" (Fusion.program ?fuse_filters)
           (canonicalize_lens p))
    in
    Log.debug (fun m ->
        m "%s: fused (%d -> %d nodes)" p.Ir.pname (nodes p) (nodes fused));
    let fused = Validate.check_program fused in
    (fused, Strip_mine.program fused)
  with
  | staged -> { source; outcome = Ok staged }
  | exception Validate.Type_error reason -> { source; outcome = Error reason }

let staged f =
  match f.outcome with
  | Ok staged -> staged
  | Error reason -> raise (Validate.Type_error reason)

let fused f = fst (staged f)

(* reject tile configurations that cannot take effect *)
let check_tiles (source : Ir.program) tiles =
  List.iter
    (fun (s, b) ->
      if b <= 0 then
        invalid_arg
          (Printf.sprintf "Tiling.run: tile size %d for %s" b (Sym.name s));
      if not (List.exists (Sym.equal s) source.Ir.size_params) then
        invalid_arg
          (Printf.sprintf "Tiling.run: %s is not a size parameter of %s"
             (Sym.name s) source.Ir.pname))
    tiles

(* The tile-dependent back, in two halves so that [run] can build its
   reporting form from [stripped] between them, in the order it always
   has (fresh symbols are numbered in creation order and printed). *)
let strip f ~tiles =
  let fused, strip_mine = staged f in
  let stripped =
    simplify (strip_mine_pass (fun _ -> strip_mine ~tiles) (Validate.program fused))
  in
  Log.debug (fun m ->
      m "%s: strip-mined (%d nodes)" f.source.Ir.pname (nodes stripped));
  Validate.check_program stripped

let interchange f stripped =
  let tiled =
    cleanup
      (copy_insert
         (interchange_pass
            (fun _ -> Interchange.program stripped)
            (Validate.program stripped)))
  in
  Log.debug (fun m ->
      m "%s: interchanged + copies (%d nodes)" f.source.Ir.pname
        (nodes tiled));
  Validate.check_program tiled

let front p = tiling_span p (fun () -> front_passes p)

let tiled f ~tiles =
  check_tiles f.source tiles;
  tiling_span f.source (fun () -> interchange f (strip f ~tiles))

let run ?fuse_filters ~tiles (p : Ir.program) =
  check_tiles p tiles;
  tiling_span p (fun () ->
      let f = front_passes ?fuse_filters p in
      let stripped = strip f ~tiles in
      let stripped_with_copies = cleanup (copy_insert (Validate.program stripped)) in
      ignore (Validate.check_program stripped_with_copies);
      let tiled = interchange f stripped and fused = fused f in
      let p = Validate.program in
      { fused = p fused; stripped = p stripped; stripped_with_copies; tiled = p tiled;
        fused_check = fused; stripped_check = stripped; tiled_check = tiled })
