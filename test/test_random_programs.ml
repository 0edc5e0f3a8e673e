(* Randomized whole-pipeline testing: generate random parallel-pattern
   programs (random shapes from a template grammar, random scalar bodies,
   random sizes and tile configurations), push each through the full
   tiling pipeline, and check the result against the untiled program with
   the reference interpreter — in both evaluation modes. *)

module R = Workloads.Rng
open Gen_programs

(* ---------------- the property ---------------- *)

let run_case seed =
  let rng = R.make seed in
  let shape_id = R.int rng n_shapes in
  let s = make_setup rng shape_id in
  ignore (Validate.check_program s.prog);
  let nv = 1 + R.int rng 24 and mv = 1 + R.int rng 12 in
  let bn = 1 + R.int rng 8 and bm = 1 + R.int rng 8 in
  let tiles =
    List.concat
      [ (if R.int rng 4 > 0 then [ (s.n, bn) ] else []);
        (if R.int rng 4 > 0 then [ (s.m, bm) ] else []) ]
  in
  let fuse_filters = R.int rng 2 = 0 in
  let result = Tiling.run ~fuse_filters ~tiles s.prog in
  ignore (Validate.check_program result.Tiling.tiled);
  let irng = R.make (seed * 7 + 1) in
  let inputs =
    [ (s.x1.Ir.iname, Workloads.value_of_vector (Workloads.float_vector irng nv));
      (s.x2.Ir.iname, Workloads.value_of_matrix (Workloads.float_matrix irng nv mv))
    ]
  in
  let sizes = [ (s.n, nv); (s.m, mv) ] in
  let reference = Eval.eval_program s.prog ~sizes ~inputs in
  let stages =
    [ ("fused", result.Tiling.fused);
      ("stripped", result.Tiling.stripped);
      ("stripped+copies", result.Tiling.stripped_with_copies);
      ("tiled", result.Tiling.tiled) ]
  in
  List.iter
    (fun (name, prog) ->
      let v = Eval.eval_program prog ~sizes ~inputs in
      if not (Value.equal ~eps:1e-5 reference v) then
        QCheck.Test.fail_reportf
          "shape %d seed %d (%s, tiles=%s, n=%d, m=%d):@.expected %s@.got %s"
          shape_id seed name
          (String.concat ","
             (List.map (fun (_, b) -> string_of_int b) tiles))
          nv mv
          (Value.to_string reference) (Value.to_string v);
      (* chunked mode exercises generated combine functions *)
      let vc = Eval.eval_program ~mode:(Eval.Chunked 3) prog ~sizes ~inputs in
      if not (Value.equal ~eps:1e-5 reference vc) then
        QCheck.Test.fail_reportf "shape %d seed %d (%s, chunked) mismatch"
          shape_id seed name)
    stages;
  true

let prop_pipeline =
  QCheck.Test.make ~name:"random programs: full pipeline equivalence"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    run_case

(* the reports read from one annotation agree: the profile attributes
   exactly the simulated total, and all of it; the breakdown's root row
   is the simulated run; each bottleneck's slowest stage has the cycles
   its breakdown row gives *)
let check_reports shape_id seed d ~sizes =
  let fail fmt =
    QCheck.Test.fail_reportf ("shape %d seed %d: " ^^ fmt) shape_id seed
  in
  let rep = Simulate.run d ~sizes in
  let p = Profile.of_design d ~sizes in
  if Profile.total_cycles p <> rep.Simulate.cycles then
    fail "profile total %h <> run %h" (Profile.total_cycles p)
      rep.Simulate.cycles;
  let self = Profile.fold_nodes (fun acc n -> acc +. n.Profile.self) 0.0 p in
  if Float.abs (self -. rep.Simulate.cycles) > 1e-9 *. rep.Simulate.cycles then
    fail "self cycles sum to %h, total %h" self rep.Simulate.cycles;
  let rows = Simulate.breakdown d ~sizes in
  (match rows with
  | root :: _
    when root.Simulate.br_cycles = rep.Simulate.cycles
         && root.Simulate.br_invocations = 1.0 ->
      ()
  | _ -> fail "the root breakdown row is not the run");
  List.iter
    (fun (bn : Simulate.bottleneck_row) ->
      match
        List.find_opt (fun r -> r.Simulate.br_name = bn.Simulate.bn_stage) rows
      with
      | Some r when r.Simulate.br_cycles = bn.Simulate.bn_stage_cycles -> ()
      | _ -> fail "stage %s of %s disagrees with the breakdown"
               bn.Simulate.bn_stage bn.Simulate.bn_loop)
    (Simulate.bottlenecks d ~sizes)

(* the generated hardware must also be constructible and simulable *)
let prop_lowering_total =
  QCheck.Test.make ~name:"random programs: lowering and simulation total"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.make seed in
      let shape_id = R.int rng n_shapes in
      let s = make_setup rng shape_id in
      let tiles = [ (s.n, 8); (s.m, 4) ] in
      let result = Tiling.run ~tiles s.prog in
      List.iter
        (fun opts ->
          let d = Lower.program opts result.Tiling.tiled in
          (match Hw_check.check d with
          | [] -> ()
          | fs ->
              QCheck.Test.fail_reportf "shape %d seed %d: malformed design: %s"
                shape_id seed
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Diagnostic.pp) fs)));
          let sizes = [ (s.n, 512); (s.m, 32) ] in
          let rep = Simulate.run d ~sizes in
          if not (rep.Simulate.cycles > 0.0) then
            QCheck.Test.fail_reportf "shape %d: zero cycles" shape_id;
          let e = Event_sim.run d ~sizes in
          let ratio = e.Event_sim.report.Simulate.cycles /. rep.Simulate.cycles in
          if ratio < 0.5 || ratio > 2.0 then
            QCheck.Test.fail_reportf
              "shape %d seed %d: engines disagree (%.2f)" shape_id seed ratio;
          check_reports shape_id seed d ~sizes;
          (* a shared cache, reused after a sizes change, answers as a
             fresh simulation does *)
          let cache = Simulate.cache () in
          List.iter
            (fun sizes ->
              let cached =
                ( Simulate.run ~cache d ~sizes,
                  Simulate.breakdown ~cache d ~sizes,
                  Simulate.bottlenecks ~cache d ~sizes,
                  Profile.to_json (Profile.of_design ~cache d ~sizes) )
              in
              let fresh =
                ( Simulate.run d ~sizes,
                  Simulate.breakdown d ~sizes,
                  Simulate.bottlenecks d ~sizes,
                  Profile.to_json (Profile.of_design d ~sizes) )
              in
              if cached <> fresh then
                QCheck.Test.fail_reportf
                  "shape %d seed %d: cached reports differ" shape_id seed)
            [ sizes; [ (s.n, 97); (s.m, 5) ]; sizes ];
          ignore (Area_model.of_design d))
        [ Lower.default_opts; { Lower.default_opts with Lower.meta = false } ];
      true)

(* the parallelism factor is bound after lowering: each bind sets every
   par-dependent field and gives the design [Lower.program] builds at
   that par *)
let prop_shape_bind =
  QCheck.Test.make ~name:"random programs: shape then bind" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.make seed in
      let shape_id = R.int rng n_shapes in
      let s = make_setup rng shape_id in
      let tiles = [ (s.n, 1 + R.int rng 8); (s.m, 1 + R.int rng 8) ] in
      let result = Tiling.run ~tiles s.prog in
      let fail fmt = QCheck.Test.fail_reportf ("shape %d seed %d: " ^^ fmt) shape_id seed in
      List.iter
        (fun (prog, opts) ->
          let shaped = Lower.shape opts prog in
          let banked p (d : Hw.design) =
            List.filter_map
              (fun m -> if m.Hw.banks = p then Some m.Hw.mem_name else None)
              d.Hw.mems
          in
          List.iter
            (fun p ->
              let d = Lower.bind p shaped in
              if d.Hw.par_factor <> p then fail "par_factor %d at par %d" d.Hw.par_factor p;
              Hw.iter_ctrls
                (function
                  | Hw.Pipe { name; par; _ } when par <> p ->
                      fail "pipe %s has par %d at par %d" name par p
                  | _ -> ())
                d.Hw.top;
              List.iter
                (fun m ->
                  if m.Hw.banks <> 1 && m.Hw.banks <> p then
                    fail "%s has %d banks at par %d" m.Hw.mem_name m.Hw.banks p)
                d.Hw.mems;
              if p > 1 && banked p d <> banked 16 (Lower.bind 16 shaped) then
                fail "banked memories differ between par %d and 16" p;
              if d <> Lower.program { opts with Lower.par = p } (Validate.program prog)
              then
                fail "bind %d differs from Lower.program" p)
            [ 1; 3; 16 ];
          match Lower.bind 0 shaped with
          | _ -> fail "bind 0 accepted"
          | exception Invalid_argument _ -> ())
        [ (result.Tiling.tiled_check, Lower.default_opts);
          (result.Tiling.tiled_check, { Lower.default_opts with Lower.meta = false });
          (result.Tiling.fused_check, Lower.baseline_opts) ];
      true)

(* printed text of any stage parses back to a program with identical
   semantics — the concrete syntax is total over the transformation
   pipeline, not just over the hand-written suite *)
let prop_parser_roundtrip =
  QCheck.Test.make ~name:"random programs: printer/parser roundtrip" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.make seed in
      let shape_id = R.int rng n_shapes in
      let s = make_setup rng shape_id in
      let tiles = [ (s.n, 1 + R.int rng 8); (s.m, 1 + R.int rng 8) ] in
      let result = Tiling.run ~tiles s.prog in
      let nv = 1 + R.int rng 24 and mv = 1 + R.int rng 12 in
      let irng = R.make (seed * 11 + 3) in
      let x1v = Workloads.value_of_vector (Workloads.float_vector irng nv) in
      let x2v = Workloads.value_of_matrix (Workloads.float_matrix irng nv mv) in
      let sizes = [ (s.n, nv); (s.m, mv) ] in
      let inputs = [ (s.x1.Ir.iname, x1v); (s.x2.Ir.iname, x2v) ] in
      let reference = Eval.eval_program s.prog ~sizes ~inputs in
      List.iter
        (fun (name, (prog : Ir.program)) ->
          let text = Pp.program_to_string prog in
          let parsed =
            try Parser.program_of_string text
            with Parser.Parse_error m ->
              QCheck.Test.fail_reportf
                "shape %d seed %d (%s): parse error %s@.%s" shape_id seed name
                m text
          in
          ignore (Validate.check_program parsed);
          let sizes' =
            List.map
              (fun sym ->
                ( sym,
                  if Sym.base sym = Sym.base s.n then nv
                  else mv ))
              parsed.Ir.size_params
          in
          let inputs' =
            List.map2
              (fun (pi : Ir.input) (_, v) -> (pi.Ir.iname, v))
              parsed.Ir.inputs inputs
          in
          let v = Eval.eval_program parsed ~sizes:sizes' ~inputs:inputs' in
          if not (Value.equal ~eps:1e-5 reference v) then
            QCheck.Test.fail_reportf
              "shape %d seed %d (%s): roundtrip changed semantics" shape_id
              seed name)
        [ ("source", s.prog);
          ("fused", result.Tiling.fused);
          ("tiled", result.Tiling.tiled) ];
      true)

(* ---------------- memory names ---------------- *)

(* [compile] of a program text in a fresh process, where symbols are
   numbered from 1 in text order: the exit code and the stdout *)
let compile_text text ~tiles =
  let file = Filename.temp_file "gen" ".ppl" in
  let out = file ^ ".out" in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  let code =
    Sys.command
      (Filename.quote_command "../bin/main.exe" ~stdout:out
         ~stderr:Filename.null [ "compile"; file; "--tiles"; tiles ])
  in
  let stdout = In_channel.with_open_text out In_channel.input_all in
  Sys.remove file;
  Sys.remove out;
  (code, stdout)

(* the names of the printed design's memory table and of its controllers *)
let design_names stdout =
  let rec table = function
    | "memories:" :: rest -> mems rest
    | _ :: rest -> table rest
    | [] -> ([], [])
  and mems = function
    | "controllers:" :: rest -> ([], ctrls rest)
    | [] -> ([], [])
    | row :: rest -> (
        let ms, cs = mems rest in
        match String.split_on_char ' ' (String.trim row) with
        | name :: _ -> (name :: ms, cs)
        | [] -> (ms, cs))
  and ctrls = function
    | [] -> []
    | row :: rest -> (
        match String.split_on_char ' ' (String.trim row) with
        | ( "Sequential" | "Parallel" | "Metapipeline" | "Loop" | "Pipe"
          | "TileLoad" | "TileStore" )
          :: name :: _ ->
            name :: ctrls rest
        | _ -> ctrls rest)
  in
  table (String.split_on_char '\n' stdout)

(* the first position of [sub] in [s] *)
let index_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* the identifiers of the printed tiled program (everything before the
   design listing) *)
let program_idents stdout =
  let text =
    match index_sub stdout "\ndesign " with
    | Some i -> String.sub stdout 0 i
    | None -> stdout
  in
  let is_ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  let words = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_ident c then (if !start < 0 then start := i)
      else if !start >= 0 then begin
        words := String.sub text !start (i - !start) :: !words;
        start := -1
      end)
    (text ^ " ");
  !words

(* [name] split at its last underscore, when a number follows it *)
let numbered name =
  match String.rindex_opt name '_' with
  | Some i when i > 0 && i < String.length name - 1 -> (
      let base = String.sub name 0 i in
      match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
      | Some k -> Some (base, k)
      | None -> None)
  | _ -> None

let rec replace_all ~sub ~by s =
  match index_sub s sub with
  | None -> s
  | Some i ->
      let rest = String.length s - i - String.length sub in
      String.sub s 0 i ^ by
      ^ replace_all ~sub ~by (String.sub s (String.length s - rest) rest)

(* Every design of a generated program has distinct names, memories and
   controllers alike, whatever its binders are called.  The program gets
   four scalar binders [zz]; a memory and a controller the lowering names
   [<base>_<k>] (after a counter, not a source symbol) then each lend one
   binder their base, and unused size declarations shift that binder's
   number to [k], so the binder spells the memory's or the controller's
   name. *)
let prop_design_names =
  QCheck.Test.make ~name:"random programs: design names are distinct"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.make seed in
      (* shape 8 has no random scalar to read the binders *)
      let shape_id = match R.int rng n_shapes with 8 -> 9 | k -> k in
      let s = make_setup ~scalars:[ "zz"; "zz"; "zz"; "zz" ] rng shape_id in
      let tiles = if R.int rng 2 = 0 then "n=8,m=4" else "n=4" in
      let compile what text =
        let code, stdout = compile_text text ~tiles in
        let mems, ctrls = design_names stdout in
        let names = mems @ ctrls in
        if code <> 0 || List.length (List.sort_uniq compare names) <> List.length names
        then
          QCheck.Test.fail_reportf "shape %d seed %d (%s): exit %d@.%s" shape_id
            seed what code stdout;
        (mems, ctrls, stdout)
      in
      let text = Pp.program_to_string s.prog in
      let mems, ctrls, stdout = compile "binders zz" text in
      let idents = program_idents stdout in
      (* the binders' numbers in the fresh process, outermost first *)
      let ids =
        List.sort_uniq compare
          (List.filter_map
             (fun w ->
               match numbered w with Some ("zz", k) -> Some k | _ -> None)
             idents)
      in
      let plain base =
        base <> ""
        && (match base.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
        && List.for_all
             (fun part -> int_of_string_opt part = None)
             (String.split_on_char '_' base)
      in
      (* a counter-named memory or controller, the last binder numbered at
         most its counter, and how many sizes to declare before it *)
      let target names =
        List.find_map
          (fun name ->
            match numbered name with
            | Some (base, k) when plain base && not (List.mem name idents) -> (
                match List.filter (fun id -> id <= k) ids with
                | [] -> None
                | below ->
                    let id = List.nth below (List.length below - 1) in
                    Some (base, List.length below - 1, k - id))
            | _ -> None)
          names
      in
      let spell (base, i, shift) =
        let rec binders = function
          | Ir.Let (v, _, rest) -> v :: binders rest
          | _ -> []
        in
        let zz = Sym.name (List.nth (binders s.prog.Ir.body) i) in
        let pads =
          String.concat ""
            (List.init shift (fun i -> Printf.sprintf "size pad_%d\n" (i + 1)))
        in
        let text = replace_all ~sub:zz ~by:(base ^ "_0") text in
        let text =
          match String.index_opt text '\n' with
          | Some i ->
              String.sub text 0 (i + 1) ^ pads
              ^ String.sub text (i + 1) (String.length text - i - 1)
          | None -> text
        in
        ignore (compile ("binder " ^ base) text)
      in
      Option.iter spell (target mems);
      Option.iter spell (target ctrls);
      true)

let () =
  Alcotest.run "random_programs"
    [ ( "pipeline",
        [ QCheck_alcotest.to_alcotest prop_pipeline;
          QCheck_alcotest.to_alcotest prop_lowering_total;
          QCheck_alcotest.to_alcotest prop_shape_bind ] );
      ( "parser",
        [ QCheck_alcotest.to_alcotest prop_parser_roundtrip ] );
      ("design names", [ QCheck_alcotest.to_alcotest prop_design_names ]) ]
