(* compile: the single-invocation path, from PPL text to a simulated and
   emitted design, for every suite program (from its printed text) and
   every corpus program (from its file).  One operation is one program:
   parse, validate, source lint, tiling, then for each of the three
   configurations lower, design check, design lint, simulate, area and
   MaxJ emission. *)

open Common

let layers =
  [ "parse"; "validate"; "ppl_lint"; "tiling"; "lower"; "hw_check"; "hw_lint";
    "simulate"; "area"; "maxj" ]

(* The seven tiling pass timers the library keeps in [Metrics]. *)
let passes =
  [ "fusion"; "cse"; "code-motion"; "simplify"; "strip-mine"; "copy-insert";
    "interchange" ]

(* Good corpus programs with the tiles and sizes of their runtest rule
   (corpus/dune), and the bad ones with the source-lint findings each must
   produce. *)
let corpus_good =
  [ ("average", [ ("n", 1024) ], [ ("n", 65536) ]);
    ("saxpy", [ ("n", 1024) ], [ ("n", 65536) ]);
    ("possum", [ ("n", 4096) ], [ ("n", 65536) ]);
    ("rowdot", [ ("m", 1024); ("n", 1024) ], [ ("m", 8192); ("n", 4096) ]) ]

let corpus_bad =
  [ ("bad_race", [ ("PPL201", Diagnostic.Error) ]);
    ("bad_nonaffine", [ ("PPL212", Diagnostic.Info); ("PPL230", Diagnostic.Warning) ]) ]

let corpus_test_size = 37

type good = {
  tiles : (string * int) list;  (* by size-parameter base name *)
  sim_sizes : (string * int) list;
  test_sizes : (string * int) list;
  inputs : Value.t list;  (* interpreter inputs, in declaration order *)
  expected : (float * Area_model.t) array array option;
      (* per scale, per configuration: the in-memory program's design *)
}

type kind = Good of good | Bad of (string * Diagnostic.severity) list

type item = { name : string; text : string; kind : kind }

let lower cfg (r : Tiling.result) =
  match cfg with
  | Experiments.Baseline -> Lower.program Lower.baseline_opts r.Tiling.fused
  | Experiments.Tiled ->
      Lower.program { Lower.default_opts with Lower.meta = false } r.Tiling.tiled
  | Experiments.Tiled_meta -> Lower.program Lower.default_opts r.Tiling.tiled

let by_base l = List.map (fun (s, v) -> (Sym.base s, v)) l

let resolve (prog : Ir.program) spec =
  List.filter_map
    (fun s -> Option.map (fun v -> (s, v)) (List.assoc_opt (Sym.base s) spec))
    prog.Ir.size_params

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Seeded interpreter inputs for a parsed corpus program. *)
let corpus_inputs rng (prog : Ir.program) sizes =
  let env =
    List.fold_left
      (fun env (s, v) -> Sym.Map.add s (Value.I v) env)
      Sym.Map.empty sizes
  in
  List.map
    (fun (inp : Ir.input) ->
      let dims = List.map (Eval.eval_int env) inp.Ir.ishape in
      let bound = List.fold_left Int.max 1 dims in
      let elt () =
        match inp.Ir.ielt with
        | Ty.Scalar Ty.Float -> Value.F (Random.State.float rng 2.0 -. 1.0)
        | Ty.Scalar Ty.Int -> Value.I (Random.State.int rng bound)
        | Ty.Scalar Ty.Bool -> Value.B (Random.State.bool rng)
        | _ -> invalid_arg ("corpus input of non-scalar type: " ^ Sym.name inp.Ir.iname)
      in
      if dims = [] then elt () else Value.Arr (Ndarray.init dims (fun _ -> elt ())))
    prog.Ir.inputs

let setup ~seed ~corpus ~only () =
  let keep name = match only with None -> true | Some l -> List.mem name l in
  let suite =
    List.filter_map
      (fun (b : Suite.bench) ->
        if not (keep b.Suite.name) then None
        else
          let gen = b.Suite.gen ~sizes:b.Suite.test_sizes ~seed in
          let designs = List.map (fun cfg -> Experiments.design_of cfg b) configs in
          let expected =
            Array.init (Array.length scales) (fun k ->
                let sizes = scale_sizes k b.Suite.sim_sizes in
                Array.of_list
                  (List.map
                     (fun d ->
                       ((Simulate.run d ~sizes).Simulate.cycles, Area_model.of_design d))
                     designs))
          in
          Some
            { name = b.Suite.name;
              text = Pp.program_to_string b.Suite.prog;
              kind =
                Good
                  { tiles = by_base b.Suite.tiles;
                    sim_sizes = by_base b.Suite.sim_sizes;
                    test_sizes = by_base b.Suite.test_sizes;
                    inputs =
                      List.map
                        (fun (i : Ir.input) -> List.assoc i.Ir.iname gen)
                        b.Suite.prog.Ir.inputs;
                    expected = Some expected } })
      (Suite.extended ())
  in
  let rng = Random.State.make [| seed; 0xc0 |] in
  let good =
    List.filter_map
      (fun (name, tiles, sim_sizes) ->
        if not (keep name) then None
        else
          let text = read_file (Filename.concat corpus (name ^ ".ppl")) in
          let prog = Parser.program_of_string text in
          let test_sizes =
            List.map (fun s -> (Sym.base s, corpus_test_size)) prog.Ir.size_params
          in
          let inputs = corpus_inputs rng prog (resolve prog test_sizes) in
          Some
            { name; text;
              kind = Good { tiles; sim_sizes; test_sizes; inputs; expected = None } })
      corpus_good
  in
  let bad =
    List.filter_map
      (fun (name, codes) ->
        if not (keep name) then None
        else
          Some
            { name; text = read_file (Filename.concat corpus (name ^ ".ppl"));
              kind = Bad codes })
      corpus_bad
  in
  Array.of_list (suite @ good @ bad)

(* One configuration's design and what the operation derived from it. *)
type built = {
  cfg : Experiments.config;
  design : Hw.design;
  checked : Diagnostic.t list;  (* Hw_check *)
  linted : Diagnostic.t list;  (* Hw_lint *)
  cycles : float;
  area : Area_model.t;
  maxj : string;
}

let verify_good it g scale prog lints (r : Tiling.result) built () =
  let failf fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let bad_design i b =
    let tag = Experiments.config_name b.cfg in
    if b.checked <> [] then failf "%s: Hw_check: %s" tag (Diagnostic.summary b.checked)
    else if Diagnostic.has_errors b.linted then
      failf "%s: Hw_lint: %s" tag (Diagnostic.summary b.linted)
    else if b.maxj = "" then failf "%s: empty MaxJ" tag
    else
      match g.expected with
      | Some e when e.(scale).(i) <> (b.cycles, b.area) ->
          failf "%s: parsed text gives %.0f cycles, program gives %.0f" tag b.cycles
            (fst e.(scale).(i))
      | _ -> None
  in
  if Diagnostic.has_errors lints then failf "source lint errors: %s" (Diagnostic.summary lints)
  else
    match List.find_map Fun.id (List.mapi bad_design built) with
    | Some why -> Some why
    | None ->
        let sizes = resolve prog g.test_sizes in
        let inputs =
          List.map2 (fun (i : Ir.input) v -> (i.Ir.iname, v)) prog.Ir.inputs g.inputs
        in
        let reference = Eval.eval_program prog ~sizes ~inputs in
        let tiled = Eval.eval_program r.Tiling.tiled ~sizes ~inputs in
        if Value.equal ~eps:1e-6 reference tiled then None
        else failf "%s: eval of the tiled program differs from the source" it.name

let verify_bad codes lints () =
  let missing =
    List.filter
      (fun (code, sev) ->
        not
          (List.exists
             (fun (d : Diagnostic.t) -> d.Diagnostic.code = code && d.Diagnostic.severity = sev)
             lints))
      codes
  in
  match missing with
  | [] -> None
  | (code, sev) :: _ ->
      Some
        (Printf.sprintf "expected %s %s, got: %s" code (Diagnostic.severity_name sev)
           (Diagnostic.summary lints))

let instance items =
  let run item scale =
    let it = items.(item) in
    let prog = Span.with_ "parse" (fun () -> Parser.program_of_string it.text) in
    Span.with_ "validate" (fun () -> ignore (Validate.check_program prog));
    let lints = Span.with_ "ppl_lint" (fun () -> Ppl_lint.check_all prog) in
    match it.kind with
    | Bad codes ->
        { work = 1; designs = []; verify = verify_bad codes lints; counts = (fun () -> []) }
    | Good g ->
        let tiles = resolve prog g.tiles in
        let r = Span.with_ "tiling" (fun () -> Tiling.run ~tiles prog) in
        let sizes = scale_sizes scale (resolve prog g.sim_sizes) in
        let built =
          List.map
            (fun cfg ->
              let design = Span.with_ "lower" (fun () -> lower cfg r) in
              let checked = Span.with_ "hw_check" (fun () -> Hw_check.check design) in
              let linted = Span.with_ "hw_lint" (fun () -> Hw_lint.check design) in
              let rep = Span.with_ "simulate" (fun () -> Simulate.run design ~sizes) in
              let area = Span.with_ "area" (fun () -> Area_model.of_design design) in
              let maxj = Span.with_ "maxj" (fun () -> Maxj.emit design) in
              { cfg; design; checked; linted; cycles = rep.Simulate.cycles; area; maxj })
            configs
        in
        { work = 1;
          designs =
            List.map (fun b -> (b.cycles, b.area.Area_model.logic, b.area.Area_model.bram)) built;
          verify = verify_good it g scale prog lints r built;
          counts =
            (fun () ->
              [ ("ir_nodes", (Ir_stats.of_program r.Tiling.tiled).Ir_stats.nodes);
                ( "ctrls",
                  List.fold_left
                    (fun n b -> Hw.fold_ctrls (fun n _ -> n + 1) n b.design.Hw.top)
                    0 built );
                ("mems", List.fold_left (fun n b -> n + List.length b.design.Hw.mems) 0 built) ]) }
  in
  { items = Array.length items;
    domains = 1;
    label = (fun item scale -> Printf.sprintf "%s x%g" items.(item).name scales.(scale));
    run }

(* Pass timers read as the difference of two registry snapshots, scaled
   by [factor] like every other timing. *)
let pass_metrics ~base ~factor =
  let d = Metrics.diff ~base (Metrics.snapshot ()) in
  List.concat_map
    (fun p ->
      let seconds, count =
        match List.assoc_opt ("pass." ^ p) d with
        | Some (Metrics.Timer { seconds; count }) -> (seconds, count)
        | _ -> (0.0, 0)
      in
      [ metric (Printf.sprintf "compile.pass.%s.ms" p) "ms" (F (seconds *. 1e3 *. factor));
        metric (Printf.sprintf "compile.pass.%s.calls" p) "count" (I count) ])
    passes
