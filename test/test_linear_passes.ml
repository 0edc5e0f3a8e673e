(* The linear-time tiling and lowering passes against the definitions they
   replaced.  Each reference below is the old definition, kept here only
   as an oracle:
   - [Simplify.exp] stopping each node's rewriting on a structural [=];
   - [Code_motion.exp] re-running until the whole tree is structurally
     unchanged;
   - copy insertion keyed on printed offsets ([Ref_copy_insert]);
   - [Rewrite.iter_exp] walking through [map_children];
   - [Validate.infer] re-checking every subtree whose type the tiling
     passes and [Lower] now synthesize with [Validate.type_of], under
     the binder table each stage hands on (its check's, or the one
     [Interchange] extends), whose premise (no symbol bound twice) is
     checked too.
   They are checked on every stage of every suite program and of random
   programs, as is the IR's scoping rule (see [scoping_violation]). *)

module R = Workloads.Rng

let old_simplify e =
  let rec fix e =
    let e' = Simplify.rule e in
    if e' = e then e else fix e'
  in
  Rewrite.bottom_up fix e

let rec old_code_motion e =
  let e' = Rewrite.bottom_up Code_motion.step e in
  if e' = e then e else old_code_motion e'

let old_iter_exp f e =
  let rec go e =
    f e;
    ignore
      (Rewrite.map_children
         (fun child ->
           go child;
           child)
         e)
  in
  go e

let visits iter e =
  let acc = ref [] in
  iter (fun n -> acc := n :: !acc) e;
  List.rev !acc

(* Every node of [e] outside domains and regions, each under the
   environment the checker types it in, in pre-order. *)
let typing_sites env e =
  let sites = ref [] in
  let idxs env is = List.fold_left (fun m s -> Sym.Map.add s Ty.int_ m) env is in
  let rec go env e =
    sites := (env, e) :: !sites;
    match e with
    | Ir.Let (s, e1, e2) ->
        go env e1;
        go (Sym.Map.add s (Validate.infer env e1) env) e2
    | Ir.Map m -> go (idxs env m.Ir.midxs) m.Ir.mbody
    | Ir.Fold f ->
        go env f.Ir.finit;
        let acc_t = Validate.infer env f.Ir.finit in
        go (Sym.Map.add f.Ir.facc acc_t (idxs env f.Ir.fidxs)) f.Ir.fupd;
        comb env acc_t f.Ir.fcomb
    | Ir.MultiFold mf ->
        go env mf.Ir.oinit;
        let init_t = Validate.infer env mf.Ir.oinit in
        let env_i = lets (idxs env mf.Ir.oidxs) mf.Ir.olets in
        let comp_tys =
          match (init_t, mf.Ir.oouts) with
          | Ty.Tuple ts, _ :: _ :: _ -> ts
          | t, _ -> [ t ]
        in
        List.iter2
          (fun out comp_t ->
            let elt = match comp_t with Ty.Array (t, _) -> t | t -> t in
            let scalar =
              List.for_all (fun (_, l, _) -> l = Ir.Ci 1) out.Ir.oregion
            in
            let acc_t =
              if scalar then elt else Ty.Array (elt, List.length out.Ir.oregion)
            in
            go (Sym.Map.add out.Ir.oacc acc_t env_i) out.Ir.oupd)
          mf.Ir.oouts comp_tys;
        Option.iter (comb env init_t) mf.Ir.ocomb
    | Ir.FlatMap fm -> go (idxs env [ fm.Ir.fmidx ]) fm.Ir.fmbody
    | Ir.GroupByFold g ->
        go env g.Ir.ginit;
        let v_t = Validate.infer env g.Ir.ginit in
        let env_i = lets (idxs env g.Ir.gidxs) g.Ir.glets in
        go env_i g.Ir.gkey;
        go (Sym.Map.add g.Ir.gacc v_t env_i) g.Ir.gupd;
        comb env v_t g.Ir.gcomb
    | e -> Rewrite.iter_children (go env) e
  and lets env ls =
    List.fold_left
      (fun env (s, e1) ->
        go env e1;
        Sym.Map.add s (Validate.infer env e1) env)
      env ls
  and comb env t c =
    go (Sym.Map.add c.Ir.ca t (Sym.Map.add c.Ir.cb t env)) c.Ir.cbody
  in
  go env e;
  List.rev !sites

(* the first node of a checked program whose synthesized type under
   [table] differs from the checked one, or under whose scope a binder has
   another type in [table] *)
let type_of_mismatch (p : Ir.program) table =
  List.find_opt
    (fun (env, e) ->
      not
        (Ty.equal (Validate.type_of table e) (Validate.infer env e)
        && Sym.Map.for_all
             (fun s t ->
               match Validate.binder_type table s with
               | t' -> Ty.equal t' t
               | exception Not_found -> false)
             env))
    (typing_sites (Validate.initial_env p) p.Ir.body)

(* the binders a pattern node introduces itself: its indices, shared
   bindings, accumulators and combine parameters *)
let own_binders = function
  | Ir.Map m -> m.Ir.midxs
  | Ir.Fold f -> f.Ir.fidxs @ [ f.Ir.facc; f.Ir.fcomb.Ir.ca; f.Ir.fcomb.Ir.cb ]
  | Ir.MultiFold mf ->
      mf.Ir.oidxs @ List.map fst mf.Ir.olets
      @ List.map (fun o -> o.Ir.oacc) mf.Ir.oouts
      @ Option.fold ~none:[] ~some:(fun c -> [ c.Ir.ca; c.Ir.cb ]) mf.Ir.ocomb
  | Ir.FlatMap fm -> [ fm.Ir.fmidx ]
  | Ir.GroupByFold g ->
      g.Ir.gidxs @ List.map fst g.Ir.glets
      @ [ g.Ir.gacc; g.Ir.gcomb.Ir.ca; g.Ir.gcomb.Ir.cb ]
  | _ -> []

(* a symbol [p] binds twice, counting its size parameters and inputs:
   one binder table serves a program only when there is none *)
let bound_twice (p : Ir.program) =
  let seen = ref Sym.Set.empty and twice = ref None in
  let bind s =
    if Sym.Set.mem s !seen then twice := Some s
    else seen := Sym.Set.add s !seen
  in
  List.iter bind p.Ir.size_params;
  List.iter (fun i -> bind i.Ir.iname) p.Ir.inputs;
  Rewrite.iter_exp
    (fun n ->
      List.iter bind
        (match n with Ir.Let (s, _, _) -> [ s ] | n -> own_binders n))
    p.Ir.body;
  !twice

(* [None] when every pass agrees with its reference on [p], else the name
   of the first that does not; [table] is the binder table [p] comes with *)
let disagreement (p : Ir.program) table =
  let e = p.Ir.body in
  if Simplify.exp e <> old_simplify e then Some "simplify"
  else if Code_motion.exp e <> old_code_motion e then Some "code-motion"
  else if
    not
      (Alpha.equal (Copy_insert.program p).Ir.body
         (Ref_copy_insert.program p).Ir.body)
  then Some "copy-insert"
  else if
    not (List.equal ( == ) (visits Rewrite.iter_exp e) (visits old_iter_exp e))
  then Some "iter_exp order"
  else if Option.is_some (bound_twice p) then
    Some "binder table (a symbol bound twice)"
  else if Option.is_some (type_of_mismatch p table) then Some "type_of"
  else None

let is_pattern = function
  | Ir.Map _ | Ir.Fold _ | Ir.MultiFold _ | Ir.FlatMap _ | Ir.GroupByFold _ ->
      true
  | _ -> false

(* every binder anywhere in [e] *)
let all_binders e =
  let acc = ref Sym.Set.empty in
  Rewrite.iter_exp
    (fun n ->
      let own = match n with Ir.Let (s, _, _) -> [ s ] | n -> own_binders n in
      acc := List.fold_left (fun a s -> Sym.Set.add s a) !acc own)
    e;
  !acc

(* [None] when every pattern node of [e] keeps the IR's scoping rule, else
   the node and the property it breaks:
   - none of the node's own binders is free in it (a tiled domain reads
     the index of an earlier domain, which it sees bound);
   - refreshing its binders gives an alpha-equal node,
   - with the same free symbols,
   - and no binder of the original. *)
let scoping_violation e =
  let exception Broken of Ir.exp * string in
  let check n =
    let fv = Ir.free_vars n and r = Ir.rename_binders n in
    let broken why = raise (Broken (n, why)) in
    if List.exists (fun s -> Sym.Set.mem s fv) (own_binders n) then
      broken "an own binder is free"
    else if not (Alpha.equal n r) then
      broken "rename_binders is not alpha-equal"
    else if not (Sym.Set.equal (Ir.free_vars r) fv) then
      broken "rename_binders changes the free symbols"
    else if not (Sym.Set.disjoint (all_binders r) (all_binders n)) then
      broken "rename_binders keeps a binder"
  in
  try
    Rewrite.iter_exp (fun n -> if is_pattern n then check n) e;
    None
  with Broken (n, why) -> Some (Pp.exp_to_string n, why)

let stages (r : Tiling.result) source =
  [ ("source", source);
    ("fused", r.Tiling.fused);
    ("stripped", r.Tiling.stripped);
    ("stripped+copies", r.Tiling.stripped_with_copies);
    ("tiled", r.Tiling.tiled) ]

(* every stage with the binder table it comes with: the one its [Tiling]
   check hands on, the one [Interchange] extends from the stripped check
   for its own output, and for the two stages no pass reads, their own
   check's *)
let tables (r : Tiling.result) source =
  let checked p = (p, Validate.table (Validate.check_program p)) in
  let handed c = (Validate.program c, Validate.table c) in
  [ ("source", checked source);
    ("fused", handed r.Tiling.fused_check);
    ("stripped", handed r.Tiling.stripped_check);
    ( "interchanged",
      (* the rules add the binders they mint to the stripped check's table *)
      let p = Interchange.program r.Tiling.stripped_check in
      (p, Validate.table r.Tiling.stripped_check) );
    ("stripped+copies", checked r.Tiling.stripped_with_copies);
    ("tiled", handed r.Tiling.tiled_check) ]

let test_suite_stages () =
  List.iter
    (fun (b : Suite.bench) ->
      let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
      List.iter
        (fun (stage, (p, table)) ->
          match disagreement p table with
          | None -> ()
          | Some pass ->
              Alcotest.failf "%s %s: %s differs from the reference"
                b.Suite.name stage pass)
        (tables r b.Suite.prog))
    (Suite.extended ())

(* the random program of [seed] tiled, the program, and its shape *)
let random_tiling seed =
  let rng = R.make seed in
  let shape_id = R.int rng Gen_programs.n_shapes in
  let s = Gen_programs.make_setup rng shape_id in
  let tiles =
    List.concat
      [ (if R.int rng 4 > 0 then [ (s.Gen_programs.n, 1 + R.int rng 8) ] else []);
        (if R.int rng 4 > 0 then [ (s.Gen_programs.m, 1 + R.int rng 8) ] else []) ]
  in
  (shape_id, Tiling.run ~tiles s.Gen_programs.prog, s.Gen_programs.prog)

let random_stages seed =
  let shape_id, r, source = random_tiling seed in
  (shape_id, stages r source)

let prop_random_stages =
  QCheck.Test.make ~name:"random programs: passes equal their references"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let shape_id, r, source = random_tiling seed in
      List.iter
        (fun (stage, (p, table)) ->
          match disagreement p table with
          | None -> ()
          | Some pass ->
              QCheck.Test.fail_reportf "shape %d seed %d %s: %s differs"
                shape_id seed stage pass)
        (tables r source);
      true)

let test_suite_scoping () =
  List.iter
    (fun (b : Suite.bench) ->
      let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
      List.iter
        (fun (stage, (p : Ir.program)) ->
          match scoping_violation p.Ir.body with
          | None -> ()
          | Some (node, why) ->
              Alcotest.failf "%s %s: %s in\n%s" b.Suite.name stage why node)
        (stages r b.Suite.prog))
    (Suite.extended ())

let prop_random_scoping =
  QCheck.Test.make ~name:"random programs: every pattern keeps the scoping rule"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let shape_id, stages = random_stages seed in
      List.iter
        (fun (stage, (p : Ir.program)) ->
          match scoping_violation p.Ir.body with
          | None -> ()
          | Some (node, why) ->
              QCheck.Test.fail_reportf "shape %d seed %d %s: %s in\n%s"
                shape_id seed stage why node)
        stages;
      true)

(* one node of every constructor, every child a distinct leaf, so the
   whole visit order is pinned, including constructors the suite lacks *)
let every_constructor () =
  let counter = ref 0 in
  let leaf () =
    incr counter;
    Ir.Var (Sym.fresh (Printf.sprintf "v%d" !counter))
  in
  let sym () = Sym.fresh "s" in
  let comb () = { Ir.ca = sym (); cb = sym (); cbody = leaf () } in
  let doms () =
    [ Ir.Dfull (leaf ());
      Ir.Dtiles { total = leaf (); tile = 4 };
      Ir.Dtail { total = leaf (); tile = 4; outer = sym () } ]
  in
  let idxs () = [ sym (); sym (); sym () ] in
  [ Ir.Tup [ leaf (); leaf (); leaf () ];
    Ir.Proj (leaf (), 1);
    Ir.Prim (Ir.Add, [ leaf (); leaf () ]);
    Ir.Let (sym (), leaf (), leaf ());
    Ir.If (leaf (), leaf (), leaf ());
    Ir.Len (leaf (), 0);
    Ir.Read (leaf (), [ leaf (); leaf () ]);
    Ir.Slice (leaf (), [ Ir.SFix (leaf ()); Ir.SAll; Ir.SFix (leaf ()) ]);
    Ir.Copy
      { csrc = leaf ();
        cdims =
          [ Ir.Coffset { off = leaf (); len = leaf (); max_len = Some 8 };
            Ir.Call;
            Ir.Cfix (leaf ());
            Ir.Coffset { off = leaf (); len = leaf (); max_len = None } ];
        creuse = 1 };
    Ir.Zeros (Ty.float_, [ leaf (); leaf () ]);
    Ir.ArrLit [ leaf (); leaf () ];
    Ir.EmptyArr Ty.float_;
    Ir.Cf nan;
    Ir.Map
      { mdims = doms (); midxs = idxs (); mbody = leaf (); mprov = Prov.none };
    Ir.Fold
      { fdims = doms ();
        fidxs = idxs ();
        finit = leaf ();
        facc = sym ();
        fupd = leaf ();
        fcomb = comb ();
        fprov = Prov.none };
    Ir.MultiFold
      { odims = doms ();
        oidxs = idxs ();
        oinit = leaf ();
        olets = [ (sym (), leaf ()); (sym (), leaf ()) ];
        oouts =
          List.init 2 (fun _ ->
              { Ir.orange = [ leaf (); leaf () ];
                oregion =
                  [ (leaf (), leaf (), Some 4); (leaf (), leaf (), None) ];
                oacc = sym ();
                oupd = leaf () });
        ocomb = Some (comb ());
        oprov = Prov.none };
    Ir.FlatMap
      { fmdim = Ir.Dfull (leaf ());
        fmidx = sym ();
        fmbody = leaf ();
        fmprov = Prov.none };
    Ir.GroupByFold
      { gdims = doms ();
        gidxs = idxs ();
        ginit = leaf ();
        glets = [ (sym (), leaf ()); (sym (), leaf ()) ];
        gkey = leaf ();
        gacc = sym ();
        gupd = leaf ();
        gcomb = comb ();
        gprov = Prov.none } ]

let test_visit_order () =
  let names e =
    List.map
      (function Ir.Var s -> Sym.base s | _ -> "node")
      (visits Rewrite.iter_exp e)
  in
  List.iter
    (fun e ->
      if not (List.equal ( == ) (visits Rewrite.iter_exp e) (visits old_iter_exp e))
      then
        Alcotest.failf "iter_exp visits %s, map_children order differs"
          (String.concat " " (names e)))
    (every_constructor ());
  (* the scoped walks of Ir visit the same children in the same order, and
     give each child the same binders *)
  List.iter
    (fun e ->
      let children = ref [] in
      Rewrite.iter_children (fun c -> children := c :: !children) e;
      let iterated = ref [] and mapped = ref [] in
      Ir.iter_scoped
        ~bind:(fun env s -> Sym.Set.add s env)
        ~use:(fun _ _ -> ())
        (fun env c -> iterated := (env, c) :: !iterated)
        Sym.Set.empty e;
      let rebuilt =
        Ir.map_scoped
          ~bind:(fun env s -> Sym.Set.add s env)
          ~use:(fun _ s -> s)
          (fun env c ->
            mapped := (env, c) :: !mapped;
            c)
          Sym.Set.empty e
      in
      let visit = String.concat " " (names e) in
      if not (List.equal ( == ) !children (List.map snd !iterated)) then
        Alcotest.failf "iter_scoped and iter_children differ on %s" visit;
      if
        not
          (List.equal
             (fun (ea, ca) (eb, cb) -> ca == cb && Sym.Set.equal ea eb)
             !iterated !mapped)
      then Alcotest.failf "iter_scoped and map_scoped differ on %s" visit;
      (* [compare], not [=]: the NaN leaf is not [=] to itself *)
      if compare rebuilt (Rewrite.map_children Fun.id e) <> 0 then
        Alcotest.failf "map_scoped rebuilds %s differently" visit)
    (every_constructor ());
  (* the order the design texts depend on, spelled out *)
  let x = Sym.fresh "x" and y = Sym.fresh "y" in
  Alcotest.(check (list string))
    "Let: body before bound expression" [ "node"; "y"; "x" ]
    (names (Ir.Let (Sym.fresh "t", Ir.Var x, Ir.Var y)));
  Alcotest.(check (list string))
    "Read: indices before array" [ "node"; "y"; "x" ]
    (names (Ir.Read (Ir.Var x, [ Ir.Var y ])))

(* every pattern's index list, in [Rewrite.iter_children] pre-order *)
let index_lists e =
  let acc = ref [] in
  let rec go e =
    (match e with
    | Ir.Map { midxs = l; _ }
    | Ir.Fold { fidxs = l; _ }
    | Ir.MultiFold { oidxs = l; _ }
    | Ir.GroupByFold { gidxs = l; _ } ->
        acc := l :: !acc
    | _ -> ());
    Rewrite.iter_children go e
  in
  go e;
  List.rev !acc

(* [subst] binds every binder to itself, so substituting a symbol that
   occurs nowhere rebuilds the nodes but keeps each pattern's index list
   itself, on every constructor and every stage of every suite program *)
let test_subst_keeps_binders () =
  let env = Sym.Map.singleton (Sym.fresh "absent") (Ir.Ci 0) in
  let check what e =
    let before = index_lists e and after = index_lists (Ir.subst env e) in
    if not (List.equal ( == ) before after) then
      Alcotest.failf "%s: subst rebuilt a pattern's index list" what
  in
  List.iter (check "constructor") (every_constructor ());
  List.iter
    (fun (b : Suite.bench) ->
      let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
      List.iter
        (fun (stage, (p : Ir.program)) -> check (b.Suite.name ^ " " ^ stage) p.Ir.body)
        (stages r b.Suite.prog))
    (Suite.extended ())

(* the source of test/nan_const.ppl: [1e400 - 1e400] folds to NaN, which
   is not structurally equal to itself, so structural fixpoints never
   hold on it *)
let nan_source =
  "program nanconst\n\
   size n\n\
   maxsize n 1048576\n\
   input x : Float(n)\n\
   map(n){ i => x(i) + (1e400 - 1e400) }\n"

let test_nan_terminates () =
  let p = Parser.program_of_string nan_source in
  let simplified = Simplify.exp p.Ir.body in
  Alcotest.(check bool)
    "the constant folded to NaN" true
    (Rewrite.exists_exp
       (function Ir.Cf c -> Float.is_nan c | _ -> false)
       simplified);
  ignore (Code_motion.exp simplified);
  let n = List.hd p.Ir.size_params in
  let r = Tiling.run ~tiles:[ (n, 64) ] p in
  Alcotest.(check bool)
    "tiled" true
    (Rewrite.exists_exp
       (function Ir.Copy _ -> true | _ -> false)
       r.Tiling.tiled.Ir.body)

(* binders are fresh symbols, and one table holds them all: the check
   rejects a symbol bound twice, here at two types in sibling scopes,
   where a scoped environment alone would type it (Int, Float) *)
let test_bound_twice () =
  let x = Sym.fresh "x" in
  let body =
    Ir.Tup [ Ir.Let (x, Ir.Ci 1, Ir.Var x); Ir.Let (x, Ir.Cf 1.0, Ir.Var x) ]
  in
  let p =
    { Ir.pname = "twice"; size_params = []; max_sizes = []; inputs = []; body }
  in
  match Validate.check_program p with
  | _ -> Alcotest.fail "a symbol bound twice was accepted"
  | exception Validate.Type_error msg ->
      Alcotest.(check string)
        "message"
        (Printf.sprintf "symbol %s is bound twice" (Sym.name x))
        msg

(* lowering the check a [Tiling] stage hands on gives the design lowering
   the plain program (which checks and stamps it) gives *)
let test_shape_of_checked () =
  List.iter
    (fun (b : Suite.bench) ->
      let r = Tiling.run ~tiles:b.Suite.tiles b.Suite.prog in
      List.iter
        (fun config ->
          let opts, p = Experiments.form config r in
          let check =
            match config with
            | Experiments.Baseline -> r.Tiling.fused_check
            | Experiments.Tiled | Experiments.Tiled_meta -> r.Tiling.tiled_check
          in
          let text d = Hw_pp.design_to_string d in
          Alcotest.(check string)
            (b.Suite.name ^ " " ^ Experiments.config_name config)
            (text (Lower.program opts p))
            (text (Lower.bind opts.Lower.par (Lower.shape opts check))))
        [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ])
    (Suite.extended ())

let () =
  Alcotest.run "linear_passes"
    [ ( "references",
        [ Alcotest.test_case "suite stages" `Quick test_suite_stages;
          QCheck_alcotest.to_alcotest prop_random_stages ] );
      ( "scoping",
        [ Alcotest.test_case "suite stages" `Quick test_suite_scoping;
          QCheck_alcotest.to_alcotest prop_random_scoping ] );
      ( "walks",
        [ Alcotest.test_case "visit order" `Quick test_visit_order;
          Alcotest.test_case "subst keeps unchanged index lists" `Quick
            test_subst_keeps_binders ] );
      ( "checks",
        [ Alcotest.test_case "a symbol bound twice" `Quick test_bound_twice;
          Alcotest.test_case "shape of a checked stage" `Quick
            test_shape_of_checked ] );
      ( "fixpoints",
        [ Alcotest.test_case "NaN constant terminates" `Quick
            test_nan_terminates ] ) ]
