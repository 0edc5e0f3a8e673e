open Ir

(* ------------------------------------------------------------------ *)
(* Access classification                                               *)
(* ------------------------------------------------------------------ *)

(* Lower's affinity rule, verbatim: an index is affine iff its
   simplified form is an affine expression (Vars are atoms, whatever
   they are bound to).  PPL210 and the cross-check must match the
   backend, so this is THE rule, not an approximation of it. *)
let lower_affine idx = Affine.of_exp (Simplify.exp idx) <> None

exception Data_dep

(* Replace maximal loop-invariant subtrees by fresh symbols; a
   loop-varying subtree that is not affine-composable is data-dependent.
   [tainted] holds the symbols that vary with the enclosing iteration:
   pattern indices, accumulators, and let bindings derived from them. *)
let rec skeleton tainted e =
  match e with
  | Ci _ | Var _ -> e
  | _ ->
      if Sym.Set.is_empty (Sym.Set.inter (Ir.free_vars e) tainted) then
        Var (Sym.fresh "inv")
      else (
        match e with
        | Prim (Add, [ a; b ]) ->
            Prim (Add, [ skeleton tainted a; skeleton tainted b ])
        | Prim (Sub, [ a; b ]) ->
            Prim (Sub, [ skeleton tainted a; skeleton tainted b ])
        | Prim (Neg, [ a ]) -> Prim (Neg, [ skeleton tainted a ])
        | Prim (Mul, ([ a; Ci c ] | [ Ci c; a ])) ->
            Prim (Mul, [ skeleton tainted a; Ci c ])
        | _ -> raise Data_dep)

let idx_class tainted idx =
  if lower_affine idx then `Affine
  else
    match Affine.of_exp (Simplify.exp (skeleton tainted idx)) with
    | Some _ -> `Mod_invariant
    | None -> `Data_dependent
    | exception Data_dep -> `Data_dependent

type service = Sequential | Cached

let predicted_services (p : program) =
  let flagged = Hashtbl.create 8 in
  Rewrite.iter_exp
    (function
      | Read (Var s, idxs)
        when List.exists (fun i -> Sym.equal i.iname s) p.inputs ->
          if List.exists (fun i -> not (lower_affine i)) idxs then
            Hashtbl.replace flagged s ()
      | _ -> ())
    p.body;
  List.map
    (fun i ->
      (i.iname, if Hashtbl.mem flagged i.iname then Cached else Sequential))
    p.inputs

let crosscheck ~cache_leftover (p : program) (d : Hw.design) =
  List.filter_map
    (fun (s, svc) ->
      let prefix = Sym.base s ^ "_cache" in
      let has_cache =
        List.exists
          (fun (m : Hw.mem) ->
            m.Hw.kind = Hw.Cache
            && String.starts_with ~prefix m.Hw.mem_name)
          d.Hw.mems
      in
      let expect = svc = Cached && cache_leftover in
      if expect && not has_cache then
        Some
          (Diagnostic.make ~code:"PPL213" ~severity:Diagnostic.Error
             ~where:(Sym.base s)
             "classified data-dependent (cache-served) but the lowered \
              design has no %s memory — lint and backend disagree"
             prefix)
      else if (not expect) && has_cache then
        Some
          (Diagnostic.make ~code:"PPL213" ~severity:Diagnostic.Error
             ~where:(Sym.base s)
             "classified affine (tile/sequential service) but the lowered \
              design instantiated %s — lint and backend disagree"
             prefix)
      else None)
    (predicted_services p)

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  benv : Bounds.env;  (** loop environment for interval proofs *)
  tainted : Sym.Set.t;  (** symbols that vary with the iteration *)
  path : string list;  (** pattern path, outermost first *)
}

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let subst_lets lets e =
  List.fold_left
    (fun e (s, rhs) -> Ir.subst (Sym.Map.singleton s rhs) e)
    e (List.rev lets)

let check_program (p : program) : Diagnostic.t list =
  let p = Tiling.canonicalize_lens p in
  let is_input s = List.exists (fun i -> Sym.equal i.iname s) p.inputs in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let sbound e =
    match Simplify.exp e with
    | Ci c -> Some c
    | Var s -> Ir.max_sizes_bound p s
    | e -> (
        match Affine.of_exp e with
        | Some a when List.for_all (fun (_, c) -> c >= 0) a.Affine.terms ->
            List.fold_left
              (fun acc (s, c) ->
                match (acc, Ir.max_sizes_bound p s) with
                | Some t, Some m -> Some (t + (c * m))
                | _ -> None)
              (Some a.Affine.const) a.Affine.terms
        | _ -> None)
  in
  let extent = function
    | Dfull e -> sbound e
    | Dtiles { total; tile } ->
        Option.map (fun t -> (t + tile - 1) / tile) (sbound total)
    | Dtail { tile; _ } -> Some tile
  in
  let syms_s l = String.concat "," (List.map Sym.name l) in

  (* ---- PPL210/211/212: classify one input read ---- *)
  let classify_read ctx s idxs rendered =
    let cls =
      List.fold_left
        (fun worst i ->
          match (worst, idx_class ctx.tainted i) with
          | `Data_dependent, _ | _, `Data_dependent -> `Data_dependent
          | `Mod_invariant, _ | _, `Mod_invariant -> `Mod_invariant
          | `Affine, `Affine -> `Affine)
        `Affine idxs
    in
    let mk code fmt =
      Diagnostic.make ~path:ctx.path ~code ~severity:Diagnostic.Info
        ~where:(Sym.name s) fmt
    in
    emit
      (match cls with
      | `Affine ->
          mk "PPL210"
            "%s: affine access — tile-buffer / sequential DRAM service"
            rendered
      | `Mod_invariant ->
          mk "PPL211"
            "%s: affine modulo loop-invariant terms — cache-served by the \
             current backend (tile service would need base-address \
             reconfiguration)"
            rendered
      | `Data_dependent ->
          mk "PPL212"
            "%s: data-dependent indices — served through a cache/CAM, not \
             a tile buffer"
            rendered)
  in

  (* ---- PPL222: division / log / sqrt guards ---- *)
  let guard ctx op e =
    let min_wanted = match op with `Div -> 1 | `Log -> 1 | `Sqrt -> 0 in
    let opname =
      match op with `Div -> "division" | `Log -> "log" | `Sqrt -> "sqrt"
    in
    let mk sev fmt =
      Diagnostic.make ~path:ctx.path ~code:"PPL222" ~severity:sev
        ~where:opname fmt
    in
    let describe =
      match op with
      | `Div -> "denominator not provably nonzero"
      | `Log -> "argument not provably positive"
      | `Sqrt -> "argument not provably nonnegative"
    in
    match Simplify.exp e with
    | Ci 0 -> emit (mk Diagnostic.Error "%s by constant zero" opname)
    | Cf f when f = 0.0 && op <> `Sqrt ->
        emit (mk Diagnostic.Error "%s of/by constant zero" opname)
    | Cf f when f < 0.0 && op <> `Div ->
        emit (mk Diagnostic.Error "%s of negative constant %g" opname f)
    | Ci _ | Cf _ -> ()
    | e' -> (
        let arg = match e' with Prim (ToFloat, [ x ]) -> x | x -> x in
        match Bounds.prove_ge ctx.benv arg min_wanted with
        | `Proven -> ()
        | `Violated when op <> `Div ->
            emit
              (mk Diagnostic.Error "%s: provably < %d: %s" describe
                 min_wanted (Pp.exp_to_string e))
        | `Violated | `Unknown ->
            emit (mk Diagnostic.Info "%s: %s" describe (Pp.exp_to_string e)))
  in

  (* ---- PPL220 (Len-sized domain) ---- *)
  let check_dom ctx idx d =
    match d with
    | Dfull e
      when Rewrite.exists_exp (function Len _ -> true | _ -> false) e ->
        emit
          (Diagnostic.make ~path:ctx.path ~code:"PPL220"
             ~severity:Diagnostic.Info ~where:(Sym.name idx)
             "domain %s is sized by a dynamically produced collection — \
              the dimension cannot be strip-mined; it is served by FIFO \
              streaming"
             (Pp.exp_to_string e))
    | _ -> ()
  in

  (* ---- PPL221: unused pattern indices ---- *)
  let check_unused ctx kind dims idxs parts =
    let used =
      List.fold_left
        (fun acc e -> Sym.Set.union acc (Ir.free_vars e))
        Sym.Set.empty parts
    in
    let used =
      List.fold_left
        (fun acc d ->
          match d with Dtail { outer; _ } -> Sym.Set.add outer acc | _ -> acc)
        used dims
    in
    List.iter
      (fun s ->
        if not (Sym.Set.mem s used) then
          emit
            (Diagnostic.make ~path:ctx.path ~code:"PPL221"
               ~severity:Diagnostic.Warning ~where:(Sym.name s)
               "%s index %s is never used: the dimension multiplies work \
                without addressing anything"
               kind (Sym.name s)))
      idxs
  in
  let check_dead_lets ctx lets rest_parts =
    let rec go = function
      | [] -> ()
      | (s, _) :: later ->
          let scope = List.map snd later @ rest_parts in
          if
            not
              (List.exists (fun e -> Sym.Set.mem s (Ir.free_vars e)) scope)
          then
            emit
              (Diagnostic.make ~path:ctx.path ~code:"PPL221"
                 ~severity:Diagnostic.Warning ~where:(Sym.name s)
                 "dead binding %s: bound but never used" (Sym.name s));
          go later
    in
    go lets
  in

  (* ---- PPL201/202: MultiFold write maps ---- *)
  let check_multifold ctx (mf : multifold_node) =
    let axes =
      List.map2
        (fun d s -> { Depend.asym = s; extent = extent d })
        mf.odims mf.oidxs
    in
    let innermost = last mf.oidxs in
    List.iter
      (fun (out : mf_out) ->
        let region =
          List.map
            (fun (off, len, b) ->
              (subst_lets mf.olets off, subst_lets mf.olets len, b))
            out.oregion
        in
        let offs =
          List.map
            (fun (off, _, _) -> Affine.of_exp (Simplify.exp off))
            region
        in
        if List.for_all Option.is_some offs then begin
          (* a region longer than 1 behaves like an extra unit-stride
             axis in that output dimension *)
          let syn =
            List.map
              (fun (_, len, b) ->
                match Simplify.exp len with
                | Ci 1 -> None
                | Ci c -> Some { Depend.asym = Sym.fresh "r"; extent = Some c }
                | _ -> Some { Depend.asym = Sym.fresh "r"; extent = b })
              region
          in
          let maps =
            List.map2
              (fun off s ->
                let off = Option.get off in
                match s with
                | None -> off
                | Some a -> Affine.add off (Affine.var a.Depend.asym))
              offs syn
          in
          let syn_axes = List.filter_map Fun.id syn in
          let verdict =
            Depend.injectivity ~axes:(axes @ syn_axes) maps
          in
          match verdict with
          | Depend.Injective | Depend.Unknown _ -> ()
          | Depend.Overlapping { dims; reason } ->
              (* axes with zero coefficient in every output dimension are
                 reduction axes: with a combine function present that is
                 the intended multiFold semantics (sum over j into
                 acc(i)), not a race *)
              let reduction_axes =
                List.for_all
                  (fun s ->
                    List.for_all (fun m -> Affine.coeff m s = 0) maps)
                  dims
              in
              let par s =
                (match innermost with
                | Some i -> Sym.equal s i
                | None -> false)
                || List.exists
                     (fun a -> Sym.equal a.Depend.asym s)
                     syn_axes
              in
              let dim_names =
                syms_s
                  (List.filter
                     (fun s ->
                       List.exists
                         (fun a -> Sym.equal a.Depend.asym s)
                         syn_axes
                       |> not)
                     dims)
              in
              let dim_names =
                if dim_names = "" then "region" else dim_names
              in
              if mf.ocomb = None then
                emit
                  (Diagnostic.make ~path:ctx.path ~code:"PPL201"
                     ~severity:Diagnostic.Error ~where:(Sym.name out.oacc)
                     "combine-less multiFold writes some accumulator cell \
                      more than once (%s; dims %s): the exactly-once \
                      contract is violated"
                     reason dim_names)
              else if reduction_axes then ()
              else if List.exists par dims then
                emit
                  (Diagnostic.make ~path:ctx.path ~code:"PPL201"
                     ~severity:Diagnostic.Error ~where:(Sym.name out.oacc)
                     "accumulator write race: the write map is \
                      non-injective along the parallelized dimension \
                      (%s; dims %s)"
                     reason dim_names)
              else
                emit
                  (Diagnostic.make ~path:ctx.path ~code:"PPL202"
                     ~severity:Diagnostic.Warning ~where:(Sym.name out.oacc)
                     "non-injective accumulator writes across serial \
                      dimension(s) %s: accumulation is order-dependent and \
                      the dimension cannot be parallelized (%s)"
                     dim_names reason)
        end)
      mf.oouts
  in

  (* ---- PPL202 (fold ignores acc) / PPL220 (carried dependence) ---- *)
  let check_fold ctx (f : fold_node) =
    if not (Sym.Set.mem f.facc (Ir.free_vars f.fupd)) then
      emit
        (Diagnostic.make ~path:ctx.path ~code:"PPL202"
           ~severity:Diagnostic.Warning ~where:(Sym.name f.facc)
           "fold update never reads the accumulator: iterations overwrite \
            instead of accumulating — parallelization is a race (did you \
            mean a map?)");
    Rewrite.iter_exp
      (function
        | Read ((Var a | Proj (Var a, _)), idxs) when Sym.equal a f.facc ->
            List.iter
              (fun i ->
                match Affine.of_exp (Simplify.exp i) with
                | Some aff
                  when List.exists
                         (fun s -> Affine.coeff aff s <> 0)
                         f.fidxs ->
                    emit
                      (Diagnostic.make ~path:ctx.path ~code:"PPL220"
                         ~severity:Diagnostic.Warning
                         ~where:(Sym.name f.facc)
                         "accumulator read %s depends on the fold index: \
                          loop-carried dependence across the dimension \
                          blocks strip-mining and parallelization"
                         (Pp.exp_to_string i))
                | _ -> ())
              idxs
        | _ -> ())
      f.fupd
  in

  (* ---- PPL203: degenerate GroupByFold keys ---- *)
  let check_groupbyfold ctx (g : groupbyfold_node) =
    let key = subst_lets g.glets g.gkey in
    match (Affine.of_exp (Simplify.exp key), last g.gidxs) with
    | Some aff, Some inner when Affine.coeff aff inner = 0 ->
        if List.for_all (fun s -> Affine.coeff aff s = 0) g.gidxs then
          emit
            (Diagnostic.make ~path:ctx.path ~code:"PPL203"
               ~severity:Diagnostic.Warning ~where:(Sym.name g.gacc)
               "groupByFold key %s is constant over the iteration domain: \
                every iteration updates a single bucket — this is a fold \
                paying for a CAM"
               (Pp.exp_to_string g.gkey))
        else
          emit
            (Diagnostic.make ~path:ctx.path ~code:"PPL203"
               ~severity:Diagnostic.Warning ~where:(Sym.name g.gacc)
               "groupByFold key %s is constant along the innermost \
                (parallelized) dimension: all lanes of a tile update the \
                same bucket and serialize on the CAM"
               (Pp.exp_to_string g.gkey))
    | _ -> ()
  in

  let enter ctx kind dims idxs =
    let benv =
      List.fold_left2 (fun b s d -> Bounds.enter b s d) ctx.benv idxs dims
    in
    { benv;
      tainted = List.fold_right Sym.Set.add idxs ctx.tainted;
      path = ctx.path @ [ Printf.sprintf "%s(%s)" kind (syms_s idxs) ] }
  in
  let taint ctx syms = { ctx with tainted = List.fold_right Sym.Set.add syms ctx.tainted } in
  let taint_let ctx s rhs =
    if Sym.Set.is_empty (Sym.Set.inter (Ir.free_vars rhs) ctx.tainted) then ctx
    else taint ctx [ s ]
  in

  let rec walk ctx e =
    (* inspections *)
    (match e with
    | Read (Var s, idxs) when is_input s && idxs <> [] ->
        classify_read ctx s idxs (Pp.exp_to_string e)
    | Prim (Div, [ _; den ]) | Prim (Mod, [ _; den ]) -> guard ctx `Div den
    | Prim (Sqrt, [ a ]) -> guard ctx `Sqrt a
    | Prim (Log, [ a ]) -> guard ctx `Log a
    | Let (s, _, body) when not (Sym.Set.mem s (Ir.free_vars body)) ->
        emit
          (Diagnostic.make ~path:ctx.path ~code:"PPL221"
             ~severity:Diagnostic.Warning ~where:(Sym.name s)
             "dead binding %s: bound but never used" (Sym.name s))
    | _ -> ());
    (* recursion with loop environments *)
    match e with
    | Map m ->
        List.iter2 (check_dom ctx) m.midxs m.mdims;
        check_unused ctx "map" m.mdims m.midxs [ m.mbody ];
        walk (enter ctx "map" m.mdims m.midxs) m.mbody
    | Fold f ->
        walk ctx f.finit;
        List.iter2 (check_dom ctx) f.fidxs f.fdims;
        check_unused ctx "fold" f.fdims f.fidxs [ f.fupd ];
        let ctx' = taint (enter ctx "fold" f.fdims f.fidxs) [ f.facc ] in
        check_fold ctx' f;
        walk ctx' f.fupd;
        walk (taint ctx [ f.fcomb.ca; f.fcomb.cb ]) f.fcomb.cbody
    | MultiFold mf ->
        walk ctx mf.oinit;
        List.iter2 (check_dom ctx) mf.oidxs mf.odims;
        check_unused ctx "multiFold" mf.odims mf.oidxs
          (List.map snd mf.olets
          @ List.concat_map
              (fun o ->
                o.oupd
                :: List.concat_map (fun (off, l, _) -> [ off; l ]) o.oregion)
              mf.oouts);
        let ctx0 = enter ctx "multiFold" mf.odims mf.oidxs in
        check_multifold ctx0 mf;
        check_dead_lets ctx0 mf.olets
          (List.concat_map
             (fun o ->
               o.oupd
               :: List.concat_map (fun (off, l, _) -> [ off; l ]) o.oregion)
             mf.oouts);
        let ctx' =
          List.fold_left
            (fun c (s, rhs) ->
              walk c rhs;
              taint_let c s rhs)
            ctx0 mf.olets
        in
        List.iter
          (fun o ->
            List.iter
              (fun (off, l, _) ->
                walk ctx' off;
                walk ctx' l)
              o.oregion;
            walk (taint ctx' [ o.oacc ]) o.oupd)
          mf.oouts;
        Option.iter
          (fun c -> walk (taint ctx [ c.ca; c.cb ]) c.cbody)
          mf.ocomb
    | FlatMap fm ->
        check_dom ctx fm.fmidx fm.fmdim;
        check_unused ctx "flatMap" [ fm.fmdim ] [ fm.fmidx ] [ fm.fmbody ];
        walk (enter ctx "flatMap" [ fm.fmdim ] [ fm.fmidx ]) fm.fmbody
    | GroupByFold g ->
        walk ctx g.ginit;
        List.iter2 (check_dom ctx) g.gidxs g.gdims;
        check_unused ctx "groupByFold" g.gdims g.gidxs
          ((g.gkey :: g.gupd :: List.map snd g.glets));
        let ctx0 = enter ctx "groupByFold" g.gdims g.gidxs in
        check_groupbyfold ctx0 g;
        check_dead_lets ctx0 g.glets [ g.gkey; g.gupd ];
        let ctx' =
          List.fold_left
            (fun c (s, rhs) ->
              walk c rhs;
              taint_let c s rhs)
            ctx0 g.glets
        in
        walk ctx' g.gkey;
        walk (taint ctx' [ g.gacc ]) g.gupd;
        walk (taint ctx [ g.gcomb.ca; g.gcomb.cb ]) g.gcomb.cbody
    | Let (s, rhs, body) ->
        walk ctx rhs;
        walk (taint_let ctx s rhs) body
    | e -> Rewrite.iter_children (walk ctx) e
  in
  walk { benv = Bounds.top; tainted = Sym.Set.empty; path = [] } p.body;
  List.sort Diagnostic.compare !diags

let check_all p =
  List.sort Diagnostic.compare (check_program p @ Bounds.check_program p)
