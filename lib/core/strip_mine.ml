open Ir

type ctx = {
  tiles : (Sym.t * int) list;
  tenv : Ty.t Sym.Map.t;
  bound : exp -> int option;
}

let add_ty ctx s t = { ctx with tenv = Sym.Map.add s t ctx.tenv }
let add_idxs ctx idxs =
  { ctx with
    tenv = List.fold_left (fun m s -> Sym.Map.add s Ty.int_ m) ctx.tenv idxs }

let type_of ctx e = Validate.type_of ctx.tenv e

(* --------------------------------------------------------------- *)
(* Dimension plans                                                  *)
(* --------------------------------------------------------------- *)

type plan =
  | Keep of { dom : dom; inner : Sym.t }
  | Tile of { total : exp; tile : int; ii : Sym.t; inner : Sym.t }

let plan_dims ctx dims idxs =
  List.map2
    (fun d s ->
      match d with
      | Dfull (Var sz) -> (
          match List.find_opt (fun (t, _) -> Sym.equal t sz) ctx.tiles with
          | Some (_, b) ->
              Tile
                { total = Var sz;
                  tile = b;
                  ii = Sym.fresh "ii";
                  inner = Sym.fresh (Sym.base s) }
          | None -> Keep { dom = d; inner = Sym.fresh (Sym.base s) })
      | _ -> Keep { dom = d; inner = Sym.fresh (Sym.base s) })
    dims idxs

let any_tiled plans = List.exists (function Tile _ -> true | Keep _ -> false) plans

let index_subst plans idxs =
  List.fold_left2
    (fun m plan s ->
      match plan with
      | Tile { tile; ii; inner; _ } ->
          Sym.Map.add s
            (Prim (Add, [ Prim (Mul, [ Var ii; Ci tile ]); Var inner ]))
            m
      | Keep { inner; _ } -> Sym.Map.add s (Var inner) m)
    Sym.Map.empty plans idxs

let outer_doms plans =
  List.filter_map
    (function
      | Tile { total; tile; ii; _ } -> Some (Dtiles { total; tile }, ii)
      | Keep _ -> None)
    plans

let inner_dom = function
  | Tile { total; tile; ii; _ } -> Dtail { total; tile; outer = ii }
  | Keep { dom; _ } -> dom

let inner_idx = function Tile { inner; _ } | Keep { inner; _ } -> inner

let dim_total = function
  | Dfull e -> e
  | Dtiles { total; _ } | Dtail { total; _ } -> total

let plan_total = function
  | Tile { total; _ } -> total
  | Keep { dom; _ } -> dim_total dom

(* --------------------------------------------------------------- *)
(* The transformation                                               *)
(* --------------------------------------------------------------- *)

let rec sm ctx e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ | Zeros _ -> e
  | Tup _ | Proj _ | Prim _ | If _ | Len _ | Read _ | Slice _ | Copy _
  | ArrLit _ ->
      Rewrite.map_children (sm ctx) e
  | Let (s, e1, e2) ->
      let t1 = type_of ctx e1 in
      Let (s, sm ctx e1, sm (add_ty ctx s t1) e2)
  | Map m -> sm_map ctx m
  | Fold f -> sm_fold ctx f
  | MultiFold mf -> sm_multifold ctx mf
  | FlatMap fm -> sm_flatmap ctx fm
  | GroupByFold g -> sm_groupbyfold ctx g

(* Combine functions are merge operators, not data-parallel loops over
   main-memory data: they never benefit from tiling (their operands are
   already on-chip accumulators) and localization must be able to
   recognize their elementwise structure, so they are left untouched. *)
and sm_comb _ctx _acc_t c = c

(* T[Map]: MultiFold over tiles writing rectangular regions, each holding
   an inner Map over one tile (Table 1, first rule). *)
and sm_map ctx ({ mdims; midxs; mbody; mprov } as m) =
  let ctx_body = add_idxs ctx midxs in
  let body' = sm ctx_body mbody in
  let plans = plan_dims ctx mdims midxs in
  if not (any_tiled plans) then Map { m with mbody = body' }
  else begin
    let elt = type_of ctx_body mbody in
    let sigma = index_subst plans midxs in
    let inner_map =
      Map
        { mdims = List.map inner_dom plans;
          midxs = List.map inner_idx plans;
          mbody = Ir.subst sigma body';
          mprov = Prov.push mprov "strip_mine.tile" }
    in
    let range = List.map plan_total plans in
    let region =
      List.map
        (function
          | Tile { tile; ii; _ } as p ->
              ( Prim (Mul, [ Var ii; Ci tile ]),
                dom_size (inner_dom p),
                Some tile )
          | Keep { dom; _ } ->
              (Ci 0, dim_total dom, ctx.bound (dim_total dom)))
        plans
    in
    MultiFold
      { odims = List.map fst (outer_doms plans);
        oidxs = List.map snd (outer_doms plans);
        oinit = Zeros (elt, range);
        olets = [];
        oouts =
          [ { orange = range;
              oregion = region;
              oacc = Sym.fresh "acc";
              oupd = inner_map } ];
        ocomb = None;
        oprov = Prov.push mprov "strip_mine" }
  end

(* T[Fold]: strided fold of per-tile folds, merged with the combine
   function (Table 1, second rule restricted to whole-accumulator
   updates). *)
and sm_fold ctx { fdims; fidxs; finit; facc; fupd; fcomb; fprov } =
  let acc_t = type_of ctx finit in
  let finit' = sm ctx finit in
  let ctx_body = add_ty (add_idxs ctx fidxs) facc acc_t in
  let fupd' = sm ctx_body fupd in
  let fcomb' = sm_comb ctx acc_t fcomb in
  let plans = plan_dims ctx fdims fidxs in
  if not (any_tiled plans) then
    Fold
      { fdims; fidxs; finit = finit'; facc; fupd = fupd'; fcomb = fcomb';
        fprov }
  else begin
    let sigma = index_subst plans fidxs in
    let inner =
      Fold
        { fdims = List.map inner_dom plans;
          fidxs = List.map inner_idx plans;
          finit = Ir.rename_binders finit';
          facc;
          fupd = Ir.subst sigma fupd';
          fcomb = Combs.rename fcomb';
          fprov = Prov.push fprov "strip_mine.tile" }
    in
    let acc_o = Sym.fresh (Sym.base facc) in
    Fold
      { fdims = List.map fst (outer_doms plans);
        fidxs = List.map snd (outer_doms plans);
        finit = finit';
        facc = acc_o;
        fupd = comb_apply (Combs.rename fcomb') (Var acc_o) inner;
        fcomb = fcomb';
        fprov = Prov.push fprov "strip_mine" }
  end

and sm_multifold ctx ({ odims; oidxs; oinit; olets; oouts; ocomb; oprov } as mf) =
  let init_t = type_of ctx oinit in
  let comp_tys =
    match (init_t, oouts) with
    | Ty.Tuple ts, _ :: _ :: _ -> ts
    | t, _ -> [ t ]
  in
  let oinit' = sm ctx oinit in
  let ctx_i = add_idxs ctx oidxs in
  (* transform shared bindings left to right, extending the environment *)
  let ctx_i, olets' =
    List.fold_left
      (fun (c, acc) (s, e1) ->
        let t1 = type_of c e1 in
        (add_ty c s t1, (s, sm c e1) :: acc))
      (ctx_i, []) olets
  in
  let olets' = List.rev olets' in
  let oouts' =
    List.map2
      (fun out comp_t ->
        let elt =
          match comp_t with Ty.Array (elt, _) -> elt | t -> t
        in
        let unit_region =
          List.for_all (fun (_, l, _) -> l = Ci 1) out.oregion
        in
        let acc_t =
          if out.oregion = [] || unit_region then elt
          else Ty.Array (elt, List.length out.oregion)
        in
        { out with
          oregion = List.map (fun (o, l, b) -> (sm ctx_i o, sm ctx_i l, b)) out.oregion;
          oupd = sm (add_ty ctx_i out.oacc acc_t) out.oupd })
      oouts comp_tys
  in
  let ocomb' = Option.map (sm_comb ctx init_t) ocomb in
  let plans = plan_dims ctx odims oidxs in
  if not (any_tiled plans) then
    MultiFold { mf with oinit = oinit'; olets = olets'; oouts = oouts'; ocomb = ocomb' }
  else
    match ocomb' with
    | None -> flatten_multifold oprov plans oidxs oinit' olets' oouts'
    | Some comb' -> (
        match localizable oprov ctx plans oidxs oinit' oouts' comb' with
        | Some result -> result
        | None ->
            fold_of_multifold oprov plans oidxs oinit' olets' oouts' comb')

(* Combine-less MultiFold: equivalent flattened form with [Dtiles; Dtail]
   dimension pairs. *)
and flatten_multifold oprov plans oidxs oinit' olets' oouts' =
  let sigma = index_subst plans oidxs in
  let dims, idxs =
    List.fold_right
      (fun plan (ds, is_) ->
        match plan with
        | Tile { total; tile; ii; inner } ->
            ( Dtiles { total; tile } :: Dtail { total; tile; outer = ii } :: ds,
              ii :: inner :: is_ )
        | Keep { dom; inner } -> (dom :: ds, inner :: is_))
      plans ([], [])
  in
  MultiFold
    { odims = dims;
      oidxs = idxs;
      oinit = oinit';
      olets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) olets';
      oouts =
        List.map
          (fun out ->
            { out with
              oregion =
                List.map
                  (fun (o, l, b) -> (Ir.subst sigma o, Ir.subst sigma l, b))
                  out.oregion;
              oupd = Ir.subst sigma out.oupd })
          oouts';
      ocomb = None;
      oprov = Prov.push oprov "strip_mine" }

(* MultiFold with a combine whose updates cannot be localized: strided Fold
   of per-tile MultiFolds (the k-means shape, Fig. 5a). *)
and fold_of_multifold oprov plans oidxs oinit' olets' oouts' comb' =
  let sigma = index_subst plans oidxs in
  let inner =
    MultiFold
      { odims = List.map inner_dom plans;
        oidxs = List.map inner_idx plans;
        oinit = Ir.rename_binders oinit';
        olets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) olets';
        oouts =
          List.map
            (fun out ->
              { out with
                oregion =
                  List.map
                    (fun (o, l, b) -> (Ir.subst sigma o, Ir.subst sigma l, b))
                    out.oregion;
                oupd = Ir.subst sigma out.oupd })
            oouts';
        ocomb = Some comb';
        oprov = Prov.push oprov "strip_mine.tile" }
  in
  let acc_o = Sym.fresh "acc" in
  Fold
    { fdims = List.map fst (outer_doms plans);
      fidxs = List.map snd (outer_doms plans);
      finit = oinit';
      facc = acc_o;
      fupd = comb_apply (Combs.rename comb') (Var acc_o) inner;
      fcomb = Combs.rename comb';
      fprov = Prov.push oprov "strip_mine" }

(* Accumulator localization (Table 2, sumrows): when the single output's
   update regions are unit regions addressed exactly by tiled indices and
   the combine is elementwise, the inner MultiFold reduces into a
   tile-sized accumulator and the outer writes tile slices. *)
and localizable oprov ctx plans oidxs oinit' oouts' comb' =
  match (oouts', Combs.elementwise comb') with
  | [ out ], Some build -> (
      match oinit' with
      | Zeros (elt_ty, _) ->
          let plan_of_idx s =
            let rec go plans idxs =
              match (plans, idxs) with
              | p :: ps, i :: is_ ->
                  if Sym.equal i s then Some p else go ps is_
              | _ -> None
            in
            go plans oidxs
          in
          let classify (off, len, _) =
            if len = Ci 1 then
              match off with
              | Var s -> (
                  match plan_of_idx s with
                  | Some (Tile _ as p) -> `Ltile p
                  | _ -> `Lfull)
              | _ -> `Lfull
            else `Lfull
          in
          let classes = List.map classify out.oregion in
          if
            not
              (List.exists (function `Ltile _ -> true | `Lfull -> false) classes)
          then None
          else begin
            let sigma = index_subst plans oidxs in
            (* full localized shape, one entry per range dimension *)
            let inner_shape =
              List.map2
                (fun cls (range_e : exp) ->
                  match cls with
                  | `Ltile p -> dom_size (inner_dom p)
                  | `Lfull -> range_e)
                classes out.orange
            in
            let inner_region =
              List.map2
                (fun cls (o, l, b) ->
                  match cls with
                  | `Ltile p -> (Var (inner_idx p), Ci 1, Some 1)
                  | `Lfull -> (Ir.subst sigma o, Ir.subst sigma l, b))
                classes out.oregion
            in
            let inner =
              MultiFold
                { odims = List.map inner_dom plans;
                  oidxs = List.map inner_idx plans;
                  oinit = Zeros (elt_ty, inner_shape);
                  olets = [];
                  oouts =
                    [ { orange = inner_shape;
                        oregion = inner_region;
                        oacc = out.oacc;
                        oupd = Ir.subst sigma out.oupd } ];
                  ocomb =
                    Some
                      (let a = Sym.fresh "a" and b = Sym.fresh "b" in
                       { ca = a;
                         cb = b;
                         cbody = build inner_shape (Var a) (Var b) });
                  oprov = Prov.push oprov "strip_mine.tile" }
            in
            let outer_region =
              List.map2
                (fun cls (range_e : exp) ->
                  match cls with
                  | `Ltile (Tile { tile; ii; _ } as p) ->
                      ( Prim (Mul, [ Var ii; Ci tile ]),
                        dom_size (inner_dom p),
                        Some tile )
                  | `Ltile (Keep _) -> assert false
                  | `Lfull -> (Ci 0, range_e, ctx.bound range_e))
                classes out.orange
            in
            let oacc2 = Sym.fresh "acc" in
            Some
              (MultiFold
                 { odims = List.map fst (outer_doms plans);
                   oidxs = List.map snd (outer_doms plans);
                   oinit = oinit';
                   olets = [];
                   oouts =
                     [ { orange = out.orange;
                         oregion = outer_region;
                         oacc = oacc2;
                         oupd = build inner_shape (Var oacc2) inner } ];
                   ocomb = Some (Combs.rename comb');
                   oprov = Prov.push oprov "strip_mine" })
          end
      | _ -> None)
  | _ -> None

(* T[FlatMap]: FlatMap over tiles of FlatMaps over one tile (Table 1). *)
and sm_flatmap ctx { fmdim; fmidx; fmbody; fmprov } =
  let body' = sm (add_idxs ctx [ fmidx ]) fmbody in
  match plan_dims ctx [ fmdim ] [ fmidx ] with
  | [ Tile { total; tile; ii; inner } ] ->
      let sigma =
        Sym.Map.singleton fmidx
          (Prim (Add, [ Prim (Mul, [ Var ii; Ci tile ]); Var inner ]))
      in
      FlatMap
        { fmdim = Dtiles { total; tile };
          fmidx = ii;
          fmbody =
            FlatMap
              { fmdim = Dtail { total; tile; outer = ii };
                fmidx = inner;
                fmbody = Ir.subst sigma body';
                fmprov = Prov.push fmprov "strip_mine.tile" };
          fmprov = Prov.push fmprov "strip_mine" }
  | _ -> FlatMap { fmdim; fmidx; fmbody = body'; fmprov }

(* T[GroupByFold]: flattened tiled form (Table 1's nested form merges
   buckets tile-wise with the same combine; the flattened form streams the
   same elements through the same buckets). *)
and sm_groupbyfold ctx
    { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; gprov } =
  let v_t = type_of ctx ginit in
  let ginit' = sm ctx ginit in
  let ctx_i = add_idxs ctx gidxs in
  let ctx_i, glets' =
    List.fold_left
      (fun (c, acc) (s, e1) ->
        let t1 = type_of c e1 in
        (add_ty c s t1, (s, sm c e1) :: acc))
      (ctx_i, []) glets
  in
  let glets' = List.rev glets' in
  let gkey' = sm ctx_i gkey in
  let gupd' = sm (add_ty ctx_i gacc v_t) gupd in
  let gcomb' = sm_comb ctx v_t gcomb in
  let plans = plan_dims ctx gdims gidxs in
  if not (any_tiled plans) then
    GroupByFold
      { gdims; gidxs; ginit = ginit'; glets = glets'; gkey = gkey'; gacc;
        gupd = gupd'; gcomb = gcomb'; gprov }
  else begin
    let sigma = index_subst plans gidxs in
    let dims, idxs =
      List.fold_right
        (fun plan (ds, is_) ->
          match plan with
          | Tile { total; tile; ii; inner } ->
              ( Dtiles { total; tile } :: Dtail { total; tile; outer = ii } :: ds,
                ii :: inner :: is_ )
          | Keep { dom; inner } -> (dom :: ds, inner :: is_))
        plans ([], [])
    in
    GroupByFold
      { gdims = dims;
        gidxs = idxs;
        ginit = ginit';
        glets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) glets';
        gkey = Ir.subst sigma gkey';
        gacc;
        gupd = Ir.subst sigma gupd';
        gcomb = gcomb';
        gprov = Prov.push gprov "strip_mine" }
  end

let exp ~tiles ~tenv ~bound e = sm { tiles; tenv; bound } e

let program ~tiles (p : program) =
  let tenv = Validate.initial_env p in
  { p with body = exp ~tiles ~tenv ~bound:(Ir.size_bound p) p.body }
