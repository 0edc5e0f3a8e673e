open Ir

type ctx = {
  tiles : (Sym.t * int) list;
  types : Validate.table;  (* the input's, from its check *)
  bound : exp -> int option;
}

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

(* the flattened tiled form's domains and indices: each tiled dimension
   becomes a [Dtiles; Dtail] pair over its tile and in-tile indices *)
let flat_dims plans =
  List.fold_right
    (fun plan (ds, is_) ->
      match plan with
      | Tile { total; tile; ii; inner } ->
          ( Dtiles { total; tile } :: Dtail { total; tile; outer = ii } :: ds,
            ii :: inner :: is_ )
      | Keep { dom; inner } -> (dom :: ds, inner :: is_))
    plans ([], [])

let subst_outs sigma oouts =
  List.map
    (fun out ->
      { out with
        oregion =
          List.map
            (fun (o, l, b) -> (Ir.subst sigma o, Ir.subst sigma l, b))
            out.oregion;
        oupd = Ir.subst sigma out.oupd })
    oouts

(* --------------------------------------------------------------- *)
(* The transformation                                               *)
(* --------------------------------------------------------------- *)

let rec sm ctx e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ | Zeros _ -> e
  | Tup _ | Proj _ | Prim _ | Let _ | If _ | Len _ | Read _ | Slice _
  | Copy _ | ArrLit _ ->
      Rewrite.map_children (sm ctx) e
  | Map m -> sm_map ctx m
  | Fold f -> sm_fold ctx f
  | MultiFold mf -> sm_multifold ctx mf
  | FlatMap fm -> sm_flatmap ctx fm
  | GroupByFold g -> sm_groupbyfold ctx g

(* T[Map]: MultiFold over tiles writing rectangular regions, each holding
   an inner Map over one tile (Table 1, first rule). *)
and sm_map ctx ({ mdims; midxs; mbody; mprov } as m) =
  let body' = sm ctx mbody in
  let plans = plan_dims ctx mdims midxs in
  if not (any_tiled plans) then Map { m with mbody = body' }
  else begin
    let elt = Validate.type_of ctx.types mbody in
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
   updates).

   Combine functions, here and in every pattern below, are merge
   operators, not data-parallel loops over main-memory data: they never
   benefit from tiling (their operands are already on-chip accumulators)
   and localization must be able to recognize their elementwise
   structure, so they are left untouched. *)
and sm_fold ctx { fdims; fidxs; finit; facc; fupd; fcomb; fprov } =
  let finit' = sm ctx finit in
  let fupd' = sm ctx fupd in
  let plans = plan_dims ctx fdims fidxs in
  if not (any_tiled plans) then
    Fold { fdims; fidxs; finit = finit'; facc; fupd = fupd'; fcomb; fprov }
  else begin
    let sigma = index_subst plans fidxs in
    let inner =
      Fold
        { fdims = List.map inner_dom plans;
          fidxs = List.map inner_idx plans;
          finit = Ir.rename_binders finit';
          facc;
          fupd = Ir.subst sigma fupd';
          fcomb = Combs.rename fcomb;
          fprov = Prov.push fprov "strip_mine.tile" }
    in
    let acc_o = Sym.fresh (Sym.base facc) in
    Fold
      { fdims = List.map fst (outer_doms plans);
        fidxs = List.map snd (outer_doms plans);
        finit = finit';
        facc = acc_o;
        fupd = comb_apply (Combs.rename fcomb) (Var acc_o) inner;
        fcomb;
        fprov = Prov.push fprov "strip_mine" }
  end

and sm_multifold ctx ({ odims; oidxs; oinit; olets; oouts; ocomb; oprov } as mf) =
  let oinit' = sm ctx oinit in
  let olets' = List.map (fun (s, e1) -> (s, sm ctx e1)) olets in
  let oouts' =
    List.map
      (fun out ->
        { out with
          oregion =
            List.map (fun (o, l, b) -> (sm ctx o, sm ctx l, b)) out.oregion;
          oupd = sm ctx out.oupd })
      oouts
  in
  let plans = plan_dims ctx odims oidxs in
  if not (any_tiled plans) then
    MultiFold { mf with oinit = oinit'; olets = olets'; oouts = oouts' }
  else
    match ocomb with
    | None -> flatten_multifold oprov plans oidxs oinit' olets' oouts'
    | Some comb -> (
        match localizable oprov ctx plans oidxs oinit' oouts' comb with
        | Some result -> result
        | None ->
            fold_of_multifold oprov plans oidxs oinit' olets' oouts' comb)

(* Combine-less MultiFold: equivalent flattened form with [Dtiles; Dtail]
   dimension pairs. *)
and flatten_multifold oprov plans oidxs oinit' olets' oouts' =
  let sigma = index_subst plans oidxs in
  let dims, idxs = flat_dims plans in
  MultiFold
    { odims = dims;
      oidxs = idxs;
      oinit = oinit';
      olets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) olets';
      oouts = subst_outs sigma oouts';
      ocomb = None;
      oprov = Prov.push oprov "strip_mine" }

(* MultiFold with a combine whose updates cannot be localized: strided Fold
   of per-tile MultiFolds (the k-means shape, Fig. 5a). *)
and fold_of_multifold oprov plans oidxs oinit' olets' oouts' comb =
  let sigma = index_subst plans oidxs in
  let inner =
    MultiFold
      { odims = List.map inner_dom plans;
        oidxs = List.map inner_idx plans;
        oinit = Ir.rename_binders oinit';
        olets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) olets';
        oouts = subst_outs sigma oouts';
        ocomb = Some comb;
        oprov = Prov.push oprov "strip_mine.tile" }
  in
  let acc_o = Sym.fresh "acc" in
  Fold
    { fdims = List.map fst (outer_doms plans);
      fidxs = List.map snd (outer_doms plans);
      finit = oinit';
      facc = acc_o;
      fupd = comb_apply (Combs.rename comb) (Var acc_o) inner;
      fcomb = Combs.rename comb;
      fprov = Prov.push oprov "strip_mine" }

(* Accumulator localization (Table 2, sumrows): when the single output's
   update regions are unit regions addressed exactly by tiled indices and
   the combine is elementwise, the inner MultiFold reduces into a
   tile-sized accumulator and the outer writes tile slices. *)
and localizable oprov ctx plans oidxs oinit' oouts' comb =
  match (oouts', Combs.elementwise comb) with
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
                   ocomb = Some (Combs.rename comb);
                   oprov = Prov.push oprov "strip_mine" })
          end
      | _ -> None)
  | _ -> None

(* T[FlatMap]: FlatMap over tiles of FlatMaps over one tile (Table 1). *)
and sm_flatmap ctx { fmdim; fmidx; fmbody; fmprov } =
  let body' = sm ctx fmbody in
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
  let ginit' = sm ctx ginit in
  let glets' = List.map (fun (s, e1) -> (s, sm ctx e1)) glets in
  let gkey' = sm ctx gkey in
  let gupd' = sm ctx gupd in
  let plans = plan_dims ctx gdims gidxs in
  if not (any_tiled plans) then
    GroupByFold
      { gdims; gidxs; ginit = ginit'; glets = glets'; gkey = gkey'; gacc;
        gupd = gupd'; gcomb; gprov }
  else begin
    let sigma = index_subst plans gidxs in
    let dims, idxs = flat_dims plans in
    GroupByFold
      { gdims = dims;
        gidxs = idxs;
        ginit = ginit';
        glets = List.map (fun (s, e1) -> (s, Ir.subst sigma e1)) glets';
        gkey = Ir.subst sigma gkey';
        gacc;
        gupd = Ir.subst sigma gupd';
        gcomb;
        gprov = Prov.push gprov "strip_mine" }
  end

let program c =
  let p = Validate.program c and types = Validate.table c in
  let bound = Ir.size_bound p in
  fun ~tiles -> { p with body = sm { tiles; types; bound } p.body }
