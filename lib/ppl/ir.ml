type prim =
  | Add | Sub | Mul | Div | Mod | Neg
  | Min | Max | Abs | Sqrt | Exp | Log
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or | Not
  | ToFloat | ToInt

type dom =
  | Dfull of exp
  | Dtiles of { total : exp; tile : int }
  | Dtail of { total : exp; tile : int; outer : Sym.t }

and exp =
  | Var of Sym.t
  | Cf of float
  | Ci of int
  | Cb of bool
  | Tup of exp list
  | Proj of exp * int
  | Prim of prim * exp list
  | Let of Sym.t * exp * exp
  | If of exp * exp * exp
  | Len of exp * int
  | Read of exp * exp list
  | Slice of exp * slice_arg list
  | Copy of copy
  | Zeros of Ty.t * exp list
  | ArrLit of exp list
  | EmptyArr of Ty.t
  | Map of map_node
  | Fold of fold_node
  | MultiFold of multifold_node
  | FlatMap of flatmap_node
  | GroupByFold of groupbyfold_node

and slice_arg = SFix of exp | SAll

and copy = { csrc : exp; cdims : copy_dim list; creuse : int }

and copy_dim =
  | Coffset of { off : exp; len : exp; max_len : int option }
  | Call
  | Cfix of exp

and map_node = {
  mdims : dom list;
  midxs : Sym.t list;
  mbody : exp;
  mprov : Prov.t;
}

and fold_node = {
  fdims : dom list;
  fidxs : Sym.t list;
  finit : exp;
  facc : Sym.t;
  fupd : exp;
  fcomb : comb;
  fprov : Prov.t;
}

and multifold_node = {
  odims : dom list;
  oidxs : Sym.t list;
  oinit : exp;
  olets : (Sym.t * exp) list;
  oouts : mf_out list;
  ocomb : comb option;
  oprov : Prov.t;
}

and mf_out = {
  orange : exp list;
  oregion : (exp * exp * int option) list;
  oacc : Sym.t;
  oupd : exp;
}

and flatmap_node = {
  fmdim : dom;
  fmidx : Sym.t;
  fmbody : exp;
  fmprov : Prov.t;
}

and groupbyfold_node = {
  gdims : dom list;
  gidxs : Sym.t list;
  ginit : exp;
  glets : (Sym.t * exp) list;
  gkey : exp;
  gacc : Sym.t;
  gupd : exp;
  gcomb : comb;
  gprov : Prov.t;
}

and comb = { ca : Sym.t; cb : Sym.t; cbody : exp }

type input = { iname : Sym.t; ielt : Ty.t; ishape : exp list }

type program = {
  pname : string;
  size_params : Sym.t list;
  max_sizes : (Sym.t * int) list;
  inputs : input list;
  body : exp;
}

let dom_size = function
  | Dfull e -> e
  | Dtiles { total; tile } ->
      (* ceil(total/tile) = (total + tile - 1) / tile *)
      Prim (Div, [ Prim (Add, [ total; Ci (tile - 1) ]); Ci tile ])
  | Dtail { total; tile; outer } ->
      Prim
        (Min, [ Ci tile; Prim (Sub, [ total; Prim (Mul, [ Var outer; Ci tile ]) ]) ])

let is_strided = function Dtiles _ -> true | Dfull _ | Dtail _ -> false

let comb_apply c a b = Let (c.ca, a, Let (c.cb, b, c.cbody))

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

let rec fv_exp bound acc = function
  | Var s -> if Sym.Set.mem s bound then acc else Sym.Set.add s acc
  | Cf _ | Ci _ | Cb _ | EmptyArr _ -> acc
  | Tup es | Prim (_, es) | ArrLit es -> List.fold_left (fv_exp bound) acc es
  | Proj (e, _) | Len (e, _) -> fv_exp bound acc e
  | Let (s, e1, e2) -> fv_exp (Sym.Set.add s bound) (fv_exp bound acc e1) e2
  | If (c, t, e) -> fv_exp bound (fv_exp bound (fv_exp bound acc c) t) e
  | Read (a, idxs) -> List.fold_left (fv_exp bound) (fv_exp bound acc a) idxs
  | Slice (a, args) ->
      List.fold_left
        (fun acc -> function SFix e -> fv_exp bound acc e | SAll -> acc)
        (fv_exp bound acc a) args
  | Copy { csrc; cdims; _ } ->
      List.fold_left
        (fun acc -> function
          | Coffset { off; len; _ } -> fv_exp bound (fv_exp bound acc off) len
          | Call -> acc
          | Cfix e -> fv_exp bound acc e)
        (fv_exp bound acc csrc) cdims
  | Zeros (_, shape) -> List.fold_left (fv_exp bound) acc shape
  | Map { mdims; midxs; mbody; _ } ->
      let acc = List.fold_left (fv_dom bound) acc mdims in
      fv_exp (List.fold_left (fun b s -> Sym.Set.add s b) bound midxs) acc mbody
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
      let acc = List.fold_left (fv_dom bound) acc fdims in
      let acc = fv_exp bound acc finit in
      let inner =
        List.fold_left (fun b s -> Sym.Set.add s b) bound (facc :: fidxs)
      in
      let acc = fv_exp inner acc fupd in
      fv_comb bound acc fcomb
  | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; _ } ->
      let acc = List.fold_left (fv_dom bound) acc odims in
      let acc = fv_exp bound acc oinit in
      let inner = List.fold_left (fun b s -> Sym.Set.add s b) bound oidxs in
      let inner, acc =
        List.fold_left
          (fun (inner, acc) (s, e1) ->
            (Sym.Set.add s inner, fv_exp inner acc e1))
          (inner, acc) olets
      in
      let acc =
        List.fold_left
          (fun acc { orange; oregion; oacc; oupd } ->
            let acc = List.fold_left (fv_exp bound) acc orange in
            let acc =
              List.fold_left
                (fun acc (off, len, _) -> fv_exp inner (fv_exp inner acc off) len)
                acc oregion
            in
            fv_exp (Sym.Set.add oacc inner) acc oupd)
          acc oouts
      in
      (match ocomb with None -> acc | Some c -> fv_comb bound acc c)
  | FlatMap { fmdim; fmidx; fmbody; _ } ->
      let acc = fv_dom bound acc fmdim in
      fv_exp (Sym.Set.add fmidx bound) acc fmbody
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } ->
      let acc = List.fold_left (fv_dom bound) acc gdims in
      let acc = fv_exp bound acc ginit in
      let inner = List.fold_left (fun b s -> Sym.Set.add s b) bound gidxs in
      let inner, acc =
        List.fold_left
          (fun (inner, acc) (s, e1) ->
            (Sym.Set.add s inner, fv_exp inner acc e1))
          (inner, acc) glets
      in
      let acc = fv_exp inner acc gkey in
      let acc = fv_exp (Sym.Set.add gacc inner) acc gupd in
      fv_comb bound acc gcomb

and fv_dom bound acc = function
  | Dfull e -> fv_exp bound acc e
  | Dtiles { total; _ } -> fv_exp bound acc total
  | Dtail { total; outer; _ } ->
      let acc = fv_exp bound acc total in
      if Sym.Set.mem outer bound then acc else Sym.Set.add outer acc

and fv_comb bound acc { ca; cb; cbody } =
  fv_exp (Sym.Set.add ca (Sym.Set.add cb bound)) acc cbody

let free_vars e = fv_exp Sym.Set.empty Sym.Set.empty e

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(* All binders are globally fresh symbols (the DSL and every transformation
   generate them with [Sym.fresh]), so substitution needs no renaming: a
   bound symbol can never collide with a substituted term's free symbols.
   Bound symbols still shadow map entries. *)
let rec subst env e =
  if Sym.Map.is_empty env then e
  else
    match e with
    | Var s -> (match Sym.Map.find_opt s env with Some e' -> e' | None -> e)
    | Cf _ | Ci _ | Cb _ | EmptyArr _ -> e
    | Tup es -> Tup (List.map (subst env) es)
    | Proj (e1, i) -> Proj (subst env e1, i)
    | Prim (p, es) -> Prim (p, List.map (subst env) es)
    | Let (s, e1, e2) ->
        Let (s, subst env e1, subst (Sym.Map.remove s env) e2)
    | If (c, t, f) -> If (subst env c, subst env t, subst env f)
    | Len (e1, i) -> Len (subst env e1, i)
    | Read (a, idxs) -> Read (subst env a, List.map (subst env) idxs)
    | Slice (a, args) ->
        Slice
          ( subst env a,
            List.map
              (function SFix e1 -> SFix (subst env e1) | SAll -> SAll)
              args )
    | Copy { csrc; cdims; creuse } ->
        Copy
          { csrc = subst env csrc;
            cdims =
              List.map
                (function
                  | Coffset { off; len; max_len } ->
                      Coffset { off = subst env off; len = subst env len; max_len }
                  | Call -> Call
                  | Cfix e1 -> Cfix (subst env e1))
                cdims;
            creuse }
    | Zeros (sc, shape) -> Zeros (sc, List.map (subst env) shape)
    | ArrLit es -> ArrLit (List.map (subst env) es)
    | Map { mdims; midxs; mbody; mprov } ->
        let env' = List.fold_left (fun m s -> Sym.Map.remove s m) env midxs in
        Map
          { mdims = List.map (subst_dom env) mdims;
            midxs;
            mbody = subst env' mbody;
            mprov }
    | Fold { fdims; fidxs; finit; facc; fupd; fcomb; fprov } ->
        let env' = List.fold_left (fun m s -> Sym.Map.remove s m) env fidxs in
        Fold
          { fdims = List.map (subst_dom env) fdims;
            fidxs;
            finit = subst env finit;
            facc;
            fupd = subst (Sym.Map.remove facc env') fupd;
            fcomb = subst_comb env fcomb;
            fprov }
    | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; oprov } ->
        let env' = List.fold_left (fun m s -> Sym.Map.remove s m) env oidxs in
        let env', olets =
          List.fold_left
            (fun (env', acc) (s, e1) ->
              let e1' = subst env' e1 in
              (Sym.Map.remove s env', (s, e1') :: acc))
            (env', []) olets
        in
        let olets = List.rev olets in
        MultiFold
          { odims = List.map (subst_dom env) odims;
            oidxs;
            oinit = subst env oinit;
            olets;
            oouts =
              List.map
                (fun { orange; oregion; oacc; oupd } ->
                  { orange = List.map (subst env) orange;
                    oregion =
                      List.map
                        (fun (off, len, b) -> (subst env' off, subst env' len, b))
                        oregion;
                    oacc;
                    oupd = subst (Sym.Map.remove oacc env') oupd })
                oouts;
            ocomb = Option.map (subst_comb env) ocomb;
            oprov }
    | FlatMap { fmdim; fmidx; fmbody; fmprov } ->
        FlatMap
          { fmdim = subst_dom env fmdim;
            fmidx;
            fmbody = subst (Sym.Map.remove fmidx env) fmbody;
            fmprov }
    | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; gprov }
      ->
        let env' = List.fold_left (fun m s -> Sym.Map.remove s m) env gidxs in
        let env', glets =
          List.fold_left
            (fun (env', acc) (s, e1) ->
              let e1' = subst env' e1 in
              (Sym.Map.remove s env', (s, e1') :: acc))
            (env', []) glets
        in
        let glets = List.rev glets in
        GroupByFold
          { gdims = List.map (subst_dom env) gdims;
            gidxs;
            ginit = subst env ginit;
            glets;
            gkey = subst env' gkey;
            gacc;
            gupd = subst (Sym.Map.remove gacc env') gupd;
            gcomb = subst_comb env gcomb;
            gprov }

and subst_dom env = function
  | Dfull e -> Dfull (subst env e)
  | Dtiles { total; tile } -> Dtiles { total = subst env total; tile }
  | Dtail { total; tile; outer } -> (
      let total = subst env total in
      match Sym.Map.find_opt outer env with
      | None -> Dtail { total; tile; outer }
      | Some (Var outer') -> Dtail { total; tile; outer = outer' }
      | Some _ ->
          invalid_arg "Ir.subst: Dtail outer index substituted by a non-variable")

and subst_comb env { ca; cb; cbody } =
  { ca; cb; cbody = subst (Sym.Map.remove ca (Sym.Map.remove cb env)) cbody }

(* ------------------------------------------------------------------ *)
(* Binder refreshing                                                   *)
(* ------------------------------------------------------------------ *)

let rec ren env e =
  let var s = match Sym.Map.find_opt s env with Some s' -> s' | None -> s in
  match e with
  | Var s -> Var (var s)
  | Cf _ | Ci _ | Cb _ | EmptyArr _ -> e
  | Tup es -> Tup (List.map (ren env) es)
  | Proj (e1, i) -> Proj (ren env e1, i)
  | Prim (p, es) -> Prim (p, List.map (ren env) es)
  | Let (s, e1, e2) ->
      let s' = Sym.fresh (Sym.base s) in
      Let (s', ren env e1, ren (Sym.Map.add s s' env) e2)
  | If (c, t, f) -> If (ren env c, ren env t, ren env f)
  | Len (e1, i) -> Len (ren env e1, i)
  | Read (a, idxs) -> Read (ren env a, List.map (ren env) idxs)
  | Slice (a, args) ->
      Slice
        (ren env a, List.map (function SFix e1 -> SFix (ren env e1) | SAll -> SAll) args)
  | Copy { csrc; cdims; creuse } ->
      Copy
        { csrc = ren env csrc;
          cdims =
            List.map
              (function
                | Coffset { off; len; max_len } ->
                    Coffset { off = ren env off; len = ren env len; max_len }
                | Call -> Call
                | Cfix e1 -> Cfix (ren env e1))
              cdims;
          creuse }
  | Zeros (sc, shape) -> Zeros (sc, List.map (ren env) shape)
  | ArrLit es -> ArrLit (List.map (ren env) es)
  | Map { mdims; midxs; mbody; mprov } ->
      let midxs' = List.map (fun s -> Sym.fresh (Sym.base s)) midxs in
      let env' =
        List.fold_left2 (fun m s s' -> Sym.Map.add s s' m) env midxs midxs'
      in
      Map
        { mdims = List.map (ren_dom env) mdims;
          midxs = midxs';
          mbody = ren env' mbody;
          mprov }
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; fprov } ->
      let fidxs' = List.map (fun s -> Sym.fresh (Sym.base s)) fidxs in
      let facc' = Sym.fresh (Sym.base facc) in
      let env' =
        List.fold_left2 (fun m s s' -> Sym.Map.add s s' m) env fidxs fidxs'
      in
      Fold
        { fdims = List.map (ren_dom env) fdims;
          fidxs = fidxs';
          finit = ren env finit;
          facc = facc';
          fupd = ren (Sym.Map.add facc facc' env') fupd;
          fcomb = ren_comb env fcomb;
          fprov }
  | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; oprov } ->
      let oidxs' = List.map (fun s -> Sym.fresh (Sym.base s)) oidxs in
      let env' =
        List.fold_left2 (fun m s s' -> Sym.Map.add s s' m) env oidxs oidxs'
      in
      let env', olets' =
        List.fold_left
          (fun (env', acc) (s, e1) ->
            let e1' = ren env' e1 in
            let s' = Sym.fresh (Sym.base s) in
            (Sym.Map.add s s' env', (s', e1') :: acc))
          (env', []) olets
      in
      let olets' = List.rev olets' in
      MultiFold
        { odims = List.map (ren_dom env) odims;
          oidxs = oidxs';
          oinit = ren env oinit;
          olets = olets';
          oouts =
            List.map
              (fun { orange; oregion; oacc; oupd } ->
                let oacc' = Sym.fresh (Sym.base oacc) in
                { orange = List.map (ren env) orange;
                  oregion =
                    List.map (fun (off, len, b) -> (ren env' off, ren env' len, b)) oregion;
                  oacc = oacc';
                  oupd = ren (Sym.Map.add oacc oacc' env') oupd })
              oouts;
          ocomb = Option.map (ren_comb env) ocomb;
          oprov }
  | FlatMap { fmdim; fmidx; fmbody; fmprov } ->
      let fmidx' = Sym.fresh (Sym.base fmidx) in
      FlatMap
        { fmdim = ren_dom env fmdim;
          fmidx = fmidx';
          fmbody = ren (Sym.Map.add fmidx fmidx' env) fmbody;
          fmprov }
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; gprov }
    ->
      let gidxs' = List.map (fun s -> Sym.fresh (Sym.base s)) gidxs in
      let gacc' = Sym.fresh (Sym.base gacc) in
      let env1 =
        List.fold_left2 (fun m s s' -> Sym.Map.add s s' m) env gidxs gidxs'
      in
      let env1, glets' =
        List.fold_left
          (fun (env1, acc) (s, e1) ->
            let e1' = ren env1 e1 in
            let s' = Sym.fresh (Sym.base s) in
            (Sym.Map.add s s' env1, (s', e1') :: acc))
          (env1, []) glets
      in
      let glets' = List.rev glets' in
      GroupByFold
        { gdims = List.map (ren_dom env) gdims;
          gidxs = gidxs';
          ginit = ren env ginit;
          glets = glets';
          gkey = ren env1 gkey;
          gacc = gacc';
          gupd = ren (Sym.Map.add gacc gacc' env1) gupd;
          gcomb = ren_comb env gcomb;
          gprov }

and ren_dom env = function
  | Dfull e -> Dfull (ren env e)
  | Dtiles { total; tile } -> Dtiles { total = ren env total; tile }
  | Dtail { total; tile; outer } ->
      let outer =
        match Sym.Map.find_opt outer env with Some s -> s | None -> outer
      in
      Dtail { total = ren env total; tile; outer }

and ren_comb env { ca; cb; cbody } =
  let ca' = Sym.fresh (Sym.base ca) and cb' = Sym.fresh (Sym.base cb) in
  { ca = ca';
    cb = cb';
    cbody = ren (Sym.Map.add ca ca' (Sym.Map.add cb cb' env)) cbody }

let rename_binders e = ren Sym.Map.empty e

let max_sizes_bound p s =
  List.find_opt (fun (k, _) -> Sym.equal k s) p.max_sizes |> Option.map snd

let size_bound p = function
  | Ci c -> Some c
  | Var s -> max_sizes_bound p s
  | _ -> None
