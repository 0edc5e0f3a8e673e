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
(* Scoped child walks                                                  *)
(* ------------------------------------------------------------------ *)

(* The scoping rule is written here once, in [map_scoped] and
   [iter_scoped] (the table is in ir.mli).  Both visit children in
   [Rewrite.map_children]'s order: constructor arguments and record fields
   right to left (ocamlopt evaluates them so), list elements left to right.
   [map_scoped] binds each binder before the children in its scope; the
   order of its [bind] calls is the order [rename_binders] mints fresh
   symbols in, which printed names depend on. *)

(* [ss] bound left to right: the environment before each binder, the
   binders [use] maps them to once bound, and the environment after them
   all.  When [use] keeps every binder (as [subst]'s does), the binder
   list is [ss] itself, so an unchanged pattern shares its binder list. *)
let rec scope bind use env = function
  | [] -> ([], [], env)
  | s :: rest as ss ->
      let env' = bind env s in
      let s' = use env' s in
      let envs, rest', last = scope bind use env' rest in
      (env :: envs, (if s' == s && rest' == rest then ss else s' :: rest'), last)

let map_scoped_dom ~use f env = function
  | Dfull e -> Dfull (f env e)
  | Dtiles { total; tile } -> Dtiles { total = f env total; tile }
  | Dtail { total; tile; outer } ->
      Dtail { total = f env total; tile; outer = use env outer }

let map_scoped_doms ~use f envs ds = List.map2 (map_scoped_dom ~use f) envs ds

(* each let's new binder [s] paired with its expression mapped in the
   environment before it, left to right *)
let rec map_scoped_lets f envs ss ls =
  match (envs, ss, ls) with
  | env :: envs, s :: ss, (_, e1) :: ls ->
      let l = (s, f env e1) in
      l :: map_scoped_lets f envs ss ls
  | _ -> []

let map_scoped_comb ~bind ~use f env c =
  let env = bind (bind env c.ca) c.cb in
  { ca = use env c.ca; cb = use env c.cb; cbody = f env c.cbody }

let map_scoped ~bind ~use f env e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ -> e
  | Tup es -> Tup (List.map (f env) es)
  | Proj (e1, i) -> Proj (f env e1, i)
  | Prim (p, es) -> Prim (p, List.map (f env) es)
  | Let (s, e1, e2) ->
      let env' = bind env s in
      Let (use env' s, f env e1, f env' e2)
  | If (c, t, e1) -> If (f env c, f env t, f env e1)
  | Len (e1, i) -> Len (f env e1, i)
  | Read (a, idxs) -> Read (f env a, List.map (f env) idxs)
  | Slice (a, args) ->
      Slice (f env a, List.map (function SFix e1 -> SFix (f env e1) | SAll -> SAll) args)
  | Copy { csrc; cdims; creuse } ->
      Copy
        { csrc = f env csrc;
          cdims =
            List.map
              (function
                | Coffset { off; len; max_len } ->
                    Coffset { off = f env off; len = f env len; max_len }
                | Call -> Call
                | Cfix e1 -> Cfix (f env e1))
              cdims;
          creuse }
  | Zeros (sc, shape) -> Zeros (sc, List.map (f env) shape)
  | ArrLit es -> ArrLit (List.map (f env) es)
  | Map { mdims; midxs; mbody; mprov } ->
      let envs, midxs, env_i = scope bind use env midxs in
      Map
        { mdims = map_scoped_doms ~use f envs mdims;
          midxs;
          mbody = f env_i mbody;
          mprov }
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; fprov } ->
      let envs, fidxs, env_i = scope bind use env fidxs in
      let env_u = bind env_i facc in
      Fold
        { fdims = map_scoped_doms ~use f envs fdims;
          fidxs;
          finit = f env finit;
          facc = use env_u facc;
          fupd = f env_u fupd;
          fcomb = map_scoped_comb ~bind ~use f env fcomb;
          fprov }
  | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; oprov } ->
      let envs, oidxs, env_i = scope bind use env oidxs in
      let lenvs, lsyms, env_l = scope bind use env_i (List.map fst olets) in
      let out { orange; oregion; oacc; oupd } =
        let env_u = bind env_l oacc in
        { orange = List.map (f env) orange;
          oregion = List.map (fun (o, l, b) -> (f env_l o, f env_l l, b)) oregion;
          oacc = use env_u oacc;
          oupd = f env_u oupd }
      in
      MultiFold
        { odims = map_scoped_doms ~use f envs odims;
          oidxs;
          oinit = f env oinit;
          olets = map_scoped_lets f lenvs lsyms olets;
          oouts = List.map out oouts;
          ocomb = Option.map (map_scoped_comb ~bind ~use f env) ocomb;
          oprov }
  | FlatMap { fmdim; fmidx; fmbody; fmprov } ->
      let env_b = bind env fmidx in
      FlatMap
        { fmdim = map_scoped_dom ~use f env fmdim;
          fmidx = use env_b fmidx;
          fmbody = f env_b fmbody;
          fmprov }
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; gprov } ->
      let envs, gidxs, env_i = scope bind use env gidxs in
      let lenvs, lsyms, env_l = scope bind use env_i (List.map fst glets) in
      let env_u = bind env_l gacc in
      GroupByFold
        { gdims = map_scoped_doms ~use f envs gdims;
          gidxs;
          ginit = f env ginit;
          glets = map_scoped_lets f lenvs lsyms glets;
          gkey = f env_l gkey;
          gacc = use env_u gacc;
          gupd = f env_u gupd;
          gcomb = map_scoped_comb ~bind ~use f env gcomb;
          gprov }

(* the environment before each of [ss], bound left to right, and the
   environment after them all *)
let rec scope_envs bind env = function
  | [] -> ([], env)
  | s :: ss ->
      let rest, last = scope_envs bind (bind env s) ss in
      (env :: rest, last)

let iter_scoped_dom ~use f env = function
  | Dfull e | Dtiles { total = e; _ } -> f env e
  | Dtail { total; outer; _ } ->
      f env total;
      use env outer

let iter_scoped_lets f envs ls = List.iter2 (fun env (_, e1) -> f env e1) envs ls
let iter_scoped_comb ~bind f env c = f (bind (bind env c.ca) c.cb) c.cbody

let iter_scoped ~bind ~use f env e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ -> ()
  | Tup es | Prim (_, es) | Zeros (_, es) | ArrLit es -> List.iter (f env) es
  | Proj (e1, _) | Len (e1, _) -> f env e1
  | Let (s, e1, e2) ->
      f (bind env s) e2;
      f env e1
  | If (c, t, e1) ->
      f env e1;
      f env t;
      f env c
  | Read (a, idxs) ->
      List.iter (f env) idxs;
      f env a
  | Slice (a, args) ->
      List.iter (function SFix e1 -> f env e1 | SAll -> ()) args;
      f env a
  | Copy { csrc; cdims; _ } ->
      List.iter
        (function
          | Coffset { off; len; _ } ->
              f env len;
              f env off
          | Call -> ()
          | Cfix e1 -> f env e1)
        cdims;
      f env csrc
  | Map { mdims; midxs; mbody; _ } ->
      let envs, env_i = scope_envs bind env midxs in
      f env_i mbody;
      List.iter2 (iter_scoped_dom ~use f) envs mdims
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
      let envs, env_i = scope_envs bind env fidxs in
      iter_scoped_comb ~bind f env fcomb;
      f (bind env_i facc) fupd;
      f env finit;
      List.iter2 (iter_scoped_dom ~use f) envs fdims
  | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; _ } ->
      let envs, env_i = scope_envs bind env oidxs in
      let lenvs, env_l = scope_envs bind env_i (List.map fst olets) in
      Option.iter (iter_scoped_comb ~bind f env) ocomb;
      List.iter
        (fun out ->
          f (bind env_l out.oacc) out.oupd;
          List.iter
            (fun (o, l, _) ->
              f env_l l;
              f env_l o)
            out.oregion;
          List.iter (f env) out.orange)
        oouts;
      iter_scoped_lets f lenvs olets;
      f env oinit;
      List.iter2 (iter_scoped_dom ~use f) envs odims
  | FlatMap { fmdim; fmidx; fmbody; _ } ->
      f (bind env fmidx) fmbody;
      iter_scoped_dom ~use f env fmdim
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } ->
      let envs, env_i = scope_envs bind env gidxs in
      let lenvs, env_l = scope_envs bind env_i (List.map fst glets) in
      iter_scoped_comb ~bind f env gcomb;
      f (bind env_l gacc) gupd;
      f env_l gkey;
      iter_scoped_lets f lenvs glets;
      f env ginit;
      List.iter2 (iter_scoped_dom ~use f) envs gdims

let free_vars e =
  let free = ref Sym.Set.empty in
  let use bound s = if not (Sym.Set.mem s bound) then free := Sym.Set.add s !free in
  let bind bound s = Sym.Set.add s bound in
  let rec go bound = function
    | Var s -> use bound s
    | e -> iter_scoped ~bind ~use go bound e
  in
  go Sym.Set.empty e;
  !free

(* All binders are globally fresh symbols (the DSL and every transformation
   generate them with [Sym.fresh]), so substitution needs no renaming: a
   bound symbol can never collide with a substituted term's free symbols.
   Bound symbols still shadow map entries. *)
let subst_outer env s =
  match Sym.Map.find_opt s env with
  | None -> s
  | Some (Var s') -> s'
  | Some _ -> invalid_arg "Ir.subst: Dtail outer index substituted by a non-variable"

let rec subst env e =
  if Sym.Map.is_empty env then e
  else
    match e with
    | Var s -> (match Sym.Map.find_opt s env with Some e' -> e' | None -> e)
    | e ->
        map_scoped ~bind:(fun env s -> Sym.Map.remove s env) ~use:subst_outer
          subst env e

let refresh ?(renamed = fun _ _ -> ()) s =
  let s' = Sym.fresh (Sym.base s) in
  renamed s s';
  s'

let rename_binders ?renamed e =
  let use env s = match Sym.Map.find_opt s env with Some s' -> s' | None -> s in
  let bind env s = Sym.Map.add s (refresh ?renamed s) env in
  let rec go env = function
    | Var s -> Var (use env s)
    | e -> map_scoped ~bind ~use go env e
  in
  go Sym.Map.empty e

let max_sizes_bound p s =
  List.find_opt (fun (k, _) -> Sym.equal k s) p.max_sizes |> Option.map snd

let size_bound p = function
  | Ci c -> Some c
  | Var s -> max_sizes_bound p s
  | _ -> None
