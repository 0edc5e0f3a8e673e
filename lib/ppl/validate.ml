open Ir

exception Type_error of string

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let expect_int what = function
  | Ty.Scalar Ty.Int -> ()
  | t -> err "%s must be Int, got %s" what (Ty.to_string t)

let expect_bool what = function
  | Ty.Scalar Ty.Bool -> ()
  | t -> err "%s must be Bool, got %s" what (Ty.to_string t)

let same what a b =
  if not (Ty.equal a b) then
    err "%s: type mismatch (%s vs %s)" what (Ty.to_string a) (Ty.to_string b)

(* The binder rules, shared by [infer] and [binder_types]: every index
   is an Int, shared bindings are typed left to right by [typ], and a
   combine function's parameters have the accumulator's type. *)
let bind_idxs env idxs =
  List.fold_left (fun m s -> Sym.Map.add s Ty.int_ m) env idxs

let bind_lets typ env lets =
  List.fold_left (fun m (s, e1) -> Sym.Map.add s (typ m e1) m) env lets

let bind_comb env { ca; cb; _ } t = Sym.Map.add ca t (Sym.Map.add cb t env)

(* a MultiFold's init type, one component per output *)
let components init_t oouts =
  match (init_t, oouts) with Ty.Tuple ts, _ :: _ :: _ -> ts | t, _ -> [ t ]

(* the type of an output's [oacc]: the element type of its init component,
   or an array of it over a region with a non-unit length *)
let region_acc_type comp_t out =
  let elt = match comp_t with Ty.Array (elt, _) -> elt | t -> t in
  if List.for_all (fun (_, lene, _) -> lene = Ci 1) out.oregion then elt
  else Ty.Array (elt, List.length out.oregion)

let rec infer env e =
  match e with
  | Var s -> (
      match Sym.Map.find_opt s env with
      | Some t -> t
      | None -> err "unbound symbol %s" (Sym.name s))
  | Cf _ -> Ty.float_
  | Ci _ -> Ty.int_
  | Cb _ -> Ty.bool_
  | Tup es -> Ty.Tuple (List.map (infer env) es)
  | Proj (e1, idx) -> (
      match infer env e1 with
      | Ty.Tuple ts when idx >= 0 && idx < List.length ts -> List.nth ts idx
      | Ty.Tuple ts as t ->
          err "projection ._%d on a %d-tuple %s" (idx + 1) (List.length ts)
            (Ty.to_string t)
      | t -> err "projection ._%d on non-tuple %s" (idx + 1) (Ty.to_string t))
  | Prim (p, args) -> infer_prim env p args
  | Let (s, e1, e2) -> infer (Sym.Map.add s (infer env e1) env) e2
  | If (c, t, e1) ->
      expect_bool "if condition" (infer env c);
      let tt = infer env t and te = infer env e1 in
      same "if branches" tt te;
      tt
  | Len (e1, d) -> (
      match infer env e1 with
      | Ty.Array (_, rank) when d >= 0 && d < rank -> Ty.int_
      | t -> err "dim(%d) on %s" d (Ty.to_string t))
  | Read (a, idxs) -> (
      match infer env a with
      | Ty.Array (elt, rank) ->
          if List.length idxs <> rank then
            err "read with %d indices on rank-%d array" (List.length idxs) rank;
          List.iter (fun i -> expect_int "array index" (infer env i)) idxs;
          elt
      | t -> err "read on non-array %s" (Ty.to_string t))
  | Slice (a, args) -> (
      match infer env a with
      | Ty.Array (elt, rank) ->
          if List.length args <> rank then
            err "slice with %d specs on rank-%d array" (List.length args) rank;
          let kept =
            List.fold_left
              (fun k -> function
                | SAll -> k + 1
                | SFix e1 ->
                    expect_int "slice index" (infer env e1);
                    k)
              0 args
          in
          if kept = 0 then elt else Ty.Array (elt, kept)
      | t -> err "slice on non-array %s" (Ty.to_string t))
  | Copy { csrc; cdims; creuse } -> (
      if creuse < 1 then err "copy with reuse factor %d < 1" creuse;
      match infer env csrc with
      | Ty.Array (elt, rank) ->
          if List.length cdims <> rank then
            err "copy with %d specs on rank-%d array" (List.length cdims) rank;
          let kept =
            List.fold_left
              (fun k -> function
                | Call -> k + 1
                | Coffset { off; len; _ } ->
                    expect_int "copy offset" (infer env off);
                    expect_int "copy length" (infer env len);
                    k + 1
                | Cfix e1 ->
                    expect_int "copy index" (infer env e1);
                    k)
              0 cdims
          in
          if kept = 0 then err "copy must keep at least one dimension";
          Ty.Array (elt, kept)
      | t -> err "copy on non-array %s" (Ty.to_string t))
  | Zeros (elt, shape) ->
      if not (Ty.array_free elt) then
        err "zeros of non-scalar element type %s" (Ty.to_string elt);
      List.iter (fun e1 -> expect_int "zeros dimension" (infer env e1)) shape;
      if shape = [] then elt else Ty.Array (elt, List.length shape)
  | ArrLit es -> (
      match es with
      | [] -> err "empty array literal: use EmptyArr with an element type"
      | e1 :: rest ->
          let t = infer env e1 in
          if not (Ty.array_free t) then
            err "array literal of non-scalar elements %s" (Ty.to_string t);
          List.iter (fun e2 -> same "array literal elements" t (infer env e2)) rest;
          Ty.Array (t, 1))
  | EmptyArr t ->
      if not (Ty.array_free t) then
        err "empty array of non-scalar element type %s" (Ty.to_string t);
      Ty.Array (t, 1)
  | Map { mdims; midxs; mbody; _ } ->
      check_doms env mdims midxs;
      let env' = bind_idxs env midxs in
      let bt = infer env' mbody in
      if not (Ty.array_free bt) then
        err "Map body must produce scalars, got %s (nested arrays are not allowed)"
          (Ty.to_string bt);
      Ty.Array (bt, List.length mdims)
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
      check_doms env fdims fidxs;
      let acc_t = infer env finit in
      let env' = Sym.Map.add facc acc_t (bind_idxs env fidxs) in
      same "Fold update" acc_t (infer env' fupd);
      check_comb env fcomb acc_t;
      acc_t
  | MultiFold mf -> infer_multifold env mf
  | FlatMap { fmdim; fmidx; fmbody; _ } ->
      check_doms env [ fmdim ] [ fmidx ];
      let bt = infer (Sym.Map.add fmidx Ty.int_ env) fmbody in
      (match bt with
      | Ty.Array (elt, 1) -> Ty.Array (elt, 1)
      | t -> err "FlatMap body must be a 1-D array, got %s" (Ty.to_string t))
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } ->
      check_doms env gdims gidxs;
      let v_t = infer env ginit in
      if not (Ty.array_free v_t) then
        err "GroupByFold bucket type must be scalar, got %s" (Ty.to_string v_t);
      let env_i = bind_lets infer (bind_idxs env gidxs) glets in
      let k_t = infer env_i gkey in
      if not (Ty.array_free k_t) then
        err "GroupByFold key type must be scalar, got %s" (Ty.to_string k_t);
      same "GroupByFold update" v_t (infer (Sym.Map.add gacc v_t env_i) gupd);
      check_comb env gcomb v_t;
      Ty.Assoc (k_t, v_t)

and infer_multifold env { odims; oidxs; oinit; olets; oouts; ocomb; _ } =
  check_doms env odims oidxs;
  let init_t = infer env oinit in
  (match (init_t, oouts) with
  | _, [] -> err "MultiFold with no outputs"
  | Ty.Tuple ts, _ :: _ :: _ ->
      if List.length ts <> List.length oouts then
        err "MultiFold: %d outputs but init tuple has %d components"
          (List.length oouts) (List.length ts)
  | _, [ _ ] -> ()
  | t, outs ->
      err "MultiFold: %d outputs but init is %s" (List.length outs)
        (Ty.to_string t));
  let env_i = bind_lets infer (bind_idxs env oidxs) olets in
  List.iter2
    (fun out comp_t ->
      (match comp_t with
      | Ty.Array (_, rank) ->
          if List.length out.orange <> rank then
            err "MultiFold output range rank %d but accumulator rank %d"
              (List.length out.orange) rank
      | t when Ty.array_free t ->
          if List.length out.orange <> 0 then
            err "MultiFold scalar accumulator with non-empty range"
      | t -> err "MultiFold accumulator of type %s" (Ty.to_string t));
      List.iter (fun e1 -> expect_int "MultiFold range" (infer env e1)) out.orange;
      if List.length out.oregion <> List.length out.orange then
        err "MultiFold region rank %d but range rank %d"
          (List.length out.oregion) (List.length out.orange);
      List.iter
        (fun (off, lene, _) ->
          expect_int "MultiFold region offset" (infer env_i off);
          expect_int "MultiFold region length" (infer env_i lene))
        out.oregion;
      let acc_t = region_acc_type comp_t out in
      let upd_t = infer (Sym.Map.add out.oacc acc_t env_i) out.oupd in
      same "MultiFold update" acc_t upd_t)
    oouts (components init_t oouts);
  (match ocomb with None -> () | Some c -> check_comb env c init_t);
  init_t

and check_comb env c t =
  same "combine function" t (infer (bind_comb env c t) c.cbody)

and check_doms env doms idxs =
  if List.length doms <> List.length idxs then
    err "pattern with %d domains but %d indices" (List.length doms)
      (List.length idxs);
  (* later domains may reference earlier sibling indices (the flattened
     [Dtiles; Dtail] form binds the tile index and the in-tile index as
     siblings), so indices come into scope left to right *)
  ignore
    (List.fold_left2
       (fun env d idx ->
         (match d with
         | Dfull e -> expect_int "domain size" (infer env e)
         | Dtiles { total; _ } -> expect_int "tiled domain size" (infer env total)
         | Dtail { total; outer; _ } -> (
             expect_int "tile domain size" (infer env total);
             match Sym.Map.find_opt outer env with
             | Some (Ty.Scalar Ty.Int) -> ()
             | Some t ->
                 err "tile outer index %s has type %s" (Sym.name outer)
                   (Ty.to_string t)
             | None -> err "tile outer index %s is unbound" (Sym.name outer)));
         Sym.Map.add idx Ty.int_ env)
       env doms idxs)

and infer_prim env p args =
  let tys = List.map (infer env) args in
  let arity n =
    if List.length args <> n then
      err "primitive applied to %d arguments, expected %d" (List.length args) n
  in
  let numeric2 () =
    arity 2;
    match tys with
    | [ Ty.Scalar Ty.Float; Ty.Scalar Ty.Float ] -> Ty.float_
    | [ Ty.Scalar Ty.Int; Ty.Scalar Ty.Int ] -> Ty.int_
    | [ a; b1 ] ->
        err "numeric primitive on %s and %s" (Ty.to_string a) (Ty.to_string b1)
    | _ -> assert false
  in
  match p with
  | Add | Sub | Mul | Div | Min | Max -> numeric2 ()
  | Mod -> (
      arity 2;
      match tys with
      | [ Ty.Scalar Ty.Int; Ty.Scalar Ty.Int ] -> Ty.int_
      | _ -> err "mod on non-integers")
  | Neg | Abs -> (
      arity 1;
      match tys with
      | [ (Ty.Scalar (Ty.Float | Ty.Int)) as t ] -> t
      | [ t ] -> err "neg/abs on %s" (Ty.to_string t)
      | _ -> assert false)
  | Sqrt | Exp | Log -> (
      arity 1;
      match tys with
      | [ Ty.Scalar Ty.Float ] -> Ty.float_
      | [ t ] -> err "float primitive on %s" (Ty.to_string t)
      | _ -> assert false)
  | Lt | Le | Gt | Ge -> (
      arity 2;
      match tys with
      | [ Ty.Scalar Ty.Float; Ty.Scalar Ty.Float ]
      | [ Ty.Scalar Ty.Int; Ty.Scalar Ty.Int ] ->
          Ty.bool_
      | [ a; b1 ] -> err "comparison on %s and %s" (Ty.to_string a) (Ty.to_string b1)
      | _ -> assert false)
  | Eq | Ne -> (
      arity 2;
      match tys with
      | [ a; b1 ] when Ty.equal a b1 && Ty.array_free a -> Ty.bool_
      | [ a; b1 ] -> err "equality on %s and %s" (Ty.to_string a) (Ty.to_string b1)
      | _ -> assert false)
  | And | Or -> (
      arity 2;
      match tys with
      | [ Ty.Scalar Ty.Bool; Ty.Scalar Ty.Bool ] -> Ty.bool_
      | _ -> err "boolean primitive on non-booleans")
  | Not -> (
      arity 1;
      match tys with
      | [ Ty.Scalar Ty.Bool ] -> Ty.bool_
      | _ -> err "not on non-boolean")
  | ToFloat -> (
      arity 1;
      match tys with
      | [ Ty.Scalar Ty.Int ] -> Ty.float_
      | [ t ] -> err "toFloat on %s" (Ty.to_string t)
      | _ -> assert false)
  | ToInt -> (
      arity 1;
      match tys with
      | [ Ty.Scalar Ty.Float ] -> Ty.int_
      | [ t ] -> err "toInt on %s" (Ty.to_string t)
      | _ -> assert false)

(* Synthesis skips every subtree that cannot change the type of an
   already-checked expression: a pattern's type is fixed by its init or
   its body alone, and an array read's or a tile copy's by its array and
   the dimensions it keeps, so the rest is never re-walked. *)
let rec type_of env e =
  match e with
  | Let (s, e1, e2) -> type_of (Sym.Map.add s (type_of env e1) env) e2
  | Read (a, _) -> (
      match type_of env a with Ty.Array (elt, _) -> elt | _ -> infer env e)
  | Copy { csrc; cdims; _ } -> (
      match type_of env csrc with
      | Ty.Array (elt, _) ->
          let kept = List.filter (function Cfix _ -> false | _ -> true) cdims in
          Ty.Array (elt, List.length kept)
      | _ -> infer env e)
  | Map { mdims; midxs; mbody; _ } ->
      Ty.Array (type_of (bind_idxs env midxs) mbody, List.length mdims)
  | Fold { finit; _ } -> type_of env finit
  | MultiFold { oinit; _ } -> type_of env oinit
  | e -> infer env e

let initial_env (p : program) =
  let env =
    List.fold_left
      (fun m s -> Sym.Map.add s Ty.int_ m)
      Sym.Map.empty p.size_params
  in
  List.fold_left
    (fun m { iname; ielt; ishape } ->
      if not (Ty.array_free ielt) then
        err "input %s has non-scalar element type %s" (Sym.name iname)
          (Ty.to_string ielt);
      let t =
        if ishape = [] then ielt else Ty.Array (ielt, List.length ishape)
      in
      m |> Sym.Map.add iname t)
    env p.inputs

let check_program (p : program) =
  let env = initial_env p in
  List.iter
    (fun { ishape; _ } ->
      List.iter (fun e -> expect_int "input shape" (infer env e)) ishape)
    p.inputs;
  infer env p.body

(* Binders are globally fresh, so one map can hold every binder's type:
   each is added at its node, under the binders of the enclosing nodes,
   before the walk enters its scope.  The walk threads the map through
   every child, siblings included. *)
let binder_types (p : program) =
  let rec exp env e =
    match e with
    | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ -> env
    | Tup es | Prim (_, es) | Zeros (_, es) | ArrLit es -> exps env es
    | Proj (e1, _) | Len (e1, _) -> exp env e1
    | Let (s, e1, e2) -> exp (exp (Sym.Map.add s (type_of env e1) env) e1) e2
    | If (c, t, e1) -> exp (exp (exp env c) t) e1
    | Read (a, idxs) -> exps (exp env a) idxs
    | Slice (a, args) -> slice (exp env a) args
    | Copy { csrc; cdims; _ } -> copy (exp env csrc) cdims
    | Map { mdims; midxs; mbody; _ } ->
        exp (doms (bind_idxs env midxs) mdims) mbody
    | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
        let acc_t = type_of env finit in
        let env = Sym.Map.add facc acc_t (bind_idxs env fidxs) in
        comb (exp (exp (doms env fdims) finit) fupd) fcomb acc_t
    | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; _ } -> (
        let init_t = type_of env oinit in
        let env = exp (doms (bind_idxs env oidxs) odims) oinit in
        let env = outs (lets env olets) oouts (components init_t oouts) in
        match ocomb with None -> env | Some c -> comb env c init_t)
    | FlatMap { fmdim; fmidx; fmbody; _ } ->
        exp (dom (Sym.Map.add fmidx Ty.int_ env) fmdim) fmbody
    | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } ->
        let v_t = type_of env ginit in
        let env = lets (exp (doms (bind_idxs env gidxs) gdims) ginit) glets in
        let env = exp (Sym.Map.add gacc v_t (exp env gkey)) gupd in
        comb env gcomb v_t
  and exps env = function [] -> env | e :: es -> exps (exp env e) es
  and slice env = function
    | [] -> env
    | SFix e :: args -> slice (exp env e) args
    | SAll :: args -> slice env args
  and copy env = function
    | [] -> env
    | Coffset { off; len; _ } :: ds -> copy (exp (exp env off) len) ds
    | Call :: ds -> copy env ds
    | Cfix e :: ds -> copy (exp env e) ds
  and dom env (Dfull e | Dtiles { total = e; _ } | Dtail { total = e; _ }) =
    exp env e
  and doms env = function [] -> env | d :: ds -> doms (dom env d) ds
  and lets env ls = lets_rhs (bind_lets type_of env ls) ls
  and lets_rhs env = function
    | [] -> env
    | (_, e) :: ls -> lets_rhs (exp env e) ls
  and outs env oouts comp_tys =
    match (oouts, comp_tys) with
    | out :: oouts, comp_t :: comp_tys ->
        let env = region (exps env out.orange) out.oregion in
        let acc_t = region_acc_type comp_t out in
        outs (exp (Sym.Map.add out.oacc acc_t env) out.oupd) oouts comp_tys
    | _ -> env
  and region env = function
    | [] -> env
    | (o, l, _) :: r -> region (exp (exp env o) l) r
  and comb env c t = exp (bind_comb env c t) c.cbody in
  exp (initial_env p) p.body
