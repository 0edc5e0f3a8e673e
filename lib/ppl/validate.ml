open Ir

exception Type_error of string

let err fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec array_free = function
  | Ty.Scalar _ -> true
  | Ty.Tuple ts -> List.for_all array_free ts
  | Ty.Array _ | Ty.Assoc _ -> false

let is_elt_ty t = array_free t

let expect_int what = function
  | Ty.Scalar Ty.Int -> ()
  | t -> err "%s must be Int, got %s" what (Ty.to_string t)

let expect_bool what = function
  | Ty.Scalar Ty.Bool -> ()
  | t -> err "%s must be Bool, got %s" what (Ty.to_string t)

let same what a b =
  if not (Ty.equal a b) then
    err "%s: type mismatch (%s vs %s)" what (Ty.to_string a) (Ty.to_string b)

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
      if not (is_elt_ty elt) then
        err "zeros of non-scalar element type %s" (Ty.to_string elt);
      List.iter (fun e1 -> expect_int "zeros dimension" (infer env e1)) shape;
      if shape = [] then elt else Ty.Array (elt, List.length shape)
  | ArrLit es -> (
      match es with
      | [] -> err "empty array literal: use EmptyArr with an element type"
      | e1 :: rest ->
          let t = infer env e1 in
          if not (is_elt_ty t) then
            err "array literal of non-scalar elements %s" (Ty.to_string t);
          List.iter (fun e2 -> same "array literal elements" t (infer env e2)) rest;
          Ty.Array (t, 1))
  | EmptyArr t ->
      if not (is_elt_ty t) then
        err "empty array of non-scalar element type %s" (Ty.to_string t);
      Ty.Array (t, 1)
  | Map { mdims; midxs; mbody; _ } ->
      check_doms env mdims midxs;
      let env' = bind_idxs env midxs in
      let bt = infer env' mbody in
      if not (is_elt_ty bt) then
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
      if not (is_elt_ty v_t) then
        err "GroupByFold bucket type must be scalar, got %s" (Ty.to_string v_t);
      let env_i = bind_idxs env gidxs in
      let env_i =
        List.fold_left (fun m (s, e1) -> Sym.Map.add s (infer m e1) m) env_i glets
      in
      let k_t = infer env_i gkey in
      if not (is_elt_ty k_t) then
        err "GroupByFold key type must be scalar, got %s" (Ty.to_string k_t);
      same "GroupByFold update" v_t (infer (Sym.Map.add gacc v_t env_i) gupd);
      check_comb env gcomb v_t;
      Ty.Assoc (k_t, v_t)

and infer_multifold env { odims; oidxs; oinit; olets; oouts; ocomb; _ } =
  check_doms env odims oidxs;
  let init_t = infer env oinit in
  let comp_tys =
    match (init_t, oouts) with
    | _, [] -> err "MultiFold with no outputs"
    | Ty.Tuple ts, _ :: _ :: _ ->
        if List.length ts <> List.length oouts then
          err "MultiFold: %d outputs but init tuple has %d components"
            (List.length oouts) (List.length ts);
        ts
    | t, [ _ ] -> [ t ]
    | t, outs ->
        err "MultiFold: %d outputs but init is %s" (List.length outs)
          (Ty.to_string t)
  in
  let env_i = bind_idxs env oidxs in
  let env_i =
    List.fold_left (fun m (s, e1) -> Sym.Map.add s (infer m e1) m) env_i olets
  in
  List.iter2
    (fun out comp_t ->
      let elt =
        match comp_t with
        | Ty.Array (elt, rank) ->
            if List.length out.orange <> rank then
              err "MultiFold output range rank %d but accumulator rank %d"
                (List.length out.orange) rank;
            elt
        | t when is_elt_ty t ->
            if List.length out.orange <> 0 then
              err "MultiFold scalar accumulator with non-empty range";
            t
        | t -> err "MultiFold accumulator of type %s" (Ty.to_string t)
      in
      List.iter (fun e1 -> expect_int "MultiFold range" (infer env e1)) out.orange;
      if List.length out.oregion <> List.length out.orange then
        err "MultiFold region rank %d but range rank %d"
          (List.length out.oregion) (List.length out.orange);
      List.iter
        (fun (off, lene, _) ->
          expect_int "MultiFold region offset" (infer env_i off);
          expect_int "MultiFold region length" (infer env_i lene))
        out.oregion;
      let unit_region =
        List.for_all (fun (_, lene, _) -> lene = Ci 1) out.oregion
      in
      let acc_t =
        if unit_region || out.oregion = [] then elt
        else Ty.Array (elt, List.length out.oregion)
      in
      let upd_t = infer (Sym.Map.add out.oacc acc_t env_i) out.oupd in
      same "MultiFold update" acc_t upd_t)
    oouts comp_tys;
  (match ocomb with None -> () | Some c -> check_comb env c init_t);
  init_t

and check_comb env { ca; cb; cbody } t =
  let env' = Sym.Map.add ca t (Sym.Map.add cb t env) in
  same "combine function" t (infer env' cbody)

and bind_idxs env idxs =
  List.fold_left (fun m s -> Sym.Map.add s Ty.int_ m) env idxs

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
      | [ a; b1 ] when Ty.equal a b1 && is_elt_ty a -> Ty.bool_
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
   its body alone, so the rest of the pattern is never re-walked. *)
let rec type_of env e =
  match e with
  | Let (s, e1, e2) -> type_of (Sym.Map.add s (type_of env e1) env) e2
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
      if not (is_elt_ty ielt) then
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
