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

(* One table holds every binder of a program: binders are fresh symbols,
   so the check adds each once, as it reaches it, and keeps it.  A binder
   is [live] while the check is inside its scope, and a use of it outside
   is unbound, as in a scoped environment.  With [check] off the walk
   synthesizes a type (see [type_of]) under a checked program's table:
   its binders are all there, and scopes are not tracked. *)
module Tbl = Hashtbl.Make (Sym)

type slot = { ty : Ty.t; mutable live : bool }
type table = slot Tbl.t
type st = { tbl : table; mutable stamped : bool; check : bool }

(* the type of [s] in scope; [Not_found] outside it *)
let find st s =
  let { ty; live } = Tbl.find st.tbl s in
  if live || not st.check then ty else raise Not_found

let bind st s ty =
  if st.check then begin
    if Tbl.mem st.tbl s then err "symbol %s is bound twice" (Sym.name s);
    Tbl.add st.tbl s { ty; live = true }
  end

(* a binder, already bound, leaves ([false]) or re-enters its scope *)
let mark st live s = if st.check then (Tbl.find st.tbl s).live <- live
let scope st live ss = if st.check then List.iter (mark st live) ss

let stamp st prov = if Prov.is_none prov then st.stamped <- false

(* a MultiFold's init type, one component per output *)
let components init_t oouts =
  match (init_t, oouts) with Ty.Tuple ts, _ :: _ :: _ -> ts | t, _ -> [ t ]

(* the type of an output's [oacc]: the element type of its init component,
   or an array of it over a region with a non-unit length *)
let region_acc_type comp_t out =
  let elt = match comp_t with Ty.Array (elt, _) -> elt | t -> t in
  if List.for_all (fun (_, lene, _) -> lene = Ci 1) out.oregion then elt
  else Ty.Array (elt, List.length out.oregion)

let rec infer st e =
  match e with
  | Var s -> (
      match find st s with
      | t -> t
      | exception Not_found -> err "unbound symbol %s" (Sym.name s))
  | Cf _ -> Ty.float_
  | Ci _ -> Ty.int_
  | Cb _ -> Ty.bool_
  | Tup es -> Ty.Tuple (List.map (infer st) es)
  | Proj (e1, idx) -> (
      match infer st e1 with
      | Ty.Tuple ts when idx >= 0 && idx < List.length ts -> List.nth ts idx
      | Ty.Tuple ts as t ->
          err "projection ._%d on a %d-tuple %s" (idx + 1) (List.length ts)
            (Ty.to_string t)
      | t -> err "projection ._%d on non-tuple %s" (idx + 1) (Ty.to_string t))
  | Prim (p, args) -> infer_prim st p args
  | Let (s, e1, e2) ->
      bind st s (infer st e1);
      let t = infer st e2 in
      mark st false s;
      t
  | If (c, t, e1) ->
      expect_bool "if condition" (infer st c);
      let tt = infer st t and te = infer st e1 in
      same "if branches" tt te;
      tt
  | Len (e1, d) -> (
      match infer st e1 with
      | Ty.Array (_, rank) when d >= 0 && d < rank -> Ty.int_
      | t -> err "dim(%d) on %s" d (Ty.to_string t))
  | Read (a, idxs) -> (
      match infer st a with
      | Ty.Array (elt, rank) ->
          if List.length idxs <> rank then
            err "read with %d indices on rank-%d array" (List.length idxs) rank;
          List.iter (fun i -> expect_int "array index" (infer st i)) idxs;
          elt
      | t -> err "read on non-array %s" (Ty.to_string t))
  | Slice (a, args) -> (
      match infer st a with
      | Ty.Array (elt, rank) ->
          if List.length args <> rank then
            err "slice with %d specs on rank-%d array" (List.length args) rank;
          let kept =
            List.fold_left
              (fun k -> function
                | SAll -> k + 1
                | SFix e1 ->
                    expect_int "slice index" (infer st e1);
                    k)
              0 args
          in
          if kept = 0 then elt else Ty.Array (elt, kept)
      | t -> err "slice on non-array %s" (Ty.to_string t))
  | Copy { csrc; cdims; creuse } -> (
      if creuse < 1 then err "copy with reuse factor %d < 1" creuse;
      match infer st csrc with
      | Ty.Array (elt, rank) ->
          if List.length cdims <> rank then
            err "copy with %d specs on rank-%d array" (List.length cdims) rank;
          let kept =
            List.fold_left
              (fun k -> function
                | Call -> k + 1
                | Coffset { off; len; _ } ->
                    expect_int "copy offset" (infer st off);
                    expect_int "copy length" (infer st len);
                    k + 1
                | Cfix e1 ->
                    expect_int "copy index" (infer st e1);
                    k)
              0 cdims
          in
          if kept = 0 then err "copy must keep at least one dimension";
          Ty.Array (elt, kept)
      | t -> err "copy on non-array %s" (Ty.to_string t))
  | Zeros (elt, shape) ->
      if not (Ty.array_free elt) then
        err "zeros of non-scalar element type %s" (Ty.to_string elt);
      List.iter (fun e1 -> expect_int "zeros dimension" (infer st e1)) shape;
      if shape = [] then elt else Ty.Array (elt, List.length shape)
  | ArrLit es -> (
      match es with
      | [] -> err "empty array literal: use EmptyArr with an element type"
      | e1 :: rest ->
          let t = infer st e1 in
          if not (Ty.array_free t) then
            err "array literal of non-scalar elements %s" (Ty.to_string t);
          List.iter (fun e2 -> same "array literal elements" t (infer st e2)) rest;
          Ty.Array (t, 1))
  | EmptyArr t ->
      if not (Ty.array_free t) then
        err "empty array of non-scalar element type %s" (Ty.to_string t);
      Ty.Array (t, 1)
  | Map { mdims; midxs; mbody; mprov } ->
      stamp st mprov;
      check_doms st mdims midxs;
      scope st true midxs;
      let bt = infer st mbody in
      scope st false midxs;
      if not (Ty.array_free bt) then
        err "Map body must produce scalars, got %s (nested arrays are not allowed)"
          (Ty.to_string bt);
      Ty.Array (bt, List.length mdims)
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; fprov } ->
      stamp st fprov;
      check_doms st fdims fidxs;
      let acc_t = infer st finit in
      scope st true fidxs;
      bind st facc acc_t;
      same "Fold update" acc_t (infer st fupd);
      scope st false (facc :: fidxs);
      check_comb st fcomb acc_t;
      acc_t
  | MultiFold mf -> infer_multifold st mf
  | FlatMap { fmdim; fmidx; fmbody; fmprov } ->
      stamp st fmprov;
      check_doms st [ fmdim ] [ fmidx ];
      mark st true fmidx;
      let bt = infer st fmbody in
      mark st false fmidx;
      (match bt with
      | Ty.Array (elt, 1) -> Ty.Array (elt, 1)
      | t -> err "FlatMap body must be a 1-D array, got %s" (Ty.to_string t))
  | GroupByFold
      { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; gprov } ->
      stamp st gprov;
      check_doms st gdims gidxs;
      let v_t = infer st ginit in
      if not (Ty.array_free v_t) then
        err "GroupByFold bucket type must be scalar, got %s" (Ty.to_string v_t);
      scope st true gidxs;
      bind_lets st glets;
      let k_t = infer st gkey in
      if not (Ty.array_free k_t) then
        err "GroupByFold key type must be scalar, got %s" (Ty.to_string k_t);
      bind st gacc v_t;
      same "GroupByFold update" v_t (infer st gupd);
      scope st false (gacc :: gidxs);
      scope st false (List.map fst glets);
      check_comb st gcomb v_t;
      Ty.Assoc (k_t, v_t)

and infer_multifold st { odims; oidxs; oinit; olets; oouts; ocomb; oprov } =
  stamp st oprov;
  check_doms st odims oidxs;
  let init_t = infer st oinit in
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
  scope st true oidxs;
  bind_lets st olets;
  (* the indices and shared bindings, in or out of scope *)
  let inner live =
    scope st live oidxs;
    scope st live (List.map fst olets)
  in
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
      (* a range sees the outer scope only *)
      if out.orange <> [] then begin
        inner false;
        List.iter (fun e1 -> expect_int "MultiFold range" (infer st e1)) out.orange;
        inner true
      end;
      if List.length out.oregion <> List.length out.orange then
        err "MultiFold region rank %d but range rank %d"
          (List.length out.oregion) (List.length out.orange);
      List.iter
        (fun (off, lene, _) ->
          expect_int "MultiFold region offset" (infer st off);
          expect_int "MultiFold region length" (infer st lene))
        out.oregion;
      let acc_t = region_acc_type comp_t out in
      bind st out.oacc acc_t;
      let upd_t = infer st out.oupd in
      mark st false out.oacc;
      same "MultiFold update" acc_t upd_t)
    oouts (components init_t oouts);
  inner false;
  (match ocomb with None -> () | Some c -> check_comb st c init_t);
  init_t

(* shared bindings, typed left to right, each in scope of the next *)
and bind_lets st ls = List.iter (fun (s, e1) -> bind st s (infer st e1)) ls

(* a combine function's parameters have the accumulator's type *)
and check_comb st { ca; cb; cbody } t =
  bind st cb t;
  bind st ca t;
  let bt = infer st cbody in
  mark st false ca;
  mark st false cb;
  same "combine function" t bt

(* binds the indices, and leaves them out of scope *)
and check_doms st doms idxs =
  if List.length doms <> List.length idxs then
    err "pattern with %d domains but %d indices" (List.length doms)
      (List.length idxs);
  (* later domains may reference earlier sibling indices (the flattened
     [Dtiles; Dtail] form binds the tile index and the in-tile index as
     siblings), so indices come into scope left to right *)
  List.iter2
    (fun d idx ->
      (match d with
      | Dfull e -> expect_int "domain size" (infer st e)
      | Dtiles { total; _ } -> expect_int "tiled domain size" (infer st total)
      | Dtail { total; outer; _ } -> (
          expect_int "tile domain size" (infer st total);
          match find st outer with
          | Ty.Scalar Ty.Int -> ()
          | t ->
              err "tile outer index %s has type %s" (Sym.name outer)
                (Ty.to_string t)
          | exception Not_found ->
              err "tile outer index %s is unbound" (Sym.name outer)));
      bind st idx Ty.int_)
    doms idxs;
  scope st false idxs

and infer_prim st p args =
  let tys = List.map (infer st) args and n = List.length args in
  let arity =
    match p with Neg | Abs | Sqrt | Exp | Log | Not | ToFloat | ToInt -> 1 | _ -> 2
  in
  if n <> arity then err "primitive applied to %d arguments, expected %d" n arity;
  let on what =
    err "%s on %s" what (String.concat " and " (List.map Ty.to_string tys))
  in
  match (p, tys) with
  | ( (Add | Sub | Mul | Div | Min | Max),
      [ Ty.Scalar ((Ty.Float | Ty.Int) as a); Ty.Scalar b ] )
    when a = b ->
      Ty.Scalar a
  | (Add | Sub | Mul | Div | Min | Max), _ -> on "numeric primitive"
  | Mod, [ Ty.Scalar Ty.Int; Ty.Scalar Ty.Int ] -> Ty.int_
  | Mod, _ -> err "mod on non-integers"
  | (Neg | Abs), [ (Ty.Scalar (Ty.Float | Ty.Int) as t) ] -> t
  | (Neg | Abs), _ -> on "neg/abs"
  | (Sqrt | Exp | Log), [ Ty.Scalar Ty.Float ] -> Ty.float_
  | (Sqrt | Exp | Log), _ -> on "float primitive"
  | (Lt | Le | Gt | Ge), [ Ty.Scalar ((Ty.Float | Ty.Int) as a); Ty.Scalar b ]
    when a = b ->
      Ty.bool_
  | (Lt | Le | Gt | Ge), _ -> on "comparison"
  | (Eq | Ne), [ a; b ] when Ty.equal a b && Ty.array_free a -> Ty.bool_
  | (Eq | Ne), _ -> on "equality"
  | (And | Or), [ Ty.Scalar Ty.Bool; Ty.Scalar Ty.Bool ] -> Ty.bool_
  | (And | Or), _ -> err "boolean primitive on non-booleans"
  | Not, [ Ty.Scalar Ty.Bool ] -> Ty.bool_
  | Not, _ -> err "not on non-boolean"
  | ToFloat, [ Ty.Scalar Ty.Int ] -> Ty.float_
  | ToFloat, _ -> on "toFloat"
  | ToInt, [ Ty.Scalar Ty.Float ] -> Ty.int_
  | ToInt, _ -> on "toInt"

(* Synthesis skips every subtree that cannot change the type of an
   already-checked expression: a pattern's type is fixed by its init or
   its body alone, and an array read's or a tile copy's by its array and
   the dimensions it keeps, so the rest is never re-walked.  Every binder
   is in the table, so none is added. *)
let synth tbl e = infer { tbl; stamped = true; check = false } e

let rec type_of tbl e =
  match e with
  | Let (_, _, e2) -> type_of tbl e2
  | Read (a, _) -> (
      match type_of tbl a with Ty.Array (elt, _) -> elt | _ -> synth tbl e)
  | Copy { csrc; cdims; _ } -> (
      match type_of tbl csrc with
      | Ty.Array (elt, _) ->
          let kept = List.filter (function Cfix _ -> false | _ -> true) cdims in
          Ty.Array (elt, List.length kept)
      | _ -> synth tbl e)
  | Map { mdims; mbody; _ } -> Ty.Array (type_of tbl mbody, List.length mdims)
  | Fold { finit; _ } -> type_of tbl finit
  | MultiFold { oinit; _ } -> type_of tbl oinit
  | e -> synth tbl e

let binder_type tbl s = (Tbl.find tbl s).ty
let add_binder tbl s ty = Tbl.replace tbl s { ty; live = false }

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

(* a table holding [env], in scope *)
let table_of env =
  let tbl = Tbl.create 64 in
  Sym.Map.iter (fun s ty -> Tbl.replace tbl s { ty; live = true }) env;
  tbl

type checked = { program : program; table : table; result : Ty.t; stamped : bool }

let check_program (p : program) =
  let st = { tbl = table_of (initial_env p); stamped = true; check = true } in
  List.iter
    (fun { ishape; _ } ->
      List.iter (fun e -> expect_int "input shape" (infer st e)) ishape)
    p.inputs;
  let result = infer st p.body in
  { program = p; table = st.tbl; result; stamped = st.stamped }

let program c = c.program
let table c = c.table
let result c = c.result
let stamped c = c.stamped

let infer env e = infer { tbl = table_of env; stamped = true; check = true } e
