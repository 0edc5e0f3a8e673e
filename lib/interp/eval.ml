open Ir
module V = Value

type mode = Sequential | Chunked of int | Parallel of int
type env = V.t Sym.Map.t

exception Eval_error of string

let err fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let lookup env s =
  match Sym.Map.find_opt s env with
  | Some v -> v
  | None -> err "unbound symbol %s" (Sym.name s)

(* Optional access instrumentation (see Profile).  A single global hook
   keeps the recursive evaluator signature unchanged; [with_hook]
   installs it for the dynamic extent of one evaluation and is not
   reentrant. *)
let access_hook : (Sym.t -> int -> unit) option ref = ref None

let with_hook hook f =
  let saved = !access_hook in
  access_hook := Some hook;
  Fun.protect ~finally:(fun () -> access_hook := saved) f

let record_access s words =
  match !access_hook with Some h -> h s words | None -> ()

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let num2 name ff fi a b =
  match (a, b) with
  | V.F x, V.F y -> V.F (ff x y)
  | V.I x, V.I y -> V.I (fi x y)
  | _ -> err "%s on %s and %s" name (V.to_string a) (V.to_string b)

let cmp2 name ff fi a b =
  match (a, b) with
  | V.F x, V.F y -> V.B (ff x y)
  | V.I x, V.I y -> V.B (fi x y)
  | _ -> err "%s on %s and %s" name (V.to_string a) (V.to_string b)

let eval_prim p args =
  match (p, args) with
  | Add, [ a; b ] -> num2 "+" ( +. ) ( + ) a b
  | Sub, [ a; b ] -> num2 "-" ( -. ) ( - ) a b
  | Mul, [ a; b ] -> num2 "*" ( *. ) ( * ) a b
  | Div, [ a; b ] -> num2 "/" ( /. ) ( / ) a b
  | Mod, [ V.I x; V.I y ] -> V.I (x mod y)
  | Neg, [ V.F x ] -> V.F (-.x)
  | Neg, [ V.I x ] -> V.I (-x)
  | Min, [ a; b ] -> num2 "min" Float.min Int.min a b
  | Max, [ a; b ] -> num2 "max" Float.max Int.max a b
  | Abs, [ V.F x ] -> V.F (Float.abs x)
  | Abs, [ V.I x ] -> V.I (abs x)
  | Sqrt, [ V.F x ] -> V.F (sqrt x)
  | Exp, [ V.F x ] -> V.F (exp x)
  | Log, [ V.F x ] -> V.F (log x)
  | Lt, [ a; b ] -> cmp2 "<" ( < ) ( < ) a b
  | Le, [ a; b ] -> cmp2 "<=" ( <= ) ( <= ) a b
  | Gt, [ a; b ] -> cmp2 ">" ( > ) ( > ) a b
  | Ge, [ a; b ] -> cmp2 ">=" ( >= ) ( >= ) a b
  | Eq, [ a; b ] -> V.B (V.equal ~eps:0.0 a b)
  | Ne, [ a; b ] -> V.B (not (V.equal ~eps:0.0 a b))
  | And, [ V.B x; V.B y ] -> V.B (x && y)
  | Or, [ V.B x; V.B y ] -> V.B (x || y)
  | Not, [ V.B x ] -> V.B (not x)
  | ToFloat, [ V.I x ] -> V.F (float_of_int x)
  | ToInt, [ V.F x ] -> V.I (int_of_float x)
  | _ ->
      err "ill-typed primitive application (%s)"
        (String.concat ", " (List.map V.to_string args))

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let rec eval ?(mode = Sequential) env e =
  let ev env e = eval ~mode env e in
  match e with
  | Var s -> lookup env s
  | Cf x -> V.F x
  | Ci x -> V.I x
  | Cb x -> V.B x
  | Tup es -> V.Tup (List.map (ev env) es)
  | Proj (e1, idx) -> (
      match ev env e1 with
      | V.Tup vs when idx < List.length vs -> List.nth vs idx
      | v -> err "projection on %s" (V.to_string v))
  | Prim (p, es) -> eval_prim p (List.map (ev env) es)
  | Let (s, e1, e2) -> ev (Sym.Map.add s (ev env e1) env) e2
  | If (c, t, e1) -> if V.to_bool (ev env c) then ev env t else ev env e1
  | Len (e1, d) -> V.I (Ndarray.dim (V.to_arr (ev env e1)) d)
  | Read (a, idxs) ->
      (match a with Var s -> record_access s 1 | _ -> ());
      Ndarray.get (V.to_arr (ev env a)) (List.map (eval_int ~mode env) idxs)
  | Slice (a, args) ->
      let arr = V.to_arr (ev env a) in
      let specs =
        List.mapi
          (fun d arg ->
            match arg with
            | SFix e1 -> Ndarray.Fix (eval_int ~mode env e1)
            | SAll -> Ndarray.Range (0, Ndarray.dim arr d))
          args
      in
      V.Arr (Ndarray.slice_view arr specs)
  | Copy { csrc; cdims; creuse } ->
      let arr = V.to_arr (ev env csrc) in
      let specs =
        List.mapi
          (fun d cd ->
            match cd with
            | Call -> Ndarray.Range (0, Ndarray.dim arr d)
            | Cfix e1 -> Ndarray.Fix (eval_int ~mode env e1)
            | Coffset { off; len; _ } ->
                Ndarray.Range (eval_int ~mode env off, eval_int ~mode env len))
          cdims
      in
      let region = Ndarray.copy_region arr specs in
      (match csrc with
      | Var s -> record_access s (Ndarray.size region / creuse)
      | _ -> ());
      V.Arr region
  | Zeros (elt, shape) ->
      let rec zero_of = function
        | Ty.Scalar Ty.Float -> V.F 0.0
        | Ty.Scalar Ty.Int -> V.I 0
        | Ty.Scalar Ty.Bool -> V.B false
        | Ty.Tuple ts -> V.Tup (List.map zero_of ts)
        | t -> err "zeros of non-scalar element type %s" (Ty.to_string t)
      in
      let zero = zero_of elt in
      if shape = [] then zero
      else V.Arr (Ndarray.create (List.map (eval_int ~mode env) shape) zero)
  | ArrLit es -> V.Arr (Ndarray.of_list (List.map (ev env) es))
  | EmptyArr _ -> V.Arr (Ndarray.of_list [])
  | Map { mdims; midxs; mbody; _ } ->
      (* Map iteration spaces are rectangular: any Dtail refers to an
         enclosing binder already bound in [env]. *)
      let shape = List.map (dom_extent ~mode env) mdims in
      let result =
        Ndarray.init shape (fun idx ->
            let env' = bind_indices env midxs idx in
            ev env' mbody)
      in
      V.Arr result
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
      let init () = V.deep_copy (ev env finit) in
      let step acc env_i = eval ~mode (Sym.Map.add facc acc env_i) fupd in
      let combine a b = eval_comb ~mode env fcomb a b in
      reduce_domain ~mode env fdims fidxs ~init ~step ~combine
  | MultiFold mf -> eval_multifold ~mode env mf
  | FlatMap { fmdim; fmidx; fmbody; _ } ->
      let n = dom_extent ~mode env fmdim in
      let pieces =
        List.init n (fun idx ->
            let env' = Sym.Map.add fmidx (V.I idx) env in
            V.to_arr (ev env' fmbody))
      in
      V.Arr (Ndarray.concat1 pieces)
  | GroupByFold g -> eval_groupbyfold ~mode env g

and eval_int ?(mode = Sequential) env e = V.to_int (eval ~mode env e)

and bind_indices env idxs idx_vals =
  List.fold_left2 (fun m s v -> Sym.Map.add s (V.I v) m) env idxs idx_vals

and dom_extent ~mode env = function
  | Dfull e -> eval_int ~mode env e
  | Dtiles { total; tile } ->
      let t = eval_int ~mode env total in
      (t + tile - 1) / tile
  | Dtail { total; tile; outer } ->
      let t = eval_int ~mode env total in
      let o = V.to_int (lookup env outer) in
      Int.min tile (t - (o * tile))

and eval_comb ~mode env { ca; cb; cbody } a b =
  let env' = Sym.Map.add ca a (Sym.Map.add cb b env) in
  eval ~mode env' cbody

(* Iterate a possibly ragged domain: each dimension's extent may depend on
   earlier sibling indices (flattened tiled forms bind the tile index and
   the in-tile index as sibling dimensions). [f] receives the environment
   with all indices bound.  The first dimension can be restricted, which
   implements chunked evaluation. *)
and iter_domain ~mode env doms idxs ~first_lo ~first_hi f =
  match (doms, idxs) with
  | [], [] -> ()
  | d0 :: drest, s0 :: srest ->
      let ext = dom_extent ~mode env d0 in
      let lo = Int.max 0 first_lo and hi = Int.min ext first_hi in
      for v = lo to hi - 1 do
        let env0 = Sym.Map.add s0 (V.I v) env in
        let rec go env doms idxs =
          match (doms, idxs) with
          | [], [] -> f env
          | d :: dr, s :: sr ->
              let ext = dom_extent ~mode env d in
              for w = 0 to ext - 1 do
                go (Sym.Map.add s (V.I w) env) dr sr
              done
          | _ -> assert false
        in
        go env0 drest srest
      done
  | _ -> assert false

(* Reduce over a domain.  In [Chunked c] mode the outermost dimension is
   split into chunks, each reduced into its own copy of the identity, and
   partials merged with [combine]. *)
and reduce_domain : 'a.
    mode:mode -> env -> dom list -> Sym.t list -> init:(unit -> 'a) ->
    step:('a -> env -> 'a) -> combine:('a -> 'a -> 'a) -> 'a =
 fun ~mode env doms idxs ~init ~step ~combine ->
  let run_range lo hi =
    let acc = ref (init ()) in
    iter_domain ~mode env doms idxs ~first_lo:lo ~first_hi:hi (fun env_i ->
        acc := step !acc env_i);
    !acc
  in
  match doms with
  | [] -> init ()
  | d0 :: _ -> (
      let outer = dom_extent ~mode env d0 in
      (* [map] evaluates the chunks: [List.map], or [Pool.map] in
         Parallel mode.  A reduction nested in a chunk maps while the pool
         is serving, so it runs inline on its domain; either way the
         partials merge in chunk order and the value equals [Chunked]. *)
      let chunked map c =
        let c = Int.max 1 c in
        let nchunks = (outer + c - 1) / c in
        if nchunks <= 1 then run_range 0 outer
        else
          let partials =
            map
              (fun k -> run_range (k * c) (Int.min outer ((k + 1) * c)))
              (List.init nchunks Fun.id)
          in
          List.fold_left combine (List.hd partials) (List.tl partials)
      in
      match mode with
      | Sequential -> run_range 0 outer
      | Chunked c -> chunked List.map c
      | Parallel c -> chunked (fun f ks -> Pool.map f ks) c)

and eval_multifold ~mode env { odims; oidxs; oinit; olets; oouts; ocomb; _ } =
  let multi = List.length oouts > 1 in
  let split v =
    if multi then
      match v with
      | V.Tup vs -> Array.of_list vs
      | v -> err "MultiFold tuple accumulator expected, got %s" (V.to_string v)
    else [| v |]
  in
  let join comps = if multi then V.Tup (Array.to_list comps) else comps.(0) in
  let init () = split (V.deep_copy (eval ~mode env oinit)) in
  let step comps env_i =
    let env_i =
      List.fold_left
        (fun m (s, e1) -> Sym.Map.add s (eval ~mode m e1) m)
        env_i olets
    in
    List.iteri
      (fun k { orange = _; oregion; oacc; oupd } ->
        let offs = List.map (fun (o, _, _) -> eval_int ~mode env_i o) oregion in
        let lens = List.map (fun (_, l, _) -> eval_int ~mode env_i l) oregion in
        (* scalar updates are a *syntactic* property (all lengths literally
           1), matching the validator's typing: a ragged corner tile whose
           lengths happen to evaluate to 1 is still an array update *)
        let unit_region = List.for_all (fun (_, l, _) -> l = Ci 1) oregion in
        if oregion = [] then begin
          (* scalar accumulator component *)
          let env_u = Sym.Map.add oacc comps.(k) env_i in
          comps.(k) <- eval ~mode env_u oupd
        end
        else
          let arr = V.to_arr comps.(k) in
          if unit_region then begin
            let cur = Ndarray.get arr offs in
            let env_u = Sym.Map.add oacc cur env_i in
            Ndarray.set arr offs (eval ~mode env_u oupd)
          end
          else begin
            let specs = List.map2 (fun o l -> Ndarray.Range (o, l)) offs lens in
            let cur = V.Arr (Ndarray.copy_region arr specs) in
            let env_u = Sym.Map.add oacc cur env_i in
            let nv = V.to_arr (eval ~mode env_u oupd) in
            Ndarray.blit_region ~src:nv ~dst:arr offs
          end)
      oouts;
    comps
  in
  match ocomb with
  | None ->
      (* Every location is written exactly once: a shared accumulator is
         correct in any evaluation order, so chunking is irrelevant. *)
      let comps = init () in
      iter_domain ~mode env odims oidxs ~first_lo:0 ~first_hi:max_int
        (fun env_i -> ignore (step comps env_i));
      join comps
  | Some comb ->
      let combine a b = split (eval_comb ~mode env comb (join a) (join b)) in
      let result = reduce_domain ~mode env odims oidxs ~init ~step ~combine in
      join result

and eval_groupbyfold ~mode env
    { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } =
  let run_range lo hi =
    let buckets = ref [] in
    iter_domain ~mode env gdims gidxs ~first_lo:lo ~first_hi:hi (fun env_i ->
        let env_i =
          List.fold_left
            (fun m (s, e1) -> Sym.Map.add s (eval ~mode m e1) m)
            env_i glets
        in
        let key = eval ~mode env_i gkey in
        let cur =
          match
            List.find_opt (fun (k, _) -> V.equal ~eps:0.0 k key) !buckets
          with
          | Some (_, v) -> v
          | None -> V.deep_copy (eval ~mode env ginit)
        in
        let nv = eval ~mode (Sym.Map.add gacc cur env_i) gupd in
        if List.exists (fun (k, _) -> V.equal ~eps:0.0 k key) !buckets then
          buckets :=
            List.map
              (fun (k, v) -> if V.equal ~eps:0.0 k key then (k, nv) else (k, v))
              !buckets
        else buckets := !buckets @ [ (key, nv) ]);
    !buckets
  in
  let merge b1 b2 =
    List.fold_left
      (fun acc (k, v) ->
        if List.exists (fun (k', _) -> V.equal ~eps:0.0 k' k) acc then
          List.map
            (fun (k', v') ->
              if V.equal ~eps:0.0 k' k then (k', eval_comb ~mode env gcomb v' v)
              else (k', v'))
            acc
        else acc @ [ (k, v) ])
      b1 b2
  in
  let result =
    match gdims with
    | [] -> []
    | d0 :: _ -> (
        let n = dom_extent ~mode env d0 in
        match mode with
        | Sequential -> run_range 0 n
        | Chunked c | Parallel c ->
            let c = Int.max 1 c in
            let nchunks = (n + c - 1) / c in
            if nchunks <= 1 then run_range 0 n
            else
              let partials =
                List.init nchunks (fun k ->
                    run_range (k * c) (Int.min n ((k + 1) * c)))
              in
              List.fold_left merge (List.hd partials) (List.tl partials))
  in
  V.Assoc result

let eval_program ?(mode = Sequential) (p : program) ~sizes ~inputs =
  let env =
    List.fold_left
      (fun m s ->
        match List.find_opt (fun (k, _) -> Sym.equal k s) sizes with
        | Some (_, v) -> Sym.Map.add s (V.I v) m
        | None -> err "missing size parameter %s" (Sym.name s))
      Sym.Map.empty p.size_params
  in
  let env =
    List.fold_left
      (fun m inp ->
        match List.find_opt (fun (k, _) -> Sym.equal k inp.iname) inputs with
        | Some (_, v) -> Sym.Map.add inp.iname v m
        | None -> err "missing input %s" (Sym.name inp.iname))
      env p.inputs
  in
  eval ~mode env p.body
