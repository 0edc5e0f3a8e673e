open Ir

type ctx = {
  budget : int;
  types : Validate.table;
      (* the input's, from its check, extended by every binder a rule mints *)
  bound : exp -> int option;
  mutable fired : bool;  (* set when any rule rewrites a node *)
}

let type_of ctx e = Validate.type_of ctx.types e
let add ctx s t = Validate.add_binder ctx.types s t

(* [s'], minted for [s], has its type *)
let copy ctx s s' = add ctx s' (Validate.binder_type ctx.types s)
let rename ctx e = Ir.rename_binders ~renamed:(copy ctx) e
let fresh ctx s = Ir.refresh ~renamed:(copy ctx) s

let unstrided doms = List.for_all (fun d -> not (is_strided d)) doms

(* ----------------------------------------------------------------- *)
(* Rule 1: strided fold out of unstrided map                          *)
(* ----------------------------------------------------------------- *)

(* Map{U}{ Fold{d/b}{...} }  ==>  Fold{d/b}{ Map{U}{...} }
   The fold accumulator becomes an array over U; init, update and combine
   are lifted elementwise, so it must be array-free. *)
let try_rule1 ctx { mdims; midxs; mbody; mprov } =
  match mbody with
  | Fold
      { fdims = [ (Dtiles _ as sd) ]; fidxs = [ kk ]; finit; facc; fupd; fcomb;
        fprov }
    when unstrided mdims && Ty.array_free (type_of ctx finit) ->
      (* the lifted accumulator and combine parameters *)
      let lifted_t = Ty.Array (type_of ctx finit, List.length mdims) in
      let kk' = fresh ctx kk in
      let lift body_build =
        let idxs' = List.map (fresh ctx) midxs in
        let sigma =
          List.fold_left2
            (fun m s s' -> Sym.Map.add s (Var s') m)
            Sym.Map.empty midxs idxs'
        in
        Map
          { mdims;
            midxs = idxs';
            mbody = body_build sigma (List.map (fun s -> Var s) idxs');
            mprov = Prov.push mprov "interchange.lift" }
      in
      let init' =
        lift (fun sigma _ -> rename ctx (Ir.subst sigma finit))
      in
      let acc_a = Sym.fresh (Sym.base facc) in
      add ctx acc_a lifted_t;
      let upd' =
        lift (fun sigma idx_vars ->
            let sigma =
              sigma
              |> Sym.Map.add kk (Var kk')
              |> Sym.Map.add facc (Read (Var acc_a, idx_vars))
            in
            rename ctx (Ir.subst sigma fupd))
      in
      let a = Sym.fresh "a" and b = Sym.fresh "b" in
      add ctx a lifted_t;
      add ctx b lifted_t;
      let comb_body =
        lift (fun sigma idx_vars ->
            ignore sigma;
            comb_apply
              (Combs.rename ~renamed:(copy ctx) fcomb)
              (Read (Var a, idx_vars)) (Read (Var b, idx_vars)))
      in
      Some
        (Fold
           { fdims = [ sd ];
             fidxs = [ kk' ];
             finit = init';
             facc = acc_a;
             fupd = upd';
             fcomb = { ca = a; cb = b; cbody = comb_body };
             fprov = Prov.push fprov "interchange" })
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Rule 2: strided no-reduction MultiFold out of unstrided fold       *)
(* ----------------------------------------------------------------- *)

(* Fold{U}{ acc => MultiFold{d/b}{ (o +: l) => Map{l}{ j => f(acc(o+j)) } } }
     ==>  MultiFold{d/b}{ (o +: l) => Fold{U}{ accs => Map{l}{ j => f(accs(j)) } } }
   Sound when each written slice element depends only on the accumulator
   at its own (global) position, checked via affine equality of every
   accumulator read against [offset + inner index]. *)
let try_rule2 ctx { fdims; fidxs; finit; facc; fupd; fcomb; fprov } =
  match fupd with
  | MultiFold
      { odims = [ (Dtiles _ as sd) ];
        oidxs = [ kk ];
        olets = [];
        oouts =
          [ { orange = [ range ];
              oregion = [ (off, len, lenb) ];
              oacc;
              oupd =
                Map { mdims = [ tail_dom ]; midxs = [ j ]; mbody;
                      mprov = inner_mprov } } ];
        ocomb = None;
        oprov;
        _ }
    when List.for_all (fun d -> not (is_strided d)) fdims -> (
      (* every read of the fold accumulator must target offset + j *)
      let expected =
        match (Affine.of_exp (Simplify.exp off), Affine.of_exp (Var j)) with
        | Some o, Some jj -> Some (Affine.add o jj)
        | _ -> None
      in
      let acc_reads_ok =
        match expected with
        | None -> false
        | Some want ->
            (* every occurrence of the accumulator symbol must be a read at
               exactly [offset + j]: compare the count of well-formed reads
               against the count of Var occurrences (each read contains
               one) *)
            let total = ref 0 and proper = ref 0 in
            Rewrite.iter_exp
              (function
                | Var s when Sym.equal s facc -> incr total
                | Read (Var s, [ idx ]) when Sym.equal s facc -> (
                    match Affine.of_exp (Simplify.exp idx) with
                    | Some a when Affine.equal a want -> incr proper
                    | _ -> ())
                | _ -> ())
              mbody;
            !total > 0 && !total = !proper
      in
      match (finit, Combs.elementwise ~renamed:(copy ctx) fcomb, acc_reads_ok) with
      | Zeros (elt, [ _ ]), Some build, true ->
          let kk' = fresh ctx kk in
          let sub_kk e = Ir.subst (Sym.Map.singleton kk (Var kk')) e in
          let off' = sub_kk off and len' = sub_kk len in
          let tail_dom' =
            match tail_dom with
            | Dtail { total; tile; outer } ->
                Dtail
                  { total;
                    tile;
                    outer = (if Sym.equal outer kk then kk' else outer) }
            | d -> d
          in
          let fidxs' = List.map (fresh ctx) fidxs in
          let facc' = fresh ctx facc in
          let j' = fresh ctx j in
          (* inner body: acc reads redirected to the slice at j' *)
          let rec redirect e =
            match e with
            | Read (Var s, [ _ ]) when Sym.equal s facc ->
                Read (Var facc', [ Var j' ])
            | e -> Rewrite.map_children redirect e
          in
          let sigma =
            List.fold_left2
              (fun m a b -> Sym.Map.add a (Var b) m)
              (Sym.Map.add kk (Var kk') (Sym.Map.singleton j (Var j')))
              fidxs fidxs'
          in
          let inner_body =
            rename ctx (Ir.subst sigma (redirect mbody))
          in
          let slice_acc = Sym.fresh "acc" in
          copy ctx oacc slice_acc;
          Some
            (MultiFold
               { odims = [ sd ];
                 oidxs = [ kk' ];
                 oinit = Zeros (elt, [ range ]);
                 olets = [];
                 oouts =
                   [ { orange = [ range ];
                       oregion = [ (off', len', lenb) ];
                       oacc = slice_acc;
                       oupd =
                         Fold
                           { fdims;
                             fidxs = fidxs';
                             finit = Zeros (elt, [ len' ]);
                             facc = facc';
                             fupd =
                               Map
                                 { mdims = [ tail_dom' ];
                                   midxs = [ j' ];
                                   mbody = inner_body;
                                   mprov =
                                     Prov.push inner_mprov "interchange" };
                             fcomb =
                               (let a = Sym.fresh "a" and b = Sym.fresh "b" in
                                copy ctx facc a;
                                copy ctx facc b;
                                { ca = a;
                                  cb = b;
                                  cbody = build [ len' ] (Var a) (Var b) });
                             fprov = Prov.push fprov "interchange" } }
                   ];
                 ocomb = None;
                 oprov = Prov.push oprov "interchange" })
      | _ -> None)
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Split: fission an imperfect nest to expose a perfect one           *)
(* ----------------------------------------------------------------- *)

(* MultiFold{D}{ t = Fold{d/b}{...}; scatter(t) }
     ==>  tmp = Map{D}{ Fold{d/b}{...} }           (then rule 1 on the Map)
          MultiFold{D}{ t = tmp(i); scatter(t) }
   Only when the tmp intermediate fits on-chip. *)
let rec peel_projs acc = function
  | Proj (e, i) -> peel_projs (i :: acc) e
  | e -> (acc, e)

let rebuild_projs projs e =
  List.fold_right (fun i acc -> Proj (acc, i)) (List.rev projs) e

let try_split ctx ({ odims; oidxs; olets; _ } as mf) =
  match olets with
  | [ (t, whole) ] when unstrided odims -> (
      (* the binding may project out of the fold (e.g. taking ._2 of a
         (distance, index) pair): split on the fold underneath and keep
         the projection on the intermediate reads *)
      let projs, bexp = peel_projs [] whole in
      match bexp with
      | Fold { fdims = [ Dtiles _ ]; _ } -> (
      match type_of ctx bexp with
      | elt_t
        when Ty.array_free elt_t
             && Split_cost.intermediate_fits ~budget_words:ctx.budget
                  ~bound:ctx.bound odims elt_t ->
          let map_idxs = List.map (fresh ctx) oidxs in
          let sigma =
            List.fold_left2
              (fun m s s' -> Sym.Map.add s (Var s') m)
              Sym.Map.empty oidxs map_idxs
          in
          let mapped =
            { mdims = odims;
              midxs = map_idxs;
              mbody = rename ctx (Ir.subst sigma bexp);
              mprov = Prov.push mf.oprov "interchange.split" }
          in
          let interchanged =
            match try_rule1 ctx mapped with Some e -> e | None -> Map mapped
          in
          let tmp = Sym.fresh (Sym.base t ^ "s") in
          add ctx tmp (Ty.Array (elt_t, List.length odims));
          Some
            (Let
               ( tmp,
                 interchanged,
                 MultiFold
                   { mf with
                     olets =
                       [ ( t,
                           rebuild_projs projs
                             (Read (Var tmp, List.map (fun s -> Var s) oidxs))
                         ) ]
                   } ))
      | _ -> None)
      | _ -> None)
  | _ -> None

(* ----------------------------------------------------------------- *)
(* Bottom-up driver                                                   *)
(* ----------------------------------------------------------------- *)

let fire ctx e =
  ctx.fired <- true;
  e

let rec ic ctx e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ | Zeros _ -> e
  | Tup _ | Proj _ | Prim _ | Let _ | If _ | Len _ | Read _ | Slice _
  | Copy _ | ArrLit _ ->
      Rewrite.map_children (ic ctx) e
  | Map m -> (
      let m' = { m with mbody = ic ctx m.mbody } in
      match try_rule1 ctx m' with
      | Some e' -> fire ctx e'
      | None -> Map m')
  | Fold f -> (
      let f' = { f with finit = ic ctx f.finit; fupd = ic ctx f.fupd } in
      match try_rule2 ctx f' with Some e' -> fire ctx e' | None -> Fold f')
  | MultiFold mf -> (
      let olets' = List.map (fun (s, e1) -> (s, ic ctx e1)) mf.olets in
      let oouts' =
        List.map (fun out -> { out with oupd = ic ctx out.oupd }) mf.oouts
      in
      let mf' = { mf with oinit = ic ctx mf.oinit; olets = olets'; oouts = oouts' } in
      match try_split ctx mf' with Some e' -> fire ctx e' | None -> MultiFold mf')
  | FlatMap fm -> FlatMap { fm with fmbody = ic ctx fm.fmbody }
  | GroupByFold g ->
      let glets' = List.map (fun (s, e1) -> (s, ic ctx e1)) g.glets in
      GroupByFold
        { g with glets = glets'; gkey = ic ctx g.gkey; gupd = ic ctx g.gupd }

let program ?(budget_words = Split_cost.budget_words) c =
  let p = Validate.program c in
  let ctx =
    { budget = budget_words; types = Validate.table c;
      bound = Ir.size_bound p; fired = false }
  in
  (* "We apply these two rules whenever possible" (Section 4): one
     interchange can expose another, so iterate to a fixpoint (bounded —
     each application strictly restructures a nest).  A round's input has
     every binder in [ctx.types]: its rules added those they minted. *)
  let rec fix n body =
    ctx.fired <- false;
    let body' = ic ctx body in
    (* a pass where no rule fired rebuilt the same tree: nothing to count *)
    if n = 0 || (not ctx.fired)
       || Rewrite.node_count body' = Rewrite.node_count body
    then body'
    else fix (n - 1) body'
  in
  { p with body = fix 3 p.body }
