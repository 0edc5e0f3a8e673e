open Ir

(* -------------------- vertical Map fusion -------------------- *)

(* All uses of [x] must be Read(Var x, idxs) with full-rank indices, or
   Len(Var x, i); anything else (slices, copies, whole-array escapes)
   blocks fusion. *)
let uses_fusible x rank body =
  let ok = ref true in
  let rec go e =
    match e with
    | Read (Var s, idxs) when Sym.equal s x ->
        if List.length idxs <> rank then ok := false;
        List.iter go idxs
    | Len (Var s, _) when Sym.equal s x -> ()
    | Var s when Sym.equal s x -> ok := false
    | e -> Rewrite.iter_children go e
  in
  go body;
  !ok

let count_reads x body =
  let n = ref 0 in
  Rewrite.iter_exp
    (function Read (Var s, _) when Sym.equal s x -> incr n | _ -> ())
    body;
  !n

(* inline: Read(x, idxs) -> body[midxs := idxs]; Len(x, i) -> size of dim *)
let inline_map x (m : map_node) body =
  let rec go e =
    match e with
    | Read (Var s, idxs) when Sym.equal s x ->
        let idxs = List.map go idxs in
        let sigma =
          List.fold_left2
            (fun acc p idx -> Sym.Map.add p idx acc)
            Sym.Map.empty m.midxs idxs
        in
        Ir.rename_binders (Ir.subst sigma m.mbody)
    | Len (Var s, i) when Sym.equal s x ->
        (match List.nth m.mdims i with
        | Dfull e1 -> e1
        | d -> Ir.dom_size d)
    | e -> Rewrite.map_children go e
  in
  go body

let vertical_rule e =
  match e with
  | Let (x, Map m, body)
    when uses_fusible x (List.length m.mdims) body
         && (count_reads x body <= 4 || Rewrite.node_count m.mbody <= 16) ->
      inline_map x m body
  | e -> e

(* -------------------- horizontal Map fusion -------------------- *)

(* Two adjacent Let-bound Maps over the same domain, the second independent
   of the first, merge into one Map producing a tuple: a single traversal
   of the domain (the paper's horizontal fusion, "to eliminate redundant
   traversals over the same domain"). *)
let horizontal_rule e =
  match e with
  | Let (x, Map mx, Let (y, Map my, rest))
    when mx.mdims = my.mdims
         && (not (Sym.Set.mem x (Ir.free_vars (Map my))))
         && uses_fusible x (List.length mx.mdims) rest
         && uses_fusible y (List.length my.mdims) rest ->
      let xy = Sym.fresh (Sym.base x ^ "_" ^ Sym.base y) in
      let sigma =
        List.fold_left2
          (fun m a b -> Sym.Map.add a (Var b) m)
          Sym.Map.empty my.midxs mx.midxs
      in
      let fused_map =
        Map
          { mdims = mx.mdims;
            midxs = mx.midxs;
            mbody = Tup [ mx.mbody; Ir.rename_binders (Ir.subst sigma my.mbody) ];
            mprov = Prov.push mx.mprov "fusion.horizontal" }
      in
      let rec rewrite e =
        match e with
        | Read (Var s, idxs) when Sym.equal s x ->
            Proj (Read (Var xy, List.map rewrite idxs), 0)
        | Read (Var s, idxs) when Sym.equal s y ->
            Proj (Read (Var xy, List.map rewrite idxs), 1)
        | Len (Var s, i) when Sym.equal s x || Sym.equal s y ->
            Len (Var xy, i)
        | e -> Rewrite.map_children rewrite e
      in
      Let (xy, fused_map, rewrite rest)
  | e -> e

(* -------------------- filter-reduce fusion -------------------- *)

(* Fold over all elements produced by one FlatMap iteration.  The body is
   restricted to the shapes a filter produces: conditionals over array
   literals and empty arrays. *)
let rec fold_elements facc fupd fold_idx acc_e body =
  match body with
  | EmptyArr _ -> Some acc_e
  | ArrLit es ->
      Some
        (List.fold_left
           (fun acc elt ->
             (* one fold step: fupd with the element inlined *)
             let step =
               Ir.rename_binders
                 (Ir.subst (Sym.Map.singleton facc acc) fupd)
             in
             subst_element step fold_idx elt)
           acc_e es)
  | If (c, t, f1) -> (
      match
        ( fold_elements facc fupd fold_idx acc_e t,
          fold_elements facc fupd fold_idx acc_e f1 )
      with
      | Some t', Some f' -> Some (If (c, t', f'))
      | _ -> None)
  | Let (s, e1, e2) ->
      Option.map
        (fun e2' -> Let (s, e1, e2'))
        (fold_elements facc fupd fold_idx acc_e e2)
  | _ -> None

(* replace Read(arr-being-fused, [Var fold_idx]) by the element *)
and subst_element step (x, fold_idx) elt =
  let rec go e =
    match e with
    | Read (Var s, [ idx ]) when Sym.equal s x -> (
        match idx with
        | Var j when Sym.equal j fold_idx -> elt
        | _ -> e)
    | e -> Rewrite.map_children go e
  in
  go step

let filter_rule e =
  match e with
  | Let
      ( x,
        FlatMap { fmdim; fmidx; fmbody; fmprov },
        Fold
          { fdims = [ Dfull (Len (Var x', 0)) ];
            fidxs = [ j ];
            finit;
            facc;
            fupd;
            fcomb;
            fprov = _ } )
    when Sym.equal x x'
         (* every read of x in the fold body is at the fold index *)
         && count_reads x fupd > 0 ->
      let ok =
        let bad = ref false in
        Rewrite.iter_exp
          (function
            | Read (Var s, idxs) when Sym.equal s x -> (
                match idxs with
                | [ Var j' ] when Sym.equal j' j -> ()
                | _ -> bad := true)
            | Len (Var s, _) when Sym.equal s x -> bad := true
            | _ -> ())
          fupd;
        not !bad
      in
      if not ok then e
      else begin
        match fold_elements facc fupd (x, j) (Var facc) fmbody with
        | Some stepped when not (Sym.Set.mem j (Ir.free_vars stepped)) ->
            let facc' = Sym.fresh (Sym.base facc) in
            let stepped =
              Ir.subst (Sym.Map.singleton facc (Var facc')) stepped
            in
            Fold
              { fdims = [ fmdim ];
                fidxs = [ fmidx ];
                finit;
                facc = facc';
                fupd = stepped;
                fcomb;
                fprov = Prov.push fmprov "fusion.filter" }
        | _ -> e
      end
  | e -> e

let exp ?(fuse_filters = false) e =
  let e = Rewrite.bottom_up horizontal_rule e in
  let e = Rewrite.bottom_up vertical_rule e in
  if fuse_filters then Rewrite.bottom_up filter_rule e else e

let program ?fuse_filters (p : program) =
  { p with body = exp ?fuse_filters p.body }
