open Ir

(* One motion step: for a pattern node, peel off leading Let-bindings of
   its body (or invariant shared bindings) that do not mention the
   pattern's binders, and rebind them around the pattern.  [Rewrite.bottom_up]
   applies this at every node; repeating until fixpoint floats bindings
   through several levels. *)

let invariant binders e = Sym.Set.is_empty (Sym.Set.inter (Ir.free_vars e) binders)

(* split leading Lets of [body] into (hoistable, residual body) *)
let peel binders body =
  let rec go acc = function
    | Let (s, e1, e2) when invariant binders e1 -> go ((s, e1) :: acc) e2
    | e -> (List.rev acc, e)
  in
  go [] body

(* the leading shared bindings that do not mention [binders], and the rest
   (later bindings may reference earlier ones, so only a prefix hoists) *)
let invariant_prefix binders lets =
  let rec go acc = function
    | ((_, e1) as l) :: rest when invariant binders e1 -> go (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] lets

let rebind lets e =
  List.fold_right (fun (s, e1) acc -> Let (s, e1, acc)) lets e

let binders_of_doms idxs = Sym.Set.of_list idxs

let step e =
  match e with
  | Map m -> (
      match peel (binders_of_doms m.midxs) m.mbody with
      | [], _ -> e
      | lets, body -> rebind lets (Map { m with mbody = body }))
  | Fold f -> (
      let binders = Sym.Set.add f.facc (binders_of_doms f.fidxs) in
      match peel binders f.fupd with
      | [], _ -> e
      | lets, body -> rebind lets (Fold { f with fupd = body }))
  | FlatMap fm -> (
      match peel (Sym.Set.singleton fm.fmidx) fm.fmbody with
      | [], _ -> e
      | lets, body -> rebind lets (FlatMap { fm with fmbody = body }))
  | MultiFold mf -> (
      match invariant_prefix (binders_of_doms mf.oidxs) mf.olets with
      | [], _ -> e
      | hoisted, kept -> rebind hoisted (MultiFold { mf with olets = kept }))
  | GroupByFold g -> (
      match invariant_prefix (binders_of_doms g.gidxs) g.glets with
      | [], _ -> e
      | hoisted, kept -> rebind hoisted (GroupByFold { g with glets = kept }))
  | e -> e

(* [step] returns its argument itself when nothing moves, so a pass that
   moved nothing is the fixpoint; no whole-tree comparison is needed *)
let rec exp e =
  let moved = ref false in
  let e' =
    Rewrite.bottom_up
      (fun n ->
        let n' = step n in
        if n' != n then moved := true;
        n')
      e
  in
  if !moved then exp e' else e

let program (p : program) = { p with body = exp p.body }
