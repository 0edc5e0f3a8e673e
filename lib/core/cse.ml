open Ir

(* Available bindings: expressions (already CSE'd) with the symbol that
   holds them.  Scoped lexically: entries are only valid while their free
   variables stay bound, which holds because we extend the list only while
   descending and index it by position. *)
type avail = (exp * Sym.t) list

let trivial = function
  | Var _ | Ci _ | Cf _ | Cb _ -> true
  | _ -> false

let lookup avail e =
  if trivial e then None
  else
    List.find_opt (fun (e', _) -> Alpha.equal e e') avail |> Option.map snd

let rec go (avail : avail) e =
  match e with
  | Let (s, e1, e2) -> (
      let e1' = go avail e1 in
      match lookup avail e1' with
      | Some s' -> go avail (Ir.subst (Sym.Map.singleton s (Var s')) e2)
      | None -> Let (s, e1', go ((e1', s) :: avail) e2))
  | MultiFold mf ->
      let olets, inner = shared avail mf.olets in
      MultiFold
        { mf with
          oinit = go avail mf.oinit;
          olets;
          oouts =
            List.map
              (fun out ->
                { out with
                  oregion = List.map (fun (o, l, b) -> (inner o, inner l, b)) out.oregion;
                  oupd = inner out.oupd })
              mf.oouts;
          ocomb =
            Option.map (fun c -> { c with cbody = go avail c.cbody }) mf.ocomb }
  | GroupByFold g ->
      let glets, inner = shared avail g.glets in
      GroupByFold
        { g with
          ginit = go avail g.ginit;
          glets;
          gkey = inner g.gkey;
          gupd = inner g.gupd;
          gcomb = { g.gcomb with cbody = go avail g.gcomb.cbody } }
  | _ -> Rewrite.map_children (go avail) e

(* A pattern's shared bindings, each rebuilt under the ones kept before it;
   a duplicate of an available expression is dropped and its symbol
   substituted by the available one.  Returns the kept bindings and the
   rewrite of an expression in their scope. *)
and shared avail lets =
  let avail', subs, kept =
    List.fold_left
      (fun (av, subs, kept) (s, e1) ->
        let e1' = go av (Ir.subst subs e1) in
        match lookup av e1' with
        | Some s' -> (av, Sym.Map.add s (Var s') subs, kept)
        | None -> ((e1', s) :: av, subs, (s, e1') :: kept))
      (avail, Sym.Map.empty, []) lets
  in
  (List.rev kept, fun e -> go avail' (Ir.subst subs e))

let exp e = go [] e
let program (p : program) = { p with body = exp p.body }
