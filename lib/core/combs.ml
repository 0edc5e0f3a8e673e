open Ir

let rename ?renamed { ca; cb; cbody } =
  let ca' = Ir.refresh ?renamed ca and cb' = Ir.refresh ?renamed cb in
  let cbody' =
    Ir.rename_binders ?renamed
      (Ir.subst
         (Sym.Map.add ca (Var ca') (Sym.Map.singleton cb (Var cb')))
         cbody)
  in
  { ca = ca'; cb = cb'; cbody = cbody' }

let count p e =
  let n = ref 0 in
  Rewrite.iter_exp (fun e1 -> if p e1 then incr n) e;
  !n

let elementwise ?renamed { ca; cb; cbody } =
  match cbody with
  | Map { mdims = _; midxs; mbody; mprov; _ } ->
      let exact_idxs idxs =
        List.length idxs = List.length midxs
        && List.for_all2
             (fun e s -> match e with Var s' -> Sym.equal s s' | _ -> false)
             idxs midxs
      in
      let param_ok s =
        let total = count (fun e -> e = Var s) mbody in
        let proper =
          count
            (function
              | Read (Var s', idxs) -> Sym.equal s s' && exact_idxs idxs
              | _ -> false)
            mbody
        in
        total = proper
      in
      if param_ok ca && param_ok cb then
        Some
          (fun extents x y ->
            let nidxs = List.map (Ir.refresh ?renamed) midxs in
            let env =
              List.fold_left2
                (fun m s s' -> Sym.Map.add s (Var s') m)
                (Sym.Map.add ca x (Sym.Map.singleton cb y))
                midxs nidxs
            in
            Map
              { mdims = List.map (fun e -> Dfull e) extents;
                midxs = nidxs;
                mbody = Ir.rename_binders ?renamed (Ir.subst env mbody);
                (* an instantiated combiner is the combiner map applied:
                   it keeps the source combiner's provenance *)
                mprov })
      else None
  | _ -> None
