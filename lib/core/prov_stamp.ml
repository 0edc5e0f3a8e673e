let exp ~pname e =
  let n = ref 0 in
  let stamp kind prov =
    incr n;
    if Prov.is_none prov then
      Prov.root (Printf.sprintf "%s/%s#%d" pname kind !n)
    else prov
  in
  let rec go e =
    let e =
      match e with
      | Ir.Map m -> Ir.Map { m with Ir.mprov = stamp "map" m.Ir.mprov }
      | Ir.Fold f -> Ir.Fold { f with Ir.fprov = stamp "fold" f.Ir.fprov }
      | Ir.MultiFold mf ->
          Ir.MultiFold { mf with Ir.oprov = stamp "multifold" mf.Ir.oprov }
      | Ir.FlatMap fm ->
          Ir.FlatMap { fm with Ir.fmprov = stamp "flatmap" fm.Ir.fmprov }
      | Ir.GroupByFold g ->
          Ir.GroupByFold { g with Ir.gprov = stamp "groupbyfold" g.Ir.gprov }
      | e -> e
    in
    Rewrite.map_children go e
  in
  go e

(* restamping a stamped tree would rebuild it node for node unchanged *)
let program c =
  let p = Validate.program c in
  if Validate.stamped c then p else { p with Ir.body = exp ~pname:p.Ir.pname p.Ir.body }
