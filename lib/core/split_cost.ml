let budget_words = 1 lsl 18

let rec width_words = function
  | Ty.Scalar _ -> 1
  | Ty.Tuple ts -> List.fold_left (fun acc t -> acc + width_words t) 0 ts
  | t -> invalid_arg ("Split_cost.width_words: " ^ Ty.to_string t)

let dom_bound ~bound = function
  | Ir.Dfull e -> bound e
  | Ir.Dtail { tile; _ } -> Some tile
  | Ir.Dtiles { total; tile } ->
      Option.map (fun t -> (t + tile - 1) / tile) (bound total)

let intermediate_fits ~budget_words ~bound doms elt =
  let extents = List.map (dom_bound ~bound) doms in
  if List.exists Option.is_none extents then false
  else
    let count =
      List.fold_left (fun acc e -> acc * Option.get e) 1 extents
    in
    count * width_words elt <= budget_words
