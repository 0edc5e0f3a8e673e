type t = {
  nodes : int;
  maps : int;
  folds : int;
  multifolds : int;
  flatmaps : int;
  groupbyfolds : int;
  copies : int;
  strided_loops : int;
  lets : int;
  max_nest : int;
}

let doms_of = function
  | Ir.Map m -> m.Ir.mdims
  | Ir.Fold f -> f.Ir.fdims
  | Ir.MultiFold mf -> mf.Ir.odims
  | Ir.FlatMap fm -> [ fm.Ir.fmdim ]
  | Ir.GroupByFold g -> g.Ir.gdims
  | _ -> []

let rec nest_depth e =
  let is_pattern = function
    | Ir.Map _ | Ir.Fold _ | Ir.MultiFold _ | Ir.FlatMap _ | Ir.GroupByFold _
      ->
        true
    | _ -> false
  in
  let deepest = ref 0 in
  Rewrite.iter_children
    (fun c ->
      let d = nest_depth c in
      if d > !deepest then deepest := d)
    e;
  if is_pattern e then 1 + !deepest else !deepest

let of_exp e =
  let maps = ref 0 and folds = ref 0 and multifolds = ref 0 in
  let flatmaps = ref 0 and groupbyfolds = ref 0 and copies = ref 0 in
  let strided = ref 0 and lets = ref 0 and nodes = ref 0 in
  Rewrite.iter_exp
    (fun e1 ->
      incr nodes;
      (match e1 with
      | Ir.Map _ -> incr maps
      | Ir.Fold _ -> incr folds
      | Ir.MultiFold _ -> incr multifolds
      | Ir.FlatMap _ -> incr flatmaps
      | Ir.GroupByFold _ -> incr groupbyfolds
      | Ir.Copy _ -> incr copies
      | Ir.Let _ -> incr lets
      | _ -> ());
      List.iter
        (fun d -> if Ir.is_strided d then incr strided)
        (doms_of e1))
    e;
  { nodes = !nodes;
    maps = !maps;
    folds = !folds;
    multifolds = !multifolds;
    flatmaps = !flatmaps;
    groupbyfolds = !groupbyfolds;
    copies = !copies;
    strided_loops = !strided;
    lets = !lets;
    max_nest = nest_depth e }

let of_program (p : Ir.program) = of_exp p.Ir.body

let header =
  Printf.sprintf "%-18s %6s %5s %5s %6s %5s %5s %6s %7s %5s %5s" "stage"
    "nodes" "map" "fold" "mfold" "fmap" "gbf" "copy" "strided" "let" "nest"

let row name s =
  Printf.sprintf "%-18s %6d %5d %5d %6d %5d %5d %6d %7d %5d %5d" name s.nodes
    s.maps s.folds s.multifolds s.flatmaps s.groupbyfolds s.copies
    s.strided_loops s.lets s.max_nest
