type axis = { asym : Sym.t; extent : int option }

type verdict =
  | Injective
  | Overlapping of { dims : Sym.t list; reason : string }
  | Unknown of string

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* coefficient vector of one axis across the output dimensions *)
let coeffs maps (a : axis) = List.map (fun m -> Affine.coeff m a.asym) maps

(* |d| steps of axis [a] stay inside its box *)
let fits a d =
  match a.extent with None -> true | Some e -> abs d <= e - 1

(* Minimal kernel direction of the map restricted to axes [a], [b]:
   (d1, d2) with ca*d1 + cb*d2 = 0 per output dimension.  The direction
   is fixed by the first dimension where either coefficient is nonzero
   and then checked against the rest; if it also fits both extents, the
   two points p and p + (d1, d2) collide. *)
let pair_kernel maps a b =
  let ca = coeffs maps a and cb = coeffs maps b in
  match List.find_opt (fun (x, y) -> x <> 0 || y <> 0) (List.combine ca cb) with
  | None -> None
  | Some (x, y) ->
      let g = gcd x y in
      let d1 = y / g and d2 = -x / g in
      if
        List.for_all2 (fun x y -> (x * d1) + (y * d2) = 0) ca cb
        && fits a d1 && fits b d2
      then Some (d1, d2)
      else None

let injectivity ~axes maps =
  let live =
    List.filter (fun a -> a.extent <> Some 0 && a.extent <> Some 1) axes
  in
  let missing =
    List.filter (fun a -> List.for_all (( = ) 0) (coeffs maps a)) live
  in
  if missing <> [] then
    Overlapping
      { dims = List.map (fun a -> a.asym) missing;
        reason = "iteration index never addresses the accumulator" }
  else
    let rec find_pair = function
      | [] -> None
      | a :: rest -> (
          match List.find_opt (fun b -> pair_kernel maps a b <> None) rest with
          | Some b -> Some (a, b)
          | None -> find_pair rest)
    in
    match find_pair live with
    | Some (a, b) ->
        Overlapping
          { dims = [ a.asym; b.asym ];
            reason =
              "distinct iterations reach the same cell (stride kernel fits \
               the iteration box)" }
    | None ->
        (* Greedy peeling: axis [a] can be peeled via output dim [m] when
           its stride strictly dominates what every other unpeeled axis
           can contribute there — so equal outputs force equal [a]
           components; peeled axes cancel and drop out of the bound. *)
        let contribution m b =
          match (Affine.coeff m b.asym, b.extent) with
          | 0, _ -> Some 0
          | c, Some e -> Some (abs c * (e - 1))
          | _, None -> None (* unbounded contribution *)
        in
        let dominant remaining a =
          List.exists
            (fun m ->
              let c = Affine.coeff m a.asym in
              c <> 0
              &&
              let slack =
                List.fold_left
                  (fun acc b ->
                    match acc with
                    | None -> None
                    | Some s ->
                        if Sym.equal b.asym a.asym then acc
                        else
                          Option.map (( + ) s) (contribution m b))
                  (Some 0) remaining
              in
              match slack with Some s -> abs c > s | None -> false)
            maps
        in
        let rec peel remaining =
          match remaining with
          | [] -> Injective
          | _ -> (
              match List.find_opt (dominant remaining) remaining with
              | Some a ->
                  peel
                    (List.filter
                       (fun b -> not (Sym.equal b.asym a.asym))
                       remaining)
              | None -> Unknown "strides not provably non-overlapping")
        in
        peel live
