open Ir

type t = { terms : (Sym.t * int) list; const : int }

let normalize terms =
  let merged =
    List.fold_left
      (fun acc (s, c) ->
        match List.partition (fun (s', _) -> Sym.equal s s') acc with
        | [ (_, c') ], rest -> (s, c + c') :: rest
        | [], acc -> (s, c) :: acc
        | _ -> assert false)
      [] terms
  in
  List.filter (fun (_, c) -> c <> 0) merged
  |> List.sort (fun (a, _) (b, _) -> Sym.compare a b)

let make terms const = { terms = normalize terms; const }
let const c = { terms = []; const = c }
let var s = { terms = [ (s, 1) ]; const = 0 }
let add a b = make (a.terms @ b.terms) (a.const + b.const)
let scale k a = make (List.map (fun (s, c) -> (s, k * c)) a.terms) (k * a.const)
let sub a b = add a (scale (-1) b)

let rec of_exp = function
  | Ci c -> Some (const c)
  | Var s -> Some (var s)
  | Prim (Add, [ a; b ]) -> combine add a b
  | Prim (Sub, [ a; b ]) -> combine sub a b
  | Prim (Neg, [ a ]) -> Option.map (scale (-1)) (of_exp a)
  | Prim (Mul, [ a; Ci k ]) | Prim (Mul, [ Ci k; a ]) ->
      Option.map (scale k) (of_exp a)
  | _ -> None

and combine f a b =
  match (of_exp a, of_exp b) with
  | Some x, Some y -> Some (f x y)
  | _ -> None

let to_exp a =
  let term_exp (s, c) =
    if c = 1 then Var s else Prim (Mul, [ Var s; Ci c ])
  in
  match a.terms with
  | [] -> Ci a.const
  | t0 :: rest ->
      let sum =
        List.fold_left (fun acc t -> Prim (Add, [ acc; term_exp t ])) (term_exp t0)
          rest
      in
      if a.const = 0 then sum else Prim (Add, [ sum; Ci a.const ])

let syms a =
  List.fold_left (fun set (s, _) -> Sym.Set.add s set) Sym.Set.empty a.terms

let coeff a s =
  match List.find_opt (fun (s', _) -> Sym.equal s s') a.terms with
  | Some (_, c) -> c
  | None -> 0

let is_const a = a.terms = []

let partition a p =
  let inside, outside = List.partition (fun (s, _) -> p s) a.terms in
  ({ terms = inside; const = 0 }, { terms = outside; const = a.const })

let equal a b = a.terms = b.terms && a.const = b.const
