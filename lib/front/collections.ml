open Dsl

type elt = Ir.exp
type vec = { vlen : Ir.exp; vget : elt -> elt }
type mat = { mrows : Ir.exp; mcols : Ir.exp; mget : elt -> elt -> elt }

(* ----------------------------- intro ----------------------------- *)

let vec_of_input (inp : Ir.input) =
  match inp.Ir.ishape with
  | [ len ] -> { vlen = len; vget = (fun i -> read (in_var inp) [ i ]) }
  | _ -> invalid_arg "Collections.vec_of_input: not one-dimensional"

let mat_of_input (inp : Ir.input) =
  match inp.Ir.ishape with
  | [ r; c ] ->
      { mrows = r; mcols = c; mget = (fun i j -> read (in_var inp) [ i; j ]) }
  | _ -> invalid_arg "Collections.mat_of_input: not two-dimensional"

let vec_tabulate n f = { vlen = n; vget = f }

let vec_of_exp e =
  { vlen = Ir.Len (e, 0); vget = (fun i -> read e [ i ]) }

(* ------------------------- element-wise -------------------------- *)

let vmap f v = { v with vget = (fun i -> f (v.vget i)) }

let vzip f a b =
  (* lengths assumed equal, as in the paper's zip *)
  { vlen = a.vlen; vget = (fun i -> f (a.vget i) (b.vget i)) }

let vget v i = v.vget i
let row m i = { vlen = m.mcols; vget = (fun j -> m.mget i j) }
let col m j = { vlen = m.mrows; vget = (fun i -> m.mget i j) }

(* -------------------------- reductions --------------------------- *)

let vfold ~init f v =
  fold1 (dfull v.vlen) ~init ~comb:f (fun i acc -> f acc (v.vget i))

let vsum v = vfold ~init:(f 0.0) (fun a b -> a +! b) v
let dot a b = vsum (vzip (fun x y -> x *! y) a b)

let min_with_index v =
  fold1 (dfull v.vlen)
    ~init:(pair (f infinity) (i (-1)))
    ~comb:(fun a b -> if_ (fst_ a <! fst_ b) a b)
    (fun idx acc ->
      let_ ~name:"candidate" (v.vget idx) (fun value ->
          if_ (fst_ acc <! value) acc (pair value idx)))

let map_rows m body =
  { vlen = m.mrows; vget = (fun i -> body i (row m i)) }

let sum_rows m =
  let out =
    multifold
      [ dfull m.mrows; dfull m.mcols ]
      ~init:(zeros Ty.Float [ m.mrows ])
      ~comb:(fun a b ->
        map1 (dfull m.mrows) (fun j -> read a [ j ] +! read b [ j ]))
      (fun idxs ->
        match idxs with
        | [ r; c ] ->
            [ { range = [ m.mrows ];
                region = point [ r ];
                upd = (fun acc -> acc +! m.mget r c) } ]
        | _ -> assert false)
  in
  vec_of_exp out

(* ------------------------ materialization ------------------------ *)

let materialize v = map1 (dfull v.vlen) v.vget

(* --------------------- filters and grouping ---------------------- *)

let filter_map ~n ~pred ~f:fe =
  flatmap (dfull n) (fun idx ->
      if_ (pred idx) (arr [ fe idx ]) (empty Ty.float_))

let group_by_fold ~n ~key ~init ~upd ~comb =
  groupbyfold (dfull n) ~init ~comb (fun idx ->
      (key idx, fun acc -> upd acc idx))

let group_by_vector_sum ~n ~k ~d ~key ~vec_of =
  multifold_lets [ dfull n ]
    ~init:(tup [ zeros Ty.Float [ k; d ]; zeros Ty.Float [ k ] ])
    ~comb:(fun a b ->
      tup
        [ map2d (dfull k) (dfull d) (fun r c ->
              read (fst_ a) [ r; c ] +! read (fst_ b) [ r; c ]);
          map1 (dfull k) (fun r -> read (snd_ a) [ r ] +! read (snd_ b) [ r ])
        ])
    (fun idxs ->
      let idx = match idxs with [ x ] -> x | _ -> assert false in
      ( [ ("key", key idx) ],
        fun lets ->
          let group = match lets with [ g ] -> g | _ -> assert false in
          [ { range = [ k; d ];
              region = [ (group, i 1, Some 1); (i 0, d, None) ];
              upd =
                (fun acc ->
                  map2d (dfull (i 1)) (dfull d) (fun z c ->
                      read acc [ z; c ] +! vget (vec_of idx) c)) };
            { range = [ k ];
              region = point [ group ];
              upd = (fun acc -> acc +! f 1.0) } ] ))
