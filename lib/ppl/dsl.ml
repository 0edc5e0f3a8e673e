open Ir

let f x = Cf x
let i x = Ci x
let b x = Cb x

let prim2 p a b = Prim (p, [ a; b ])
let ( +! ) = prim2 Add
let ( -! ) = prim2 Sub
let ( *! ) = prim2 Mul
let ( /! ) = prim2 Div
let ( %! ) = prim2 Mod
let ( <! ) = prim2 Lt
let ( <=! ) = prim2 Le
let ( >! ) = prim2 Gt
let ( >=! ) = prim2 Ge
let ( =! ) = prim2 Eq
let ( &&! ) = prim2 And
let neg e = Prim (Neg, [ e ])
let min_ = prim2 Min
let max_ = prim2 Max
let abs_ e = Prim (Abs, [ e ])
let sqrt_ e = Prim (Sqrt, [ e ])
let square e = Prim (Mul, [ e; e ])
let to_float e = Prim (ToFloat, [ e ])
let to_int e = Prim (ToInt, [ e ])
let if_ c t e = If (c, t, e)

let let_ ?(name = "t") e body =
  let s = Sym.fresh name in
  Let (s, e, body (Var s))

let tup es = Tup es
let pair a b = Tup [ a; b ]
let fst_ e = Proj (e, 0)
let snd_ e = Proj (e, 1)
let read a idxs = Read (a, idxs)
let slice a args = Slice (a, args)

let slice_row a idx_e = Slice (a, [ SFix idx_e; SAll ])

let len a d = Len (a, d)
let zeros sc shape = Zeros (Ty.Scalar sc, shape)
let arr es = ArrLit es
let empty t = EmptyArr t
let dfull e = Dfull e
let dtiles ~total ~tile = Dtiles { total; tile }

let fresh_idxs doms = List.map (fun _ -> Sym.fresh "i") doms

let map doms body =
  let idxs = fresh_idxs doms in
  Map
    { mdims = doms;
      midxs = idxs;
      mbody = body (List.map (fun s -> Var s) idxs);
      mprov = Prov.none }

let map1 dom body =
  map [ dom ] (function [ x ] -> body x | _ -> assert false)

let map2d d0 d1 body =
  map [ d0; d1 ] (function [ x; y ] -> body x y | _ -> assert false)

let mk_comb comb =
  let ca = Sym.fresh "a" and cb = Sym.fresh "b" in
  { ca; cb; cbody = comb (Var ca) (Var cb) }

let fold doms ~init ~comb upd =
  let idxs = fresh_idxs doms in
  let acc = Sym.fresh "acc" in
  Fold
    { fdims = doms;
      fidxs = idxs;
      finit = init;
      facc = acc;
      fupd = upd (List.map (fun s -> Var s) idxs) (Var acc);
      fcomb = mk_comb comb;
      fprov = Prov.none }

let fold1 dom ~init ~comb upd =
  fold [ dom ] ~init ~comb (fun idxs acc ->
      match idxs with [ x ] -> upd x acc | _ -> assert false)

type out_spec = {
  range : exp list;
  region : (exp * exp * int option) list;
  upd : exp -> exp;
}

let point offs = List.map (fun o -> (o, Ci 1, Some 1)) offs

let mk_oouts specs =
  List.map
    (fun { range; region; upd } ->
      let acc = Sym.fresh "acc" in
      { orange = range; oregion = region; oacc = acc; oupd = upd (Var acc) })
    specs

let multifold doms ~init ?comb outs =
  let idxs = fresh_idxs doms in
  let specs = outs (List.map (fun s -> Var s) idxs) in
  MultiFold
    { odims = doms;
      oidxs = idxs;
      oinit = init;
      olets = [];
      oouts = mk_oouts specs;
      ocomb = Option.map mk_comb comb;
      oprov = Prov.none }

let multifold_lets doms ~init ?comb body =
  let idxs = fresh_idxs doms in
  let lets_spec, outs_of = body (List.map (fun s -> Var s) idxs) in
  let olets = List.map (fun (nm, e) -> (Sym.fresh nm, e)) lets_spec in
  let specs = outs_of (List.map (fun (s, _) -> Var s) olets) in
  MultiFold
    { odims = doms;
      oidxs = idxs;
      oinit = init;
      olets;
      oouts = mk_oouts specs;
      ocomb = Option.map mk_comb comb;
      oprov = Prov.none }

let flatmap dom body =
  let idx = Sym.fresh "i" in
  FlatMap { fmdim = dom; fmidx = idx; fmbody = body (Var idx); fmprov = Prov.none }

let filter dom pred elt =
  flatmap dom (fun idx ->
      if_ (pred idx) (arr [ elt idx ]) (empty (Ty.Scalar Ty.Float)))

let groupbyfold dom ~init ~comb body =
  let idx = Sym.fresh "i" in
  let acc = Sym.fresh "acc" in
  let key, updf = body (Var idx) in
  GroupByFold
    { gdims = [ dom ];
      gidxs = [ idx ];
      ginit = init;
      glets = [];
      gkey = key;
      gacc = acc;
      gupd = updf (Var acc);
      gcomb = mk_comb comb;
      gprov = Prov.none }

let size name = Sym.fresh name

let input name ielt ishape = { iname = Sym.fresh name; ielt; ishape }
let in_var inp = Var inp.iname

let program ~name ~sizes ?(max_sizes = []) ~inputs body =
  { pname = name; size_params = sizes; max_sizes; inputs; body }
