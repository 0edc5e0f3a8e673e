open Ir

let map_dom f = function
  | Dfull e -> Dfull (f e)
  | Dtiles { total; tile } -> Dtiles { total = f total; tile }
  | Dtail { total; tile; outer } -> Dtail { total = f total; tile; outer }

let map_copy_dim f = function
  | Coffset { off; len; max_len } -> Coffset { off = f off; len = f len; max_len }
  | Call -> Call
  | Cfix e -> Cfix (f e)

let map_comb f { ca; cb; cbody } = { ca; cb; cbody = f cbody }

let map_children f e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ -> e
  | Tup es -> Tup (List.map f es)
  | Proj (e1, i) -> Proj (f e1, i)
  | Prim (p, es) -> Prim (p, List.map f es)
  | Let (s, e1, e2) -> Let (s, f e1, f e2)
  | If (c, t, e1) -> If (f c, f t, f e1)
  | Len (e1, i) -> Len (f e1, i)
  | Read (a, idxs) -> Read (f a, List.map f idxs)
  | Slice (a, args) ->
      Slice (f a, List.map (function SFix e1 -> SFix (f e1) | SAll -> SAll) args)
  | Copy { csrc; cdims; creuse } ->
      Copy { csrc = f csrc; cdims = List.map (map_copy_dim f) cdims; creuse }
  | Zeros (sc, shape) -> Zeros (sc, List.map f shape)
  | ArrLit es -> ArrLit (List.map f es)
  | Map m -> Map { m with mdims = List.map (map_dom f) m.mdims; mbody = f m.mbody }
  | Fold fl ->
      Fold
        { fl with
          fdims = List.map (map_dom f) fl.fdims;
          finit = f fl.finit;
          fupd = f fl.fupd;
          fcomb = map_comb f fl.fcomb }
  | MultiFold mf ->
      MultiFold
        { mf with
          odims = List.map (map_dom f) mf.odims;
          oinit = f mf.oinit;
          olets = List.map (fun (s, e1) -> (s, f e1)) mf.olets;
          oouts =
            List.map
              (fun out ->
                { out with
                  orange = List.map f out.orange;
                  oregion =
                    List.map (fun (o, l, b) -> (f o, f l, b)) out.oregion;
                  oupd = f out.oupd })
              mf.oouts;
          ocomb = Option.map (map_comb f) mf.ocomb }
  | FlatMap fm ->
      FlatMap { fm with fmdim = map_dom f fm.fmdim; fmbody = f fm.fmbody }
  | GroupByFold g ->
      GroupByFold
        { g with
          gdims = List.map (map_dom f) g.gdims;
          ginit = f g.ginit;
          glets = List.map (fun (s, e1) -> (s, f e1)) g.glets;
          gkey = f g.gkey;
          gupd = f g.gupd;
          gcomb = map_comb f g.gcomb }

let rec bottom_up f e = f (map_children (bottom_up f) e)

(* The visit order is the one [map_children] evaluates its calls in under
   ocamlopt: constructor arguments and record fields right to left, list
   elements left to right.  Passes that collect names while walking (the
   reads lists of the lowered design, among others) depend on it. *)
let iter_dom f = function
  | Dfull e | Dtiles { total = e; _ } | Dtail { total = e; _ } -> f e

let iter_comb f c = f c.cbody

let iter_children f e =
  match e with
  | Var _ | Cf _ | Ci _ | Cb _ | EmptyArr _ -> ()
  | Tup es | Prim (_, es) | Zeros (_, es) | ArrLit es -> List.iter f es
  | Proj (e1, _) | Len (e1, _) -> f e1
  | Let (_, e1, e2) ->
      f e2;
      f e1
  | If (c, t, e1) ->
      f e1;
      f t;
      f c
  | Read (a, idxs) ->
      List.iter f idxs;
      f a
  | Slice (a, args) ->
      List.iter (function SFix e1 -> f e1 | SAll -> ()) args;
      f a
  | Copy { csrc; cdims; _ } ->
      List.iter
        (function
          | Coffset { off; len; _ } ->
              f len;
              f off
          | Call -> ()
          | Cfix e1 -> f e1)
        cdims;
      f csrc
  | Map m ->
      f m.mbody;
      List.iter (iter_dom f) m.mdims
  | Fold fl ->
      iter_comb f fl.fcomb;
      f fl.fupd;
      f fl.finit;
      List.iter (iter_dom f) fl.fdims
  | MultiFold mf ->
      Option.iter (iter_comb f) mf.ocomb;
      List.iter
        (fun out ->
          f out.oupd;
          List.iter
            (fun (o, l, _) ->
              f l;
              f o)
            out.oregion;
          List.iter f out.orange)
        mf.oouts;
      List.iter (fun (_, e1) -> f e1) mf.olets;
      f mf.oinit;
      List.iter (iter_dom f) mf.odims
  | FlatMap fm ->
      f fm.fmbody;
      iter_dom f fm.fmdim
  | GroupByFold g ->
      iter_comb f g.gcomb;
      f g.gupd;
      f g.gkey;
      List.iter (fun (_, e1) -> f e1) g.glets;
      f g.ginit;
      List.iter (iter_dom f) g.gdims

let iter_exp f e =
  let rec go e =
    f e;
    iter_children go e
  in
  go e

let exists_exp p e =
  let exception Found in
  try
    iter_exp (fun e1 -> if p e1 then raise Found) e;
    false
  with Found -> true

let node_count e =
  let n = ref 0 in
  iter_exp (fun _ -> incr n) e;
  !n
