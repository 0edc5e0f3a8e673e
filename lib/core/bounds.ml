open Ir

(* ------------------------------------------------------------------ *)
(* Candidate interval analysis                                         *)
(*                                                                     *)
(* Bounds are affine forms over size parameters and loop indices; a     *)
(* value may have several sound candidates (min produces one per        *)
(* operand).  [close] then eliminates loop indices innermost-first by   *)
(* substituting their own bounds, which discharges the relational       *)
(* [ii*b + i <= total-1] facts exactly: the Dtail extent candidate      *)
(* [total - ii*tile] cancels the [ii*tile] term.                        *)
(* ------------------------------------------------------------------ *)

(* loop environment: innermost last *)
type loop = { lsym : Sym.t; dom : dom; depth : int }

type env = loop list

let top = []
let enter env s d = env @ [ { lsym = s; dom = d; depth = List.length env } ]

let cap = 6
let take_cap l = List.filteri (fun i _ -> i < cap) l

let cross f xs ys =
  take_cap (List.concat_map (fun x -> List.map (fun y -> f x y) ys) xs)

(* upper/lower bound candidates of an expression, as affine forms over
   size params and loop syms.  None = unknown. *)
let rec ub_cands e : Affine.t list option =
  match e with
  | Ci c -> Some [ Affine.const c ]
  | Var s -> Some [ Affine.var s ]
  | Prim (Add, [ a; b ]) -> map2 Affine.add (ub_cands a) (ub_cands b)
  | Prim (Sub, [ a; b ]) -> map2 Affine.sub (ub_cands a) (lb_cands b)
  | Prim (Mul, [ a; Ci c ]) | Prim (Mul, [ Ci c; a ]) ->
      let base = if c >= 0 then ub_cands a else lb_cands a in
      Option.map (List.map (Affine.scale c)) base
  | Prim (Min, [ a; b ]) -> (
      (* any upper bound of either operand bounds the min *)
      match (ub_cands a, ub_cands b) with
      | Some xs, Some ys -> Some (take_cap (xs @ ys))
      | Some xs, None | None, Some xs -> Some xs
      | None, None -> None)
  | Prim (Max, [ a; b ]) -> (
      (* only sound when one side provably dominates; constants only *)
      match (ub_cands a, ub_cands b) with
      | Some [ x ], Some [ y ] when Affine.is_const x && Affine.is_const y ->
          Some [ (if x.Affine.const >= y.Affine.const then x else y) ]
      | _ -> None)
  | _ -> None

and lb_cands e : Affine.t list option =
  match e with
  | Ci c -> Some [ Affine.const c ]
  | Var s -> Some [ Affine.var s ]
  | Prim (Add, [ a; b ]) -> map2 Affine.add (lb_cands a) (lb_cands b)
  | Prim (Sub, [ a; b ]) -> map2 Affine.sub (lb_cands a) (ub_cands b)
  | Prim (Mul, [ a; Ci c ]) | Prim (Mul, [ Ci c; a ]) ->
      let base = if c >= 0 then lb_cands a else ub_cands a in
      Option.map (List.map (Affine.scale c)) base
  | Prim (Min, [ a; b ]) -> (
      match (lb_cands a, lb_cands b) with
      | Some [ x ], Some [ y ] when Affine.is_const x && Affine.is_const y ->
          Some [ (if x.Affine.const <= y.Affine.const then x else y) ]
      | _ -> None)
  | _ -> None

and map2 f a b =
  match (a, b) with Some xs, Some ys -> Some (cross f xs ys) | _ -> None

(* loop-index bounds, as candidate affines over outer syms / sizes *)
let idx_ub (l : loop) : Affine.t list option =
  match l.dom with
  | Dfull e ->
      Option.map (List.map (fun a -> Affine.sub a (Affine.const 1))) (ub_cands e)
  | Dtiles { total; tile } ->
      (* idx <= ceil(total/tile) - 1, hence idx*tile <= total - 1; encode
         the useful scaled form by giving idx the ub (total-1)/tile is not
         affine — instead expose candidate (total - 1) for idx*tile via
         the closure: approximate idx <= (total - 1) / tile by providing
         total - 1 scaled at substitution time is not expressible, so we
         provide the exact fact used by tiled code: see [close]. *)
      Option.map
        (List.map (fun a -> Affine.sub a (Affine.const 1)))
        (ub_cands (Prim (Div, [ Prim (Add, [ total; Ci (tile - 1) ]); Ci tile ])))
  | Dtail { total; tile; outer } ->
      (* extent = min(tile, total - outer*tile); idx <= extent - 1 *)
      Option.map
        (List.map (fun a -> Affine.sub a (Affine.const 1)))
        (ub_cands
           (Prim
              ( Min,
                [ Ci tile;
                  Prim (Sub, [ total; Prim (Mul, [ Var outer; Ci tile ]) ]) ] )))

let idx_lb (_ : loop) : Affine.t list option = Some [ Affine.const 0 ]

(* For Dtiles indices the usable fact is [idx * tile <= total - 1]; the
   generic ub above is not affine (ceil).  [tiles_scaled_ub loops s c]
   returns the bound for the term [c * s] when [s] is a Dtiles index and
   [c] is a positive multiple of its tile. *)
let tiles_scaled_ub (l : loop) c =
  match l.dom with
  | Dtiles { total; tile } when c mod tile = 0 && c > 0 ->
      (* s <= ceil(total/tile) - 1  ==>  s*tile <= total - 1 (total >= 1);
         s*c = (c/tile) * (s*tile) <= (c/tile) * (total - 1) *)
      Option.map
        (List.map (fun a ->
             Affine.scale (c / tile) (Affine.sub a (Affine.const 1))))
        (ub_cands total)
  | _ -> None

(* Eliminate loop syms from a candidate, innermost first.  [upper] selects
   the polarity: when closing an upper-bound candidate, positive
   coefficients substitute the index's upper bound (and vice versa for
   lower-bound candidates). *)
let rec close ~upper (loops : loop list) (aff : Affine.t) : Affine.t list =
  let loop_of s = List.find_opt (fun l -> Sym.equal l.lsym s) loops in
  (* find the deepest loop sym present *)
  let deepest =
    Sym.Set.fold
      (fun s best ->
        match loop_of s with
        | Some l -> (
            match best with
            | Some b when b.depth >= l.depth -> best
            | _ -> Some l)
        | None -> best)
      (Affine.syms aff) None
  in
  match deepest with
  | None -> [ aff ]
  | Some l ->
      let c = Affine.coeff aff l.lsym in
      let rest = Affine.sub aff (Affine.scale c (Affine.var l.lsym)) in
      let want_ub = if upper then c > 0 else c < 0 in
      let bound_cands =
        if want_ub then
          match (if c > 0 then tiles_scaled_ub l c else None) with
          | Some scaled ->
              (* scaled candidates already include the factor c *)
              Some (List.map (fun b -> (b, 1)) scaled)
          | None -> Option.map (List.map (fun b -> (b, c))) (idx_ub l)
        else Option.map (List.map (fun b -> (b, c))) (idx_lb l)
      in
      (match bound_cands with
      | None -> []
      | Some cands ->
          take_cap
            (List.concat_map
               (fun (b, factor) ->
                 close ~upper loops (Affine.add rest (Affine.scale factor b)))
               cands))

(* e provably <= limit (an affine over size params) for all sizes >= 0 *)
let prove_le loops e limit =
  match ub_cands e with
  | None -> `Unknown
  | Some cands ->
      let closed = List.concat_map (close ~upper:true loops) cands in
      let ok a =
        let diff = Affine.sub a limit in
        diff.Affine.const <= 0
        && List.for_all (fun (_, c) -> c <= 0) diff.Affine.terms
      in
      if List.exists ok closed then `Proven
      else if
        (* definite violation only in the fully constant case *)
        List.for_all Affine.is_const closed
        && Affine.is_const limit && closed <> []
        && List.for_all
             (fun (a : Affine.t) -> a.Affine.const > limit.Affine.const)
             closed
      then `Violated
      else `Unknown

let prove_ge loops e k =
  match lb_cands e with
  | None -> `Unknown
  | Some cands ->
      let closed = List.concat_map (close ~upper:false loops) cands in
      let ok (a : Affine.t) =
        a.Affine.const >= k && List.for_all (fun (_, c) -> c >= 0) a.Affine.terms
      in
      if List.exists ok closed then `Proven
      else if
        List.for_all Affine.is_const closed && closed <> []
        && List.for_all (fun (a : Affine.t) -> a.Affine.const < k) closed
      then `Violated
      else `Unknown

let prove_ge0 loops e = prove_ge loops e 0

(* ------------------------------------------------------------------ *)
(* Obligation collection                                               *)
(* ------------------------------------------------------------------ *)

let audit (p : program) =
  let shapes = List.map (fun i -> (i.iname, i.ishape)) p.inputs in
  let diags = ref [] in
  let checked = ref 0 in
  let emit array what verdicts =
    incr checked;
    if List.exists (function `Violated -> true | _ -> false) verdicts then
      diags :=
        Diagnostic.make ~code:"PPL231" ~severity:Diagnostic.Error
          ~where:(Sym.name array) "%s: index provably out of range" what
        :: !diags
    else if List.exists (function `Unknown -> true | _ -> false) verdicts then
      diags :=
        Diagnostic.make ~code:"PPL230" ~severity:Diagnostic.Warning
          ~where:(Sym.name array)
          "%s: not provable (data-dependent or non-affine index)" what
        :: !diags
  in
  let rec walk loops depth e =
    let enter_dims dims idxs k =
      let loops' =
        loops
        @ List.mapi
            (fun i (d, s) -> { lsym = s; dom = d; depth = depth + i })
            (List.combine dims idxs)
      in
      k loops' (depth + List.length idxs)
    in
    (match e with
    | Read (Var s, idxs) when List.exists (fun (k, _) -> Sym.equal k s) shapes
      ->
        let shape =
          snd (List.find (fun (k, _) -> Sym.equal k s) shapes)
        in
        let verdicts =
          List.concat
            (List.map2
               (fun idx dim ->
                 match ub_cands dim with
                 | Some [ limit ] ->
                     [ prove_le loops (Simplify.exp idx)
                         (Affine.sub limit (Affine.const 1));
                       prove_ge0 loops (Simplify.exp idx) ]
                 | _ -> [ `Unknown ])
               idxs shape)
        in
        emit s (Pp.exp_to_string e) verdicts
    | Copy { csrc = Var s; cdims; _ }
      when List.exists (fun (k, _) -> Sym.equal k s) shapes ->
        let shape =
          snd (List.find (fun (k, _) -> Sym.equal k s) shapes)
        in
        let verdicts =
          List.concat
            (List.map2
               (fun cd dim ->
                 match (cd, ub_cands dim) with
                 | Call, _ -> [ `Proven ]
                 | Cfix idx, Some [ limit ] ->
                     [ prove_le loops (Simplify.exp idx)
                         (Affine.sub limit (Affine.const 1));
                       prove_ge0 loops (Simplify.exp idx) ]
                 | Coffset { off; len; _ }, Some [ limit ] ->
                     [ prove_le loops
                         (Simplify.exp (Prim (Add, [ off; len ])))
                         limit;
                       prove_ge0 loops (Simplify.exp off) ]
                 | _ -> [ `Unknown ])
               cdims shape)
        in
        emit s (Pp.exp_to_string e) verdicts
    | _ -> ());
    (* recurse with loop environments *)
    match e with
    | Map m ->
        enter_dims m.mdims m.midxs (fun loops' d -> walk loops' d m.mbody)
    | Fold f ->
        walk loops depth f.finit;
        enter_dims f.fdims f.fidxs (fun loops' d -> walk loops' d f.fupd)
    | MultiFold mf ->
        walk loops depth mf.oinit;
        enter_dims mf.odims mf.oidxs (fun loops' d ->
            List.iter (fun (_, e1) -> walk loops' d e1) mf.olets;
            List.iter
              (fun out ->
                List.iter
                  (fun (o, l, _) ->
                    walk loops' d o;
                    walk loops' d l)
                  out.oregion;
                walk loops' d out.oupd)
              mf.oouts)
    | FlatMap fm ->
        enter_dims [ fm.fmdim ] [ fm.fmidx ] (fun loops' d ->
            walk loops' d fm.fmbody)
    | GroupByFold g ->
        walk loops depth g.ginit;
        enter_dims g.gdims g.gidxs (fun loops' d ->
            List.iter (fun (_, e1) -> walk loops' d e1) g.glets;
            walk loops' d g.gkey;
            walk loops' d g.gupd)
    | e -> Rewrite.iter_children (walk loops depth) e
  in
  walk [] 0 p.body;
  (!checked, List.sort Diagnostic.compare (List.rev !diags))

let check_program p = snd (audit p)
