open Ir

type stats = {
  copies : int;
  rewritten_reads : int;
  skipped_nonaffine : int;
}

(* Loop index roles, innermost last.  [depth] orders placements. *)
type role =
  | Outer of { tile : int }  (** Dtiles index *)
  | Local of { extent : exp; max_extent : int option }  (** Dtail/Dfull index *)

type loop = { lsym : Sym.t; role : role; depth : int }

type copy_desc = {
  arr : Sym.t;
  cdims : copy_dim list;
  reuse : int;
  tile_sym : Sym.t;
  placement : Sym.t option;  (* the Dtiles index to nest the copy under *)
  words_bound : int;  (* static size bound, for reporting *)
}

type st = {
  inputs : (Sym.t * int) list;  (* input name -> rank *)
  budget : int;
  bound : exp -> int option;
  table : (Sym.t * copy_dim list, copy_desc) Hashtbl.t;
      (* keyed on the copied region itself: its offsets and lengths are
         simplified affine forms, so equal regions are equal terms *)
  mutable rewritten : int;
  mutable skipped : int;
}

let find_loop loops s = List.find_opt (fun l -> Sym.equal l.lsym s) loops

(* Analyze one index expression.  Returns per-dimension copy information:
   offset expression, length expression, static length bound, local
   (tile-relative) index expression, and the number of local terms. *)
let analyze_dim loops e =
  match Affine.of_exp (Simplify.exp e) with
  | None -> None
  | Some aff ->
      let ok =
        List.for_all (fun (s, _) -> Option.is_some (find_loop loops s)) aff.Affine.terms
      in
      if not ok then None
      else
        let is_outer s =
          match find_loop loops s with
          | Some { role = Outer _; _ } -> true
          | _ -> false
        in
        let local, offset = Affine.partition aff (fun s -> not (is_outer s)) in
        (* negative local coefficients would address below the copy origin *)
        if List.exists (fun (_, c) -> c < 0) local.Affine.terms then None
        else begin
          let extent_parts =
            List.map
              (fun (s, c) ->
                match find_loop loops s with
                | Some { role = Local { extent; max_extent }; _ } ->
                    Some (c, extent, max_extent)
                | _ -> None)
              local.Affine.terms
          in
          if List.exists Option.is_none extent_parts then None
          else
            let extent_parts = List.map Option.get extent_parts in
            (* len = 1 + sum c * (extent - 1) *)
            let len_exp =
              List.fold_left
                (fun acc (c, extent, _) ->
                  Prim
                    ( Add,
                      [ acc;
                        Prim
                          (Mul, [ Ci c; Prim (Sub, [ extent; Ci 1 ]) ]) ] ))
                (Ci 1) extent_parts
            in
            let len_max =
              List.fold_left
                (fun acc (c, _, mx) ->
                  match (acc, mx) with
                  | Some a, Some m -> Some (a + (c * (m - 1)))
                  | _ -> None)
                (Some 1) extent_parts
            in
            Some
              ( Simplify.exp (Affine.to_exp offset),
                Simplify.exp len_exp,
                len_max,
                Simplify.exp (Affine.to_exp local),
                List.length local.Affine.terms )
        end

(* Try to rewrite one input read; returns the tile-relative read. *)
let try_read st loops arr idx_exps =
  let dims = List.map (analyze_dim loops) idx_exps in
  if List.exists Option.is_none dims then begin
    st.skipped <- st.skipped + 1;
    None
  end
  else begin
    let dims = List.map Option.get dims in
    let words =
      List.fold_left
        (fun acc (_, _, mx, _, _) ->
          match (acc, mx) with Some a, Some m -> Some (a * m) | _ -> None)
        (Some 1) dims
    in
    match words with
    | Some w when w <= st.budget ->
        let cdims =
          List.map
            (fun (off, len, mx, _, _) -> Coffset { off; len; max_len = mx })
            dims
        in
        let reuse =
          if List.exists (fun (_, _, _, _, nlocal) -> nlocal > 1) dims then 2
          else 1
        in
        let key = (arr, cdims) in
        let desc =
          match Hashtbl.find_opt st.table key with
          | Some d -> d
          | None ->
              (* deepest strided index mentioned by the offsets *)
              let placement =
                List.fold_left
                  (fun best (off, _, _, _, _) ->
                    Sym.Set.fold
                      (fun s best ->
                        match find_loop loops s with
                        | Some { role = Outer _; depth; _ } -> (
                            match best with
                            | Some (_, bd) when bd >= depth -> best
                            | _ -> Some (s, depth))
                        | _ -> best)
                      (Ir.free_vars off) best)
                  None dims
              in
              let d =
                { arr;
                  cdims;
                  reuse;
                  tile_sym = Sym.fresh (Sym.base arr ^ "Tile");
                  placement = Option.map fst placement;
                  words_bound = w }
              in
              Hashtbl.add st.table key d;
              d
        in
        st.rewritten <- st.rewritten + 1;
        Some
          (Read
             ( Var desc.tile_sym,
               List.map (fun (_, _, _, local, _) -> local) dims ))
    | _ ->
        st.skipped <- st.skipped + 1;
        None
  end

(* ----------------------------------------------------------------- *)
(* Phase 1: rewrite reads, collecting copy descriptors                *)
(* ----------------------------------------------------------------- *)

let loop_of_dim st depth (d, s) =
  match d with
  | Dtiles { tile; _ } -> { lsym = s; role = Outer { tile }; depth }
  | Dtail { tile; _ } ->
      { lsym = s;
        role = Local { extent = dom_size d; max_extent = Some tile };
        depth }
  | Dfull e ->
      { lsym = s; role = Local { extent = e; max_extent = st.bound e }; depth }

let rec phase1 st loops depth e =
  let recur = phase1 st loops depth in
  match e with
  | Read (Var arr, idx_exps) when List.mem_assoc arr st.inputs -> (
      match try_read st loops arr idx_exps with
      | Some e' -> e'
      | None -> Read (Var arr, List.map recur idx_exps))
  | Map m ->
      let loops' =
        loops @ List.mapi (fun i ds -> loop_of_dim st (depth + i) ds)
                  (List.combine m.mdims m.midxs)
      in
      Map { m with mbody = phase1 st loops' (depth + List.length m.midxs) m.mbody }
  | Fold f ->
      let loops' =
        loops @ List.mapi (fun i ds -> loop_of_dim st (depth + i) ds)
                  (List.combine f.fdims f.fidxs)
      in
      let d' = depth + List.length f.fidxs in
      Fold
        { f with
          finit = recur f.finit;
          fupd = phase1 st loops' d' f.fupd;
          fcomb = { f.fcomb with cbody = recur f.fcomb.cbody } }
  | MultiFold mf ->
      let loops' =
        loops @ List.mapi (fun i ds -> loop_of_dim st (depth + i) ds)
                  (List.combine mf.odims mf.oidxs)
      in
      let d' = depth + List.length mf.oidxs in
      MultiFold
        { mf with
          oinit = recur mf.oinit;
          olets = List.map (fun (s, e1) -> (s, phase1 st loops' d' e1)) mf.olets;
          oouts =
            List.map
              (fun out ->
                { out with
                  oregion =
                    List.map
                      (fun (o, l, b) ->
                        (phase1 st loops' d' o, phase1 st loops' d' l, b))
                      out.oregion;
                  oupd = phase1 st loops' d' out.oupd })
              mf.oouts;
          ocomb =
            Option.map
              (fun c -> { c with cbody = recur c.cbody })
              mf.ocomb }
  | FlatMap fm ->
      let loops' = loops @ [ loop_of_dim st depth (fm.fmdim, fm.fmidx) ] in
      FlatMap { fm with fmbody = phase1 st loops' (depth + 1) fm.fmbody }
  | GroupByFold g ->
      let loops' =
        loops @ List.mapi (fun i ds -> loop_of_dim st (depth + i) ds)
                  (List.combine g.gdims g.gidxs)
      in
      let d' = depth + List.length g.gidxs in
      GroupByFold
        { g with
          ginit = recur g.ginit;
          glets = List.map (fun (s, e1) -> (s, phase1 st loops' d' e1)) g.glets;
          gkey = phase1 st loops' d' g.gkey;
          gupd = phase1 st loops' d' g.gupd;
          gcomb = { g.gcomb with cbody = recur g.gcomb.cbody } }
  | _ -> Rewrite.map_children recur e

(* ----------------------------------------------------------------- *)
(* Phase 2: insert the Let-bound copies                                *)
(* ----------------------------------------------------------------- *)

let copies_for st placement =
  Hashtbl.fold
    (fun _ d acc ->
      match (d.placement, placement) with
      | None, None -> d :: acc
      | Some s, Some s' when Sym.equal s s' -> d :: acc
      | _ -> acc)
    st.table []
  |> List.sort (fun a b -> Sym.compare a.tile_sym b.tile_sym)

let wrap_copies descs body =
  List.fold_right
    (fun d acc ->
      Let (d.tile_sym, Copy { csrc = Var d.arr; cdims = d.cdims; creuse = d.reuse }, acc))
    descs body

let lets_copies descs lets =
  List.map
    (fun d ->
      (d.tile_sym, Copy { csrc = Var d.arr; cdims = d.cdims; creuse = d.reuse }))
    descs
  @ lets

(* the copies nested under any of a pattern's indices *)
let placed st idxs = List.concat_map (fun s -> copies_for st (Some s)) idxs

(* Phase 2 mints no symbols: each pattern, once its children are rebuilt,
   binds the copies placed at its indices ahead of its body, or of its
   shared bindings *)
let rec phase2 st e =
  match Rewrite.map_children (phase2 st) e with
  | Map m -> Map { m with mbody = wrap_copies (placed st m.midxs) m.mbody }
  | Fold f -> Fold { f with fupd = wrap_copies (placed st f.fidxs) f.fupd }
  | MultiFold mf ->
      MultiFold { mf with olets = lets_copies (placed st mf.oidxs) mf.olets }
  | FlatMap fm ->
      let fmbody = wrap_copies (placed st [ fm.fmidx ]) fm.fmbody in
      FlatMap { fm with fmbody }
  | GroupByFold g ->
      GroupByFold { g with glets = lets_copies (placed st g.gidxs) g.glets }
  | e -> e

let program_with_stats ?(budget_words = Split_cost.budget_words) (p : program) =
  let bound = Ir.size_bound p in
  let st =
    { inputs =
        List.filter_map
          (fun i ->
            if i.ishape = [] then None
            else Some (i.iname, List.length i.ishape))
          p.inputs;
      budget = budget_words;
      bound;
      table = Hashtbl.create 16;
      rewritten = 0;
      skipped = 0 }
  in
  let body1 = phase1 st [] 0 p.body in
  let body2 = phase2 st body1 in
  let body3 = wrap_copies (copies_for st None) body2 in
  ( { p with body = body3 },
    { copies = Hashtbl.length st.table;
      rewritten_reads = st.rewritten;
      skipped_nonaffine = st.skipped } )

let program ?budget_words p = fst (program_with_stats ?budget_words p)
