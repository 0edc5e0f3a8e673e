(* Semantic lints over a lowered design.  Hw_check answers "is this a
   design at all"; this module answers "does this design honor the
   guarantees the paper's hardware templates rely on".  Each analysis
   re-derives its invariant from the controller tree alone, so a buggy
   lowering (or a hand-edited design) disagreeing with what Lower and
   Metapipe.finalize should have produced is flagged. *)

let dedup l = List.sort_uniq String.compare l

(* ------------------------- trip algebra ------------------------- *)

(* fully static trip value; None when it depends on a size parameter or
   a data-dependent rate *)
let rec trip_const = function
  | Hw.Tconst c -> Some c
  | Hw.Tsize _ -> None
  | Hw.Tceil_div (t, b) ->
      Option.map (fun c -> ceil (c /. float_of_int b)) (trip_const t)
  | Hw.Tavg_tail { total; tile } ->
      Option.map
        (fun tot ->
          let tiles = ceil (tot /. float_of_int tile) in
          if tiles <= 0.0 then 0.0 else tot /. tiles)
        (trip_const total)
  | Hw.Tmul (a, b) -> (
      match (trip_const a, trip_const b) with
      | Some x, Some y -> Some (x *. y)
      | _ -> None)
  | Hw.Tscale _ -> None

(* a trip as a product: constant factor, sorted symbolic atoms, and
   whether a data-dependent Tscale is involved.  Two trips with equal
   atom lists differ exactly when their constants differ, which is how
   rates are compared "symbolically where possible". *)
let normalize t =
  let const = ref 1.0 and atoms = ref [] and dynamic = ref false in
  let rec go t =
    match trip_const t with
    | Some c -> const := !const *. c
    | None -> (
        match t with
        | Hw.Tmul (a, b) ->
            go a;
            go b
        | Hw.Tscale (f, t') ->
            dynamic := true;
            const := !const *. f;
            go t'
        | atom ->
            let b = Buffer.create 16 in
            Hw.add_trip b atom;
            atoms := Buffer.contents b :: !atoms)
  in
  go t;
  (!const, List.sort String.compare !atoms, !dynamic)

(* Some (a, b) when the two rates provably differ (a vs b element
   counts); None when equal or not statically comparable *)
let rates_disagree ta tb =
  let ca, aa, da = normalize ta and cb, ab, db = normalize tb in
  if da || db then None (* data-dependent (FlatMap selectivity): matched
                           at runtime by construction *)
  else if aa <> ab then None (* incomparable symbolic shapes *)
  else if Float.abs (ca -. cb) > 1e-6 *. Float.max 1.0 (Float.max ca cb) then
    Some (ca, cb)
  else None

(* ----------------------- design traversals ---------------------- *)

let rec effectful c =
  match c with
  | Hw.Pipe { dram; _ } -> dram <> [] || fst (Hw.mem_refs c) <> []
  | Hw.Tile_load _ | Hw.Tile_store _ -> true
  | _ -> List.exists effectful (Hw.children c)

let has_dram_traffic c =
  Hw.fold_ctrls
    (fun acc c ->
      acc
      ||
      match c with
      | Hw.Tile_load _ | Hw.Tile_store _ -> true
      | Hw.Pipe { dram; _ } -> dram <> []
      | _ -> false)
    false c

(* every memory reference, with enough schedule context to reason about
   rates: the referencing node, its controller path, its own
   per-activation element count, and the trips of each enclosing loop *)
type mem_ref = {
  r_mem : string;
  r_write : bool;
  r_path : string list;  (* enclosing controllers, outermost first *)
  r_node : string;
  r_own : Hw.trip;  (* elements per node activation *)
  r_loops : (string * Hw.trip list) list;  (* enclosing Loops, outermost first *)
}

let collect_refs (d : Hw.design) =
  let refs = ref [] in
  let rec go path loops c =
    let name = Hw.ctrl_name c in
    let own =
      match c with
      | Hw.Pipe { trips; _ } -> Hw.trip_product trips
      | Hw.Tile_load { words; _ } | Hw.Tile_store { words; _ } -> words
      | Hw.Seq _ | Hw.Par _ | Hw.Loop _ -> Hw.Tconst 0.0 (* no references *)
    in
    let add r_write n =
      refs :=
        { r_mem = n; r_write; r_path = path; r_node = name; r_own = own;
          r_loops = loops }
        :: !refs
    in
    let writes, reads = Hw.mem_refs c in
    List.iter (add true) (dedup writes);
    List.iter (add false) (dedup reads);
    let loops' =
      match c with
      | Hw.Loop { trips; _ } -> loops @ [ (name, trips) ]
      | _ -> loops
    in
    List.iter (go (path @ [ name ]) loops') (Hw.children c)
  in
  go [] [] d.Hw.top;
  List.rev !refs

(* total elements moved over the whole design run *)
let total_volume r =
  Hw.trip_product (List.concat_map snd r.r_loops @ [ r.r_own ])

(* elements moved per activation of the subtree rooted strictly below
   the common ancestor prefix [cp] *)
let volume_below cp r =
  let below =
    List.filter (fun (n, _) -> not (List.mem n cp)) r.r_loops
  in
  Hw.trip_product (List.concat_map snd below @ [ r.r_own ])

let rec common_prefix a b =
  match (a, b) with
  | x :: a', y :: b' when x = y -> x :: common_prefix a' b'
  | _ -> []

(* does [p] run to completion before [c] starts, per activation of their
   least common ancestor?  True under a Seq with p's branch first, and
   within a Loop (sequential or metapipeline wavefront) when they sit in
   different stages in order. *)
let sequenced_before ctrl_by_name cp p c =
  match cp with
  | [] -> None
  | _ -> (
      let lca_name = List.nth cp (List.length cp - 1) in
      match Hashtbl.find_opt ctrl_by_name lca_name with
      | None -> None
      | Some lca ->
          let branch r =
            (* the LCA child this reference sits under (or is) *)
            match List.nth_opt (r.r_path @ [ r.r_node ]) (List.length cp) with
            | Some n -> n
            | None -> r.r_node
          in
          let index_of n =
            let rec go i = function
              | [] -> None
              | ch :: rest ->
                  if Hw.ctrl_name ch = n then Some i else go (i + 1) rest
            in
            go 0 (Hw.children lca)
          in
          (match (lca, index_of (branch p), index_of (branch c)) with
          | (Hw.Seq _ | Hw.Loop _), Some ip, Some ic when ip < ic ->
              Some (lca_name, match lca with Hw.Loop { meta; _ } -> meta | _ -> false)
          | _ -> None))

(* ---------------------------- analyses --------------------------- *)

let check (d : Hw.design) =
  let diags = ref [] in
  let emit ?(path = []) ~code ~severity where fmt =
    Printf.ksprintf
      (fun message ->
        diags :=
          { Diagnostic.code; severity; path; where; message } :: !diags)
      fmt
  in
  let mem n = List.find_opt (fun m -> m.Hw.mem_name = n) d.Hw.mems in
  let kind_name k = Hw_pp.mem_kind_name k in
  let ctrl_by_name = Hashtbl.create 64 in
  Hw.iter_ctrls
    (fun c ->
      if not (Hashtbl.mem ctrl_by_name (Hw.ctrl_name c)) then
        Hashtbl.add ctrl_by_name (Hw.ctrl_name c) c)
    d.Hw.top;

  (* --- 1. metapipeline race detection (HW101 / HW102 / HW103) ---
     Re-derive the stage-coupling set Metapipe.finalize promotes: a
     memory written by one stage and read by a different stage of a
     metapipelined loop.  With plain single buffers the writer's next
     outer iteration overwrites data the reader is still consuming
     (Section 5's reason for double buffers). *)
  let coupled = Hashtbl.create 16 in
  let race_seen = Hashtbl.create 16 in
  Hw.iter_ctrls_path
    (fun path c ->
      match c with
      | Hw.Loop { name; meta = true; stages; _ } ->
          let infos =
            List.map (fun s -> (Hw.ctrl_name s, Hw.subtree_refs s)) stages
          in
          List.iteri
            (fun i (wname, (writes, _)) ->
              List.iter
                (fun mn ->
                  List.iteri
                    (fun j (rname, (_, reads)) ->
                      if i <> j && List.mem mn reads then begin
                        Hashtbl.replace coupled mn ();
                        if not (Hashtbl.mem race_seen (mn, name)) then begin
                          Hashtbl.add race_seen (mn, name) ();
                          match mem mn with
                          | Some m -> (
                              match m.Hw.kind with
                              | Hw.Double_buffer | Hw.Fifo | Hw.Cam ->
                                  () (* decoupled by design *)
                              | Hw.Buffer ->
                                  emit ~path:(path @ [ name ]) ~code:"HW101"
                                    ~severity:Diagnostic.Error mn
                                    "buffer is written by stage %s and read \
                                     by stage %s of metapipeline %s but is \
                                     not a double buffer: overlapped outer \
                                     iterations race (write-after-read); \
                                     Metapipe.finalize should have promoted \
                                     it"
                                    wname rname name
                              | Hw.Reg | Hw.Cache ->
                                  emit ~path:(path @ [ name ]) ~code:"HW103"
                                    ~severity:Diagnostic.Warning mn
                                    "%s is written by stage %s and read by \
                                     stage %s of metapipeline %s without \
                                     double buffering: the value is \
                                     overwritten one outer iteration early \
                                     when stages overlap"
                                    (kind_name m.Hw.kind) wname rname name)
                          | None -> ()
                        end
                      end)
                    infos)
                writes)
            infos
      | _ -> ())
    d.Hw.top;
  (* over-promotion: double-buffer area spent without a stage to couple *)
  List.iter
    (fun m ->
      if m.Hw.kind = Hw.Double_buffer && not (Hashtbl.mem coupled m.Hw.mem_name)
      then
        emit ~code:"HW102" ~severity:Diagnostic.Warning m.Hw.mem_name
          "double buffer never couples two distinct metapipeline stages: \
           promotion doubles its area for no overlap benefit")
    d.Hw.mems;

  (* --- 2. banking and port conflicts (HW110 / HW111) --- *)
  Hw.iter_ctrls_path
    (fun path c ->
      match c with
      | Hw.Pipe { name; par; _ } when par > 1 ->
          let writes, reads = Hw.mem_refs c in
          List.iter
            (fun n ->
              match mem n with
              | Some m
                when (m.Hw.kind = Hw.Buffer || m.Hw.kind = Hw.Double_buffer)
                     && m.Hw.depth > 1 && m.Hw.banks < par ->
                  emit ~path ~code:"HW110" ~severity:Diagnostic.Error name
                    "par=%d lanes access %s which has only %d bank%s: \
                     accesses serialize on the memory ports, defeating the \
                     parallelization"
                    par n m.Hw.banks
                    (if m.Hw.banks = 1 then "" else "s")
              | _ -> ())
            (dedup (reads @ writes))
      | _ -> ())
    d.Hw.top;
  (* derive reader/writer ports from the tree and flag disagreement
     with the declared counts *)
  let ports = Hw.port_counts d.Hw.top in
  List.iter
    (fun m ->
      let n = m.Hw.mem_name in
      let r, w = ports n in
      if m.Hw.readers <> r || m.Hw.writers <> w then
        emit ~code:"HW111" ~severity:Diagnostic.Error n
          "declared ports (R=%d W=%d) disagree with the controller tree \
           (R=%d W=%d): the area model and banking decisions are computed \
           from stale counts"
          m.Hw.readers m.Hw.writers r w)
    d.Hw.mems;

  (* --- 3. FIFO rate and deadlock analysis (HW120 / HW121 / HW122) --- *)
  let refs = collect_refs d in
  List.iter
    (fun m ->
      if m.Hw.kind = Hw.Fifo then begin
        let n = m.Hw.mem_name in
        let prods =
          List.filter (fun r -> r.r_mem = n && r.r_write) refs
        in
        let cons =
          List.filter (fun r -> r.r_mem = n && not r.r_write) refs
        in
        (match (prods, cons) with
        | [ p ], [ c ] -> (
            (* whole-run volume balance, symbolically where possible *)
            (match rates_disagree (total_volume p) (total_volume c) with
            | Some (vp, vc) ->
                emit ~path:(common_prefix p.r_path c.r_path) ~code:"HW120"
                  ~severity:Diagnostic.Error n
                  "producer %s pushes %.0f elements over the run but \
                   consumer %s pops %.0f: the FIFO %s"
                  p.r_node vp c.r_node vc
                  (if vp > vc then "fills and stalls the producer"
                   else "underflows and stalls the consumer")
            | None -> ());
            (* capacity against the burst pushed before draining starts *)
            let cp = common_prefix p.r_path c.r_path in
            match sequenced_before ctrl_by_name cp p c with
            | Some (lca_name, lca_meta) -> (
                match trip_const (volume_below cp p) with
                | Some burst when burst > float_of_int m.Hw.depth ->
                    emit ~path:cp ~code:"HW121" ~severity:Diagnostic.Error n
                      "producer %s pushes %.0f elements per activation of %s \
                       before consumer %s starts draining, but the FIFO \
                       holds %d: the producer blocks forever (deadlock)"
                      p.r_node burst lca_name c.r_node m.Hw.depth
                | Some burst
                  when lca_meta && 2.0 *. burst > float_of_int m.Hw.depth ->
                    emit ~path:cp ~code:"HW122" ~severity:Diagnostic.Warning n
                      "FIFO depth %d leaves no slack to fill one %.0f-element \
                       burst while consumer %s drains the previous one: the \
                       metapipeline %s serializes on it"
                      m.Hw.depth burst c.r_node lca_name
                | _ -> ())
            | None -> ())
        | _ -> () (* multi-ended FIFOs: rates not statically attributable *))
      end)
    d.Hw.mems;

  (* --- 4. capacity analysis (HW130) --- *)
  Hw.iter_ctrls_path
    (fun path c ->
      match c with
      | Hw.Tile_load { name; mem = mn; words; _ } -> (
          match (mem mn, trip_const words) with
          | Some m, Some w when w > float_of_int m.Hw.depth ->
              emit ~path ~code:"HW130" ~severity:Diagnostic.Error name
                "loads a %.0f-word tile into %s which holds %d words: the \
                 tile footprint under the enclosing iteration space exceeds \
                 the declared depth"
                w mn m.Hw.depth
          | _ -> ())
      | Hw.Tile_store { name; mem = Some mn; words; _ } -> (
          match (mem mn, trip_const words) with
          | Some m, Some w when w > float_of_int m.Hw.depth ->
              emit ~path ~code:"HW130" ~severity:Diagnostic.Error name
                "stores a %.0f-word tile out of %s which holds only %d \
                 words: the staged region cannot have been buffered"
                w mn m.Hw.depth
          | _ -> ())
      | _ -> ())
    d.Hw.top;

  (* --- 5. performance lints (HW140 / HW141 / HW142) --- *)
  (* dead controllers: report the topmost effect-free subtree only *)
  let rec scan_dead path c =
    if not (effectful c) then
      emit ~path ~code:"HW140" ~severity:Diagnostic.Info (Hw.ctrl_name c)
        "controller has no observable effect: it writes no memory and moves \
         no DRAM data (dead hardware still costs area)"
    else
      List.iter
        (scan_dead (path @ [ Hw.ctrl_name c ]))
        (Hw.children c)
  in
  scan_dead [] d.Hw.top;
  Hw.iter_ctrls_path
    (fun path c ->
      match c with
      | Hw.Loop { name; meta = false; stages; _ }
        when List.length stages >= 2 ->
          (* overlap-eligible: a forward cross-stage producer/consumer
             chain is exactly what metapipelining overlaps *)
          let infos = List.map Hw.subtree_refs stages in
          let eligible =
            List.exists
              (fun i ->
                let wi, _ = List.nth infos i in
                List.exists
                  (fun j ->
                    let _, rj = List.nth infos j in
                    List.exists (fun m -> List.mem m rj) wi)
                  (List.init (List.length infos - i - 1) (fun k -> i + 1 + k)))
              (List.init (List.length infos) (fun i -> i))
          in
          if eligible then
            emit ~path ~code:"HW141" ~severity:Diagnostic.Info name
              "sequential loop's stages form a producer/consumer chain: \
               metapipelining (meta=true) would overlap outer iterations \
               (Section 5)"
      | Hw.Loop { name; meta = true; stages; _ } -> (
          (* adjacent DRAM stages serialize the steady state *)
          let dram_flags = List.map has_dram_traffic stages in
          let rec adj i = function
            | a :: (b :: _ as rest) ->
                if a && b then Some i else adj (i + 1) rest
            | _ -> None
          in
          match adj 0 dram_flags with
          | Some i ->
              let nth_name k = Hw.ctrl_name (List.nth stages k) in
              emit ~path ~code:"HW142" ~severity:Diagnostic.Info name
                "stages %s and %s both occupy the DRAM channel: the \
                 metapipeline steady state is floored by their serialized \
                 traffic rather than the slowest stage (see `simulate \
                 --bottlenecks`)"
                (nth_name i) (nth_name (i + 1))
          | None -> ())
      | _ -> ())
    d.Hw.top;
  List.sort Diagnostic.compare !diags

let check_all d = List.sort Diagnostic.compare (Hw_check.check d @ check d)
