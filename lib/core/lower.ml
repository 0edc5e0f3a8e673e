open Ir

type opts = {
  meta : bool;
  par : int;
  cache_leftover : bool;
  fifo_rate : float;
}

let default_opts =
  { meta = true; par = 16; cache_leftover = true; fifo_rate = 0.05 }

let baseline_opts = { default_opts with meta = false; cache_leftover = false }

type ctx = {
  opts : opts;
  types : Validate.table;  (* the program's, from its check *)
  bound : exp -> int option;
  ishapes : (Sym.t * exp list) list;  (* input array shapes *)
  bufs : (Sym.t * string list) list;  (* on-chip value -> mem per component *)
  dram : (Sym.t * string) list;  (* DRAM arrays *)
  mems : (Hw.mem * bool) list ref;  (* with whether it is banked *)
  caches : (Sym.t, string) Hashtbl.t;
  dyn_lens : (Sym.t * Hw.trip) list;  (* FlatMap outputs: expected lengths *)
  names : namer;
  prov : Prov.t;  (* nearest enclosing source pattern's provenance *)
}

(* Every controller and memory name of a design is handed out here, once:
   the design has one namespace. *)
and namer = { mutable count : int; taken : (string, unit) Hashtbl.t }

(* [<base>_<count>] for the next count; not yet handed out *)
let next_name ctx base =
  ctx.names.count <- ctx.names.count + 1;
  base ^ "_" ^ string_of_int ctx.names.count

(* A source symbol's name ([<base>_<id>]) can spell a minted name
   ([<base>_<count>]), as [result = ...] does against the result buffer
   [result_1]; a name handed out before gets a fresh suffix instead.  No
   name is taken twice in a design without such a clash, so its text does
   not depend on this. *)
let rec claim_name ctx name =
  if Hashtbl.mem ctx.names.taken name then claim_name ctx (next_name ctx name)
  else begin
    Hashtbl.add ctx.names.taken name ();
    name
  end

let fresh_name ctx base = claim_name ctx (next_name ctx base)

(* provenance carried by a pattern node, if any *)
let pat_prov = function
  | Map m -> m.mprov
  | Fold f -> f.fprov
  | MultiFold mf -> mf.oprov
  | FlatMap fm -> fm.fmprov
  | GroupByFold g -> g.gprov
  | _ -> Prov.none

(* provenance of a leaf expression: its top pattern, or the pattern its
   Let-spine terminates in *)
let rec exp_prov e =
  let p = pat_prov e in
  if not (Prov.is_none p) then p
  else match e with Let (_, _, rest) -> exp_prov rest | _ -> Prov.none

let node_prov ctx p = if Prov.is_none p then ctx.prov else p
let under_prov ctx p = { ctx with prov = p }

(* the value [s] is bound to in an association list of the context *)
let find_sym s l =
  List.find_map (fun (k, v) -> if Sym.equal k s then Some v else None) l

let add_buf ctx s names = { ctx with bufs = (s, names) :: ctx.bufs }
let binder_type ctx s = Validate.binder_type ctx.types s

let rec width_of_ty = function
  | Ty.Scalar _ -> 32
  | Ty.Tuple ts -> List.fold_left (fun acc t -> acc + width_of_ty t) 0 ts
  | Ty.Array (elt, _) -> width_of_ty elt
  | Ty.Assoc (k, v) -> width_of_ty k + width_of_ty v

(* [banked] memories get one bank per lane of the parallelism factor;
   their count is set by [bind], every other memory has one bank.  The
   returned name is the memory's: [name] itself unless it was handed out
   before *)
let alloc_mem ctx ~name ~kind ~width ~depth ~banked =
  let name = claim_name ctx name in
  let m =
    { Hw.mem_name = name; kind; width_bits = width; depth; banks = 1;
      readers = 0; writers = 0; mem_prov = ctx.prov }
  in
  ctx.mems := (m, banked) :: !(ctx.mems);
  name

(* ------------------------------ trips ------------------------------ *)

let rec trip_of_size ctx e =
  match e with
  | Ci c -> Hw.Tconst (float_of_int c)
  | Var s -> Option.value (find_sym s ctx.dyn_lens) ~default:(Hw.Tsize s)
  | Len (Var s, _) ->
      Option.value (find_sym s ctx.dyn_lens) ~default:(Hw.Tconst 1.0)
  | Prim (Mul, [ a; b ]) -> Hw.Tmul (trip_of_size ctx a, trip_of_size ctx b)
  | Prim (Add, [ a; Ci _ ]) -> trip_of_size ctx a
  | Prim (Min, [ Ci tile; Prim (Sub, [ total; Prim (Mul, [ _; Ci tile' ]) ]) ])
    when tile = tile' ->
      Hw.Tavg_tail { total = trip_of_size ctx total; tile }
  | _ -> Hw.Tconst 1.0

let trip_of_dom ctx = function
  | Dfull e -> trip_of_size ctx e
  | Dtiles { total; tile } -> (
      match trip_of_size ctx total with
      | Hw.Tconst c -> Hw.Tconst (ceil (c /. float_of_int tile))
      | t -> Hw.Tceil_div (t, tile))
  | Dtail { total; tile; _ } -> (
      match trip_of_size ctx total with
      | Hw.Tconst c ->
          let tiles = ceil (c /. float_of_int tile) in
          Hw.Tconst (if tiles <= 0.0 then 0.0 else c /. tiles)
      | t -> Hw.Tavg_tail { total = t; tile })

let trip_of_len ctx len max_len =
  match len with
  | Ci c -> Hw.Tconst (float_of_int c)
  | _ -> (
      match trip_of_size ctx len with
      | Hw.Tconst 1.0 -> (
          match max_len with
          | Some m -> Hw.Tconst (float_of_int m)
          | None -> Hw.Tconst 1.0)
      | t -> t)

(* static trip estimate, for spine selection *)
let trip_estimate ctx = function
  | Dfull e -> (match ctx.bound e with Some b -> b | None -> 64)
  | Dtiles { total; tile } -> (
      match ctx.bound total with
      | Some b -> (b + tile - 1) / tile
      | None -> 64)
  | Dtail { tile; _ } -> tile

(* --------------------------- classification ------------------------ *)

let is_pattern = function
  | Map _ | Fold _ | MultiFold _ | FlatMap _ | GroupByFold _ -> true
  | _ -> false

(* a value that needs no buffer: its computation stays in the datapath *)
let scalarish e =
  not
    (Rewrite.exists_exp
       (function
         | Zeros _ | ArrLit _ | EmptyArr _ | Copy _ | Slice _ -> true
         | Map _ | MultiFold _ | FlatMap _ | GroupByFold _ -> true
         | _ -> false)
       e)

(* a Let-bound pattern that can live inside a pipe's datapath (a scalar
   reduction like gemm's dot product) rather than forming its own stage *)
let datapath_pattern = function
  | Fold { finit; _ } -> scalarish finit
  | _ -> false

(* A leaf lowers to a single pipelined execution unit: no tile copies and
   no staged (Let- or shared-binding-bound, buffer-producing) patterns
   anywhere inside. *)
let is_leaf e =
  not
    (Rewrite.exists_exp
       (function
         | Copy _ -> true
         | Let (_, rhs, _) when is_pattern rhs && not (datapath_pattern rhs) ->
             true
         | MultiFold { olets; _ } ->
             List.exists
               (fun (_, rhs) -> is_pattern rhs && not (datapath_pattern rhs))
               olets
         | GroupByFold { glets; _ } ->
             List.exists
               (fun (_, rhs) -> is_pattern rhs && not (datapath_pattern rhs))
               glets
         | _ -> false)
       e)

(* maximal pattern subterms, not descending into them *)
let top_patterns e =
  if is_pattern e then [ e ]
  else begin
    let acc = ref [] in
    let rec visit_children e =
      Rewrite.iter_children
        (fun c -> if is_pattern c then acc := c :: !acc else visit_children c)
        e
    in
    visit_children e;
    List.rev !acc
  end

(* ----------------------------- leaf pipes -------------------------- *)

let pattern_parts = function
  | Map m -> Some (List.combine m.mdims m.midxs, [ m.mbody ])
  | Fold f -> Some (List.combine f.fdims f.fidxs, [ f.fupd ])
  | MultiFold mf ->
      Some
        ( List.combine mf.odims mf.oidxs,
          List.map snd mf.olets @ List.map (fun o -> o.oupd) mf.oouts )
  | FlatMap fm -> Some ([ (fm.fmdim, fm.fmidx) ], [ fm.fmbody ])
  | GroupByFold g ->
      Some
        ( List.combine g.gdims g.gidxs,
          List.map snd g.glets @ [ g.gkey; g.gupd ] )
  | _ -> None

(* The nested chain of iteration domains with the largest static count.
   Sub-patterns that do not depend on this pattern's indices are evaluated
   once, not per iteration (e.g. the inner MultiFold under sumrows' outer
   elementwise merge), so their trips must not multiply with ours: such a
   chain competes with the dependent chain instead. *)
let rec spine ctx e =
  match pattern_parts e with
  | None -> []
  | Some (here, bodies) ->
      let weight s =
        List.fold_left (fun acc (d, _) -> acc * trip_estimate ctx d) 1 s
      in
      let idxs = List.map snd here in
      let dependent p =
        let fv = Ir.free_vars p in
        List.exists (fun s -> Sym.Set.mem s fv) idxs
      in
      let subs = List.concat_map top_patterns bodies in
      let best l =
        List.fold_left
          (fun best p ->
            let s = spine ctx p in
            match best with
            | Some b when weight b >= weight s -> best
            | _ -> Some s)
          None l
      in
      let dep, indep = List.partition dependent subs in
      let dep_chain =
        here @ (match best dep with Some s -> s | None -> [])
      in
      let indep_chain = match best indep with Some s -> s | None -> [] in
      if weight indep_chain > weight dep_chain then indep_chain else dep_chain

(* deepest pattern along the spine, and its body *)
let rec deepest_pattern e =
  match pattern_parts e with
  | None -> e
  | Some (_, bodies) -> (
      match List.concat_map top_patterns bodies with
      | [] -> e
      | p :: _ -> deepest_pattern p)

let innermost_body e =
  match pattern_parts (deepest_pattern e) with
  | Some (_, bodies) -> bodies
  | None -> [ e ]

let count_ops es =
  let flops = ref 0 and int_ops = ref 0 and cmp_ops = ref 0 in
  let reads = ref 0 in
  List.iter
    (Rewrite.iter_exp (function
      | Prim ((Add | Sub | Mul | Div | Neg | Sqrt | Exp | Log | Abs), _) ->
          incr flops
      | Prim ((Min | Max | Lt | Le | Gt | Ge | Eq | Ne), _) -> incr cmp_ops
      | Prim ((Mod | ToFloat | ToInt | And | Or | Not), _) -> incr int_ops
      | Read _ -> incr reads
      | _ -> ()))
    es;
  { Hw.flops = !flops; int_ops = !int_ops; cmp_ops = !cmp_ops;
    mem_reads = !reads; mem_writes = 1 }

let template_of e =
  match deepest_pattern e with
  | Map _ -> Hw.Vector
  | Fold _ | MultiFold _ -> Hw.Tree
  | FlatMap _ -> Hw.Fifo_write
  | GroupByFold _ -> Hw.Cam_update
  | _ -> Hw.Scalar_unit

(* every DRAM read inside a leaf, with per-spine-loop dependence flags *)
let dram_accesses ctx spine_dims e =
  let accs = ref [] in
  Rewrite.iter_exp
    (function
      | Read (Var s, idxs) -> (
          match find_sym s ctx.dram with
          | None -> ()
          | Some arr ->
              let deps =
                List.fold_left
                  (fun acc i -> Sym.Set.union acc (Ir.free_vars i))
                  Sym.Set.empty idxs
              in
              let path =
                List.map
                  (fun (d, idx) -> (trip_of_dom ctx d, Sym.Set.mem idx deps))
                  spine_dims
              in
              let contiguous =
                let rec last = function
                  | [ x ] -> Some x
                  | _ :: r -> last r
                  | [] -> None
                in
                match last idxs with
                | None -> false
                | Some last_idx -> (
                    match Affine.of_exp (Simplify.exp last_idx) with
                    | None -> false
                    | Some aff ->
                        let spine_syms = List.map snd spine_dims in
                        let unit_syms =
                          Sym.Set.filter
                            (fun s -> Affine.coeff aff s = 1)
                            (Affine.syms aff)
                        in
                        (* contiguous if the unit-stride symbol is deeper
                           than every other dependent loop: either a
                           non-spine (inner region) index, or the last
                           dependent spine index *)
                        Sym.Set.exists
                          (fun s -> not (List.exists (Sym.equal s) spine_syms))
                          unit_syms
                        ||
                        match
                          last
                            (List.filter
                               (fun (_, idx) -> Sym.Set.mem idx deps)
                               spine_dims)
                        with
                        | Some (_, idx) -> Sym.Set.mem idx unit_syms
                        | None -> false)
              in
              let affine =
                List.for_all
                  (fun i -> Affine.of_exp (Simplify.exp i) <> None)
                  idxs
              in
              let kind =
                if (not affine) && ctx.opts.cache_leftover then begin
                  (if not (Hashtbl.mem ctx.caches s) then begin
                     let name =
                       alloc_mem ctx ~name:(next_name ctx (arr ^ "_cache"))
                         ~kind:Hw.Cache ~width:32 ~depth:1024 ~banked:false
                     in
                     Hashtbl.add ctx.caches s name
                   end);
                  `Cached
                end
                else `Read
              in
              let row_words =
                (* innermost dependent extent: one contiguous run *)
                let rec last_dep = function
                  | [] -> None
                  | (d, idx) :: rest -> (
                      match last_dep rest with
                      | Some x -> Some x
                      | None -> if Sym.Set.mem idx deps then Some d else None)
                in
                match last_dep spine_dims with
                | Some d when contiguous -> trip_of_dom ctx d
                | _ -> Hw.Tconst 1.0
              in
              let da =
                { Hw.da_array = arr; da_path = path;
                  da_contiguous = contiguous; da_affine = affine;
                  da_row_words = row_words; da_kind = kind }
              in
              (* one stream per distinct (array, dependence) pattern: a
                 pipe re-reading the same element in several places shares
                 one memory stream *)
              if not (List.mem da !accs) then accs := da :: !accs)
      | _ -> ())
    e;
  List.rev !accs

let buffer_uses ctx e =
  let uses = ref [] in
  Rewrite.iter_exp
    (function
      | Var s -> (
          match find_sym s ctx.bufs with
          | Some names ->
              List.iter
                (fun n -> if not (List.mem n !uses) then uses := n :: !uses)
                names
          | None -> ())
      | _ -> ())
    e;
  List.rev !uses

let cache_uses ctx e =
  let uses = ref [] in
  Rewrite.iter_exp
    (function
      | Var s -> (
          match Hashtbl.find_opt ctx.caches s with
          | Some n when not (List.mem n !uses) -> uses := n :: !uses
          | _ -> ())
      | _ -> ())
    e;
  List.rev !uses

let lower_leaf ctx ~defines base e =
  let sp = spine ctx e in
  let trips = List.map (fun (d, _) -> trip_of_dom ctx d) sp in
  let ops = count_ops (innermost_body e) in
  let dram = dram_accesses ctx sp e in
  (* fill latency: critical path of the datapath after MaxJ's automatic
     pipelining *)
  let depth = Depth.of_exp e in
  let name = fresh_name ctx base in
  Hw.Pipe
    { name;
      trips;
      template = template_of e;
      par = 1;  (* set by [bind] *)
      depth;
      ii = 1;
      ops;
      body =
        (match innermost_body e with
        | [ b ] -> Some b
        | bs -> Some (Tup bs));
      dram;
      uses = buffer_uses ctx e @ cache_uses ctx e;
      defines;
      prov = Prov.push (node_prov ctx (exp_prov e)) name }

(* --------------------------- memory sizing ------------------------- *)

(* components of a value type: one mem per array/scalar component *)
let component_tys = function
  | Ty.Tuple ts when List.exists (function Ty.Array _ -> true | _ -> false) ts
    ->
      ts
  | t -> [ t ]

let shape_words ctx shape =
  List.fold_left
    (fun acc e ->
      match (acc, ctx.bound e) with
      | Some a, Some b -> Some (a * b)
      | _ -> None)
    (Some 1) shape

(* component shapes of an accumulator init expression *)
let init_shapes init =
  match init with
  | Tup es ->
      List.map
        (function
          | Zeros (_, shape) -> Some shape
          | Cf _ | Ci _ | Cb _ | Tup _ -> Some []
          | _ -> None)
        es
  | Zeros (_, shape) -> [ Some shape ]
  | Cf _ | Ci _ | Cb _ -> [ Some [] ]
  | Map m -> [ Some (List.map (fun d -> Ir.dom_size d) m.mdims) ]
  | _ -> [ None ]

(* allocate on-chip storage for an accumulator/intermediate value.
   Returns the mem names, or None if its static bound exceeds the budget. *)
let alloc_value ctx base ty init =
  let comps = component_tys ty in
  let shapes =
    let s = init_shapes init in
    if List.length s = List.length comps then s
    else List.map (fun _ -> None) comps
  in
  let words =
    List.fold_left2
      (fun acc comp shape ->
        match (acc, shape) with
        | Some a, Some sh -> (
            match shape_words ctx sh with
            | Some w -> Some (a + (w * (width_of_ty comp / 32)))
            | None -> None)
        | _ -> None)
      (Some 0) comps shapes
  in
  match words with
  | Some w when w <= Split_cost.budget_words ->
      let names =
        List.map2
          (fun comp shape ->
            let name =
              next_name ctx
                (base ^ if List.length comps = 1 then "" else "_c")
            in
            match comp with
            | Ty.Assoc (k, v) ->
                (* GroupByFold result: an associative key-value store *)
                alloc_mem ctx ~name ~kind:Hw.Cam
                  ~width:(width_of_ty k + width_of_ty v)
                  ~depth:1024 ~banked:false
            | _ ->
                let depth =
                  match shape with
                  | Some sh -> (
                      match shape_words ctx sh with
                      | Some w -> Int.max 1 w
                      | None -> 1)
                  | None -> 1
                in
                let kind = if depth = 1 then Hw.Reg else Hw.Buffer in
                alloc_mem ctx ~name ~kind ~width:(width_of_ty comp) ~depth
                  ~banked:(depth > 1))
          comps shapes
      in
      Some names
  | _ -> None

(* ----------------------- stage decomposition ----------------------- *)

(* Detect the tiled-MultiFold redundant-accumulation wrapper produced by
   strip mining: [upd = lets...; a = acc; b = INNER; comb-body].  The inner
   pattern then accumulates directly into the outer buffer and no merge
   stage is emitted (Section 5, metapipeline analysis). *)
let strip_comb_wrapper facc fupd =
  let rec go prefix e =
    match e with
    | Let (a, Var facc', Let (b, inner, cbody))
      when Sym.equal facc' facc
           && Sym.Set.mem a (Ir.free_vars cbody)
           && Sym.Set.mem b (Ir.free_vars cbody) ->
        let rec rebuild = function
          | [] -> inner
          | (s, rhs) :: rest -> Let (s, rhs, rebuild rest)
        in
        Some (rebuild (List.rev prefix))
    | Let (s, rhs, rest) -> go ((s, rhs) :: prefix) rest
    | _ -> None
  in
  go [] fupd

let elt_width_of_src ctx src =
  match src with
  | Var s -> (
      match binder_type ctx s with
      | Ty.Array (elt, _) -> width_of_ty elt
      | _ | (exception Not_found) -> 32)
  | _ -> 32

(* --------------------------- template units ------------------------ *)

(* Each Table 4 unit the walk below instantiates more than once is built
   here.  A unit's name is minted when it is built, after its stages. *)

let loop ctx bprov base trips stages =
  let name = fresh_name ctx base in
  Hw.Loop
    { name; trips; meta = ctx.opts.meta; stages; prov = Prov.push bprov name }

let tile_load ctx bprov ~mem ~array ~reuse words =
  let name = fresh_name ctx ("load_" ^ array) in
  Hw.Tile_load
    { name; mem; array; words; path = []; reuse; prov = Prov.push bprov name }

let tile_store ctx bprov ~mem ~array words =
  let name = fresh_name ctx ("store_" ^ array) in
  Hw.Tile_store
    { name; mem; array; words; path = []; prov = Prov.push bprov name }

(* Tile copy -> buffer + tile load unit *)
let lower_copy ctx s { csrc; cdims; creuse } =
  let arr_name, shape =
    match csrc with
    | Var a ->
        ( Option.value (find_sym a ctx.dram) ~default:(Sym.name a),
          Option.value (find_sym a ctx.ishapes) ~default:[] )
    | _ -> ("anon", [])
  in
  let dim_info =
    List.mapi
      (fun i cd ->
        match cd with
        | Coffset { len; max_len; _ } ->
            (trip_of_len ctx len max_len,
             match max_len with Some m -> m | None -> 1024)
        | Call ->
            let size_e = try List.nth shape i with _ -> Ci 1 in
            ( trip_of_size ctx size_e,
              match ctx.bound size_e with Some b -> b | None -> 1024 )
        | Cfix _ -> (Hw.Tconst 1.0, 1))
      cdims
  in
  let words = Hw.trip_product (List.map fst dim_info) in
  let depth = List.fold_left (fun acc (_, m) -> acc * m) 1 dim_info in
  let mem_name =
    alloc_mem ctx ~name:(Sym.name s) ~kind:Hw.Buffer
      ~width:(elt_width_of_src ctx csrc) ~depth ~banked:true
  in
  ( mem_name,
    tile_load ctx ctx.prov ~mem:mem_name ~array:arr_name ~reuse:creuse words )

(* [s] bound to a tile copy: the context that reads [s] from its buffer,
   and the load filling the buffer *)
let bind_copy ctx s c =
  let mem_name, load = lower_copy ctx s c in
  (add_buf ctx s [ mem_name ], load)

(* the tile copies among shared bindings, bound in order, and their loads *)
let bind_copies ctx lets =
  let ctx, loads =
    List.fold_left
      (fun (c, acc) (s, rhs) ->
        match rhs with
        | Copy cp ->
            let c, load = bind_copy c s cp in
            (c, load :: acc)
        | _ -> (c, acc))
      (ctx, []) lets
  in
  (ctx, List.rev loads)

(* the words a stored value covers: a Map's domain, a Fold's accumulator
   shape, a MultiFold's first accumulator range once *)
let stored_words ctx = function
  | Map m -> Hw.trip_product (List.map (trip_of_dom ctx) m.mdims)
  | Fold { finit; _ } -> (
      match init_shapes finit with
      | [ Some shape ] -> Hw.trip_product (List.map (trip_of_size ctx) shape)
      | _ -> Hw.Tconst 1.0)
  | MultiFold { oouts = out :: _; _ } ->
      Hw.trip_product (List.map (trip_of_size ctx) out.orange)
  | _ -> Hw.Tconst 1.0

(* storage for a staged value: [alloc_value]'s, or, over the budget, a
   [depth]-word buffer named [dram_name ()] in front of its DRAM home *)
let alloc_staged ctx base ty init ~depth ~dram_name =
  match alloc_value ctx base ty init with
  | Some names -> names
  | None ->
      [ alloc_mem ctx ~name:(dram_name ()) ~kind:Hw.Buffer ~width:32 ~depth
          ~banked:(depth > 1) ]

(* region write of a DRAM-resident accumulator *)
let region_words ctx region =
  Hw.trip_product
    (List.map (fun (_, len, max_len) -> trip_of_len ctx len max_len) region)

let region_depth region =
  List.fold_left
    (fun acc (_, len, max_len) ->
      acc
      *
      match (len, max_len) with
      | Ci c, _ -> c
      | _, Some m -> m
      | _ -> 1024)
    1 region

(* destination of a lowered value *)
type dest =
  | Onchip of string list  (* mem names per component *)
  | Dram_arr of string  (* DRAM-resident array *)

let rec lower_stages ctx e ~dest : Hw.ctrl list =
  match e with
  (* a binding nothing reads, as the source linter's dead binding: no
     memory and no stage *)
  | Let (s, _, rest)
    when not
           (Rewrite.exists_exp
              (function Var v -> Sym.equal v s | _ -> false)
              rest) ->
      lower_stages ctx rest ~dest
  (* streaming filter-reduce: FlatMap consumed by a fold over its length
     becomes one loop whose stages are loads | filter pipe | reduce pipe,
     all coupled through the FIFO *)
  | Let
      ( x,
        FlatMap
          { fmdim = Dtiles { total; tile } as od; fmidx; fmbody; fmprov; _ },
        (Fold { fdims = [ Dfull (Len (Var x', 0)) ]; _ } as consumer) )
    when Sym.equal x x' ->
      let bprov = node_prov ctx fmprov in
      let ctx = under_prov ctx bprov in
      let fifo =
        alloc_mem ctx ~name:(Sym.name x) ~kind:Hw.Fifo ~width:32
          ~depth:(2 * tile) ~banked:false
      in
      let tail_trip =
        trip_of_dom ctx (Dtail { total; tile; outer = fmidx })
      in
      let inner_stages = lower_flatmap_body ctx fmbody ~fifo in
      let ctx_consume =
        { ctx with
          dyn_lens =
            (x, Hw.Tscale (ctx.opts.fifo_rate, tail_trip)) :: ctx.dyn_lens;
          bufs = (x, [ fifo ]) :: ctx.bufs }
      in
      let reduce = lower_value ctx_consume consumer ~dest in
      [ loop ctx bprov "stream" [ trip_of_dom ctx od ] (inner_stages @ reduce) ]
  | Let (s, Copy c, rest) ->
      let ctx', load = bind_copy ctx s c in
      load :: lower_stages ctx' rest ~dest
  | Let (s, rhs, rest) when is_pattern rhs ->
      let t = binder_type ctx s in
      (* the intermediate's storage belongs to the pattern computing it;
         over the budget it stays in DRAM *)
      let ctx_a = under_prov ctx (node_prov ctx (pat_prov rhs)) in
      let names =
        alloc_staged ctx_a (Sym.name s) t (init_hint_of rhs) ~depth:1
          ~dram_name:(fun () -> Sym.name s)
      in
      let stage = lower_value ctx rhs ~dest:(Onchip names) in
      let ctx' = add_buf ctx s names in
      (* FlatMap intermediates have dynamic length: register the expected
         rate so downstream consumers get realistic trip counts *)
      let ctx' =
        match rhs with
        | FlatMap { fmdim; _ } ->
            { ctx' with
              dyn_lens =
                (s, Hw.Tscale (ctx.opts.fifo_rate, trip_of_dom ctx fmdim))
                :: ctx'.dyn_lens }
        | _ -> ctx'
      in
      stage @ lower_stages ctx' rest ~dest
  | Let (s, Var a, rest) ->
      (* alias: propagate buffer/dram bindings *)
      let ctx' =
        match find_sym a ctx.bufs with
        | Some names -> add_buf ctx s names
        | None -> ctx
      in
      lower_stages ctx' rest ~dest
  | Let (s, rhs, rest) ->
      (* scalar or small expression: a register stage *)
      let t = binder_type ctx s in
      let name =
        alloc_mem ctx ~name:(Sym.name s) ~kind:Hw.Reg ~width:(width_of_ty t)
          ~depth:1 ~banked:false
      in
      let stage = lower_leaf ctx ~defines:[ name ] "scalar" rhs in
      let ctx' = add_buf ctx s [ name ] in
      stage :: lower_stages ctx' rest ~dest
  | e -> lower_value ctx e ~dest

and init_hint_of = function
  | Fold { finit; _ } -> finit
  | MultiFold { oinit; _ } -> oinit
  | Map m ->
      (* a Map produces one element per index *)
      Zeros (Ty.float_, List.map Ir.dom_size m.mdims)
  | _ -> Ci 0

and lower_flatmap_body ctx e ~fifo : Hw.ctrl list =
  (* body of an outer FlatMap tile iteration: leading copies then the
     inner (leaf) FlatMap writing the FIFO *)
  match e with
  | Let (s, Copy c, rest) ->
      let ctx', load = bind_copy ctx s c in
      load :: lower_flatmap_body ctx' rest ~fifo
  | e -> [ lower_leaf ctx ~defines:[ fifo ] "filter" e ]

and lower_value ctx e ~dest : Hw.ctrl list =
  match e with
  | _ when is_leaf e -> lower_leaf_value ctx e ~dest
  | Fold f -> lower_fold ctx f ~dest
  | MultiFold mf -> lower_multifold ctx mf ~dest
  | FlatMap fm -> lower_flatmap ctx fm ~dest
  | GroupByFold g -> lower_groupbyfold ctx g ~dest
  | Map m ->
      (* non-leaf Map: loop over its domain with staged body *)
      let bprov = node_prov ctx m.mprov in
      let ctx' = under_prov ctx bprov in
      let stages = lower_stages ctx' m.mbody ~dest in
      [ loop ctx bprov "map_loop" (List.map (trip_of_dom ctx) m.mdims) stages ]
  | Let _ -> lower_stages ctx e ~dest
  | e ->
      (* fallback: treat as one pipe *)
      [ lower_leaf ctx ~defines:(dest_defines dest) "pipe" e ]

and dest_defines = function Onchip names -> names | Dram_arr _ -> []

and lower_leaf_value ctx e ~dest : Hw.ctrl list =
  match (e, dest) with
  | MultiFold ({ oouts = _ :: _ :: _; _ } as mf), Onchip names
    when List.length mf.oouts = List.length names ->
      (* one pipe per accumulator component, running in parallel
         (Fig. 6's Pipe 3 / Pipe 4) *)
      let bprov = node_prov ctx mf.oprov in
      let ctx = under_prov ctx bprov in
      (* the shared bindings (e.g. minDistIndex) are computed by the first
         pipe; the others consume the value, so they carry neither the
         shared trips nor the shared operations *)
      let pipes =
        List.mapi
          (fun i (out, name) ->
            lower_leaf ctx ~defines:[ name ] ("update_" ^ name)
              (MultiFold
                 { mf with
                   olets = (if i = 0 then mf.olets else []);
                   oouts = [ out ] }))
          (List.combine mf.oouts names)
      in
      let name = fresh_name ctx "par" in
      [ Hw.Par { name; children = pipes; prov = Prov.push bprov name } ]
  | _, Onchip names -> [ lower_leaf ctx ~defines:names "pipe" e ]
  | _, Dram_arr arr ->
      (* leaf computing a DRAM-resident value: pipe into a staging buffer
         then store (used for whole-result leaves) *)
      let bprov = node_prov ctx (exp_prov e) in
      let ctx = under_prov ctx bprov in
      let stage_mem =
        alloc_mem ctx ~name:(next_name ctx "stage") ~kind:Hw.Buffer ~width:32
          ~depth:1024 ~banked:true
      in
      let pipe = lower_leaf ctx ~defines:[ stage_mem ] "pipe" e in
      [ pipe;
        tile_store ctx bprov ~mem:(Some stage_mem) ~array:arr
          (stored_words ctx e) ]

and lower_fold ctx ({ fdims; finit; facc; fupd; fprov; _ } as f)
    ~dest : Hw.ctrl list =
  let bprov = node_prov ctx fprov in
  let ctx = under_prov ctx bprov in
  let acc_names =
    match dest with
    | Onchip names -> names
    | Dram_arr _ ->
        alloc_staged ctx "acc" (binder_type ctx facc) finit ~depth:1024
          ~dram_name:(fun () -> next_name ctx "acc")
  in
  let ctx_b = add_buf ctx facc acc_names in
  let body =
    match strip_comb_wrapper facc fupd with
    | Some inner -> inner
    | None -> fupd
  in
  let stages = lower_stages ctx_b body ~dest:(Onchip acc_names) in
  let fold_loop =
    loop ctx bprov "fold_loop" (List.map (trip_of_dom ctx) fdims) stages
  in
  match dest with
  | Onchip _ -> [ fold_loop ]
  | Dram_arr arr ->
      (* result lives in DRAM: store the accumulator at the end *)
      [ fold_loop;
        tile_store ctx bprov ~mem:(List.nth_opt acc_names 0) ~array:arr
          (stored_words ctx (Fold f)) ]

and lower_multifold ctx
    ({ odims; oidxs; oinit; olets; oouts; ocomb; oprov; _ } as mf) ~dest :
    Hw.ctrl list =
  let bprov = node_prov ctx oprov in
  let ctx = under_prov ctx bprov in
  match dest with
  | Onchip names ->
      (* on-chip accumulator: stage the shared bindings, then the updates *)
      (* register accumulator buffers under a synthetic symbol so update
         pipes record them as uses via defines only *)
      let ctx_i, let_stages =
        List.fold_left
          (fun (c, acc) (s, rhs) ->
            match rhs with
            | Copy cp ->
                let c, load = bind_copy c s cp in
                (c, load :: acc)
            | _ when is_pattern rhs ->
                let t = binder_type c s in
                let bnames =
                  alloc_staged c (Sym.name s) t (init_hint_of rhs) ~depth:1024
                    ~dram_name:(fun () -> Sym.name s)
                in
                let stage = lower_value c rhs ~dest:(Onchip bnames) in
                (add_buf c s bnames, List.rev stage @ acc)
            | _ -> (c, acc))
          (ctx, []) olets
      in
      let let_stages = List.rev let_stages in
      let residual_olets =
        List.filter
          (fun (s, rhs) ->
            (not (is_pattern rhs))
            && (match rhs with Copy _ -> false | _ -> true)
            && Option.is_none (find_sym s ctx_i.bufs))
          olets
      in
      let upd_stage =
        lower_leaf_value ctx_i
          (MultiFold { mf with olets = residual_olets; odims; oidxs })
          ~dest:(Onchip names)
      in
      [ loop ctx bprov "mf_loop" (List.map (trip_of_dom ctx) odims)
          (let_stages @ upd_stage) ]
  | Dram_arr arr -> (
      (* DRAM-resident accumulator: per-iteration region stores (plus
         load+merge when a combine makes it a read-modify-write) *)
      match oouts with
      | [ out ] ->
          let ctx_i, let_stages = bind_copies ctx olets in
          let elt =
            match Validate.type_of ctx.types oinit with
            | Ty.Array (elt, _) -> elt
            | t -> t
          in
          let staging =
            alloc_mem ctx_i ~name:(next_name ctx "region")
              ~kind:Hw.Buffer ~width:(width_of_ty elt)
              ~depth:(region_depth out.oregion) ~banked:true
          in
          let words = region_words ctx_i out.oregion in
          let compute =
            if is_leaf out.oupd then
              [ lower_leaf ctx_i ~defines:[ staging ] "pipe" out.oupd ]
            else lower_value ctx_i out.oupd ~dest:(Onchip [ staging ])
          in
          let rmw =
            match ocomb with
            | None -> []
            | Some _ ->
                [ tile_load ctx bprov ~mem:staging ~array:arr ~reuse:1 words ]
          in
          let store =
            tile_store ctx bprov ~mem:(Some staging) ~array:arr words
          in
          (* Forwarding path (Section 5): loop dimensions the accumulator
             region does not index are pushed into an inner loop, so the
             staging buffer carries the region across those iterations and
             the read-modify-write traffic happens only when the region
             actually changes. *)
          let dim_idx = List.combine odims oidxs in
          let deps =
            List.fold_left
              (fun acc (off, len, _) ->
                Sym.Set.union acc
                  (Sym.Set.union (Ir.free_vars off) (Ir.free_vars len)))
              Sym.Set.empty out.oregion
          in
          let rec split_suffix rev_pairs inner =
            match rev_pairs with
            | (d, ix) :: rest when not (Sym.Set.mem ix deps) ->
                split_suffix rest ((d, ix) :: inner)
            | _ -> (List.rev rev_pairs, inner)
          in
          let outer, inner = split_suffix (List.rev dim_idx) [] in
          (* Profitability: hoisting pays when the accumulator round-trip
             is at least comparable to the per-iteration input copies it
             would otherwise share the loop with; when copies dominate,
             the nested controller only costs cross-stage overlap. *)
          let copy_words_bound =
            List.fold_left
              (fun acc (s, rhs) ->
                match rhs with
                | Copy _ ->
                    let names =
                      Option.value (find_sym s ctx_i.bufs) ~default:[]
                    in
                    List.fold_left
                      (fun a n ->
                        match
                          List.find_opt
                            (fun (m, _) -> m.Hw.mem_name = n)
                            !(ctx.mems)
                        with
                        | Some (m, _) -> a + m.Hw.depth
                        | None -> a)
                      acc names
                | _ -> acc)
              0 olets
          in
          let region_static = region_depth out.oregion in
          let trips dims = List.map (fun (d, _) -> trip_of_dom ctx d) dims in
          if
            rmw <> [] && inner <> [] && outer <> []
            && 2 * region_static >= copy_words_bound
          then
            let inner_loop =
              loop ctx bprov "mf_inner" (trips inner) (let_stages @ compute)
            in
            [ loop ctx bprov "mf_loop" (trips outer)
                (rmw @ [ inner_loop ] @ [ store ]) ]
          else
            [ loop ctx bprov "mf_loop" (List.map (trip_of_dom ctx) odims)
                (let_stages @ rmw @ compute @ [ store ]) ]
      | _ ->
          (* multi-output DRAM accumulator: not produced by the pipeline *)
          [ lower_leaf ctx ~defines:[] "pipe" (MultiFold mf) ])

and lower_flatmap ctx ({ fmdim; fmbody; fmprov; _ } as fm) ~dest :
    Hw.ctrl list =
  let bprov = node_prov ctx fmprov in
  let ctx = under_prov ctx bprov in
  let fifo =
    match dest with
    | Onchip (n :: _) -> n
    | _ ->
        alloc_mem ctx ~name:(next_name ctx "fifo") ~kind:Hw.Fifo ~width:32
          ~depth:4096 ~banked:false
  in
  if is_leaf (FlatMap fm) then [ lower_leaf ctx ~defines:[ fifo ] "filter" (FlatMap fm) ]
  else
    let stages = lower_flatmap_body ctx fmbody ~fifo in
    [ loop ctx bprov "fm_loop" [ trip_of_dom ctx fmdim ] stages ]

and lower_groupbyfold ctx g ~dest : Hw.ctrl list =
  let bprov = node_prov ctx g.gprov in
  let ctx = under_prov ctx bprov in
  let cam =
    match dest with
    | Onchip (n :: _) -> n
    | _ ->
        alloc_mem ctx ~name:(next_name ctx "cam") ~kind:Hw.Cam ~width:64
          ~depth:1024 ~banked:false
  in
  match g.gdims with
  | (Dtiles _ as od) :: rest when rest <> [] ->
      let ctx', loads = bind_copies ctx g.glets in
      let residual =
        List.filter
          (fun (s, _) -> Option.is_none (find_sym s ctx'.bufs))
          g.glets
      in
      let inner =
        GroupByFold { g with gdims = rest; gidxs = List.tl g.gidxs; glets = residual }
      in
      let stages =
        loads @ [ lower_leaf ctx' ~defines:[ cam ] "cam" inner ]
      in
      [ loop ctx bprov "gbf_loop" [ trip_of_dom ctx od ] stages ]
  | _ -> [ lower_leaf ctx ~defines:[ cam ] "cam" (GroupByFold g) ]

(* ------------------------------ top ------------------------------- *)

(* The lowered design with every parallelism-dependent field at 1, and
   which of its memories are banked by the parallelism factor, in the
   order of [design.mems]. *)
type shaped = { design : Hw.design; banked : bool list }

let lower_design opts types (p : program) =
  let rec bound e =
    match e with
    | Ci c -> Some c
    | Var s -> Ir.max_sizes_bound p s
    | Prim (Mul, [ a; b ]) -> (
        match (bound a, bound b) with
        | Some x, Some y -> Some (x * y)
        | _ -> None)
    | Prim (Min, [ a; b ]) -> (
        (* a tile-tail extent: bounded by either operand *)
        match (bound a, bound b) with
        | Some x, Some y -> Some (Int.min x y)
        | Some x, None | None, Some x -> Some x
        | None, None -> None)
    | Prim (Add, [ a; Ci c ]) -> Option.map (fun x -> x + c) (bound a)
    | _ -> None
  in
  let ctx =
    { opts;
      types;
      bound;
      ishapes = List.map (fun i -> (i.iname, i.ishape)) p.inputs;
      bufs = [];
      dram = List.map (fun i -> (i.iname, Sym.base i.iname)) p.inputs;
      mems = ref [];
      caches = Hashtbl.create 8;
      dyn_lens = [];
      names = { count = 0; taken = Hashtbl.create 64 };
      prov = Prov.root (p.pname ^ "/top") }
  in
  (* the program result: on-chip if it fits (then stored once at the end),
     DRAM-resident otherwise (stores happen inside the loops) *)
  let rec final_exp = function Let (_, _, rest) -> final_exp rest | e -> e in
  let fexp = final_exp p.body in
  let result_ty = Validate.type_of ctx.types fexp in
  let fits =
    match fexp with
    | Map m ->
        (match
           shape_words ctx (List.map Ir.dom_size m.mdims)
         with
        | Some w -> w * (width_of_ty result_ty / 32) <= Split_cost.budget_words
        | None -> false)
    | Fold { finit; _ } -> (
        match init_shapes finit with
        | [ Some shape ] -> (
            match shape_words ctx shape with
            | Some w -> w <= Split_cost.budget_words
            | None -> false)
        | _ -> true)
    | MultiFold { oinit; _ } -> (
        match init_shapes oinit with
        | shapes when List.for_all Option.is_some shapes -> (
            match
              List.fold_left
                (fun acc sh ->
                  match (acc, shape_words ctx (Option.get sh)) with
                  | Some a, Some w -> Some (a + w)
                  | _ -> None)
                (Some 0) shapes
            with
            | Some w -> w <= Split_cost.budget_words
            | None -> false)
        | _ -> false)
    | _ -> true
  in
  let stages =
    if fits then begin
      let names =
        alloc_staged ctx "result" result_ty (init_hint_of fexp) ~depth:1024
          ~dram_name:(fun () -> "result")
      in
      let body_stages = lower_stages ctx p.body ~dest:(Onchip names) in
      body_stages
      @ [ tile_store ctx (node_prov ctx (exp_prov fexp))
            ~mem:(List.nth_opt names 0) ~array:"result"
            (stored_words ctx fexp) ]
    end
    else lower_stages ctx p.body ~dest:(Dram_arr "result")
  in
  let top =
    Hw.Seq { name = p.pname ^ "_top"; children = stages; prov = ctx.prov }
  in
  let mems, banked = List.split (List.rev !(ctx.mems)) in
  let design =
    Metapipe.finalize { Hw.design_name = p.pname; mems; top; par_factor = 1 }
  in
  (* finalizing maps the memories in order, so the flags still line up *)
  { design; banked }

let lower_pass = Trace.pass "lower"

let shape opts c =
  (* a program built without Tiling arrives unstamped; a Tiling output
     is stamped throughout, as its check saw *)
  let p = Prov_stamp.program c in
  lower_pass
    ~args:(fun s ->
      let d = s.design in
      [ ("program", Trace.Str d.Hw.design_name);
        ( "controllers",
          Trace.Int (Hw.fold_ctrls (fun n _ -> n + 1) 0 d.Hw.top) );
        ("mems", Trace.Int (List.length d.Hw.mems));
        ("meta", Trace.Str (if opts.meta then "true" else "false")) ])
    (fun () -> lower_design opts (Validate.table c) p)

let rec bind_ctrl par (c : Hw.ctrl) =
  match c with
  | Hw.Pipe r -> Hw.Pipe { r with par }
  | Hw.Seq r -> Hw.Seq { r with children = List.map (bind_ctrl par) r.children }
  | Hw.Par r -> Hw.Par { r with children = List.map (bind_ctrl par) r.children }
  | Hw.Loop r -> Hw.Loop { r with stages = List.map (bind_ctrl par) r.stages }
  | Hw.Tile_load _ | Hw.Tile_store _ -> c

let bind par { design; banked } =
  if par < 1 then
    invalid_arg (Printf.sprintf "Lower.bind: par %d is below 1" par);
  let mems =
    List.map2
      (fun m banked -> if banked then { m with Hw.banks = par } else m)
      design.Hw.mems banked
  in
  { design with Hw.mems; top = bind_ctrl par design.Hw.top; par_factor = par }

let program opts p = bind opts.par (shape opts (Validate.check_program p))
