(** The hardware IR: parameterizable templates (Table 4) composed into a
    hierarchical design.

    Memories model on-chip storage (buffers, double buffers, caches,
    FIFOs, CAMs, registers); controllers model execution (sequential,
    parallel, metapipeline, tile load/store units, pipelined compute).
    The design is the compilation target of {!Lower}, the input of the
    cycle simulator ({!Simulate}) and the area model ({!Area_model}), and
    what {!Maxj} prints as hardware-generation-language text. *)

(** {1 Memories} *)

type mem_kind =
  | Buffer  (** on-chip scratchpad for a statically sized array *)
  | Double_buffer  (** buffer coupling two metapipeline stages *)
  | Cache  (** tagged memory for non-affine main-memory accesses *)
  | Fifo  (** ordered dynamic-size stream (FlatMap output) *)
  | Cam  (** fully associative key-value store (GroupByFold) *)
  | Reg  (** scalar register or small register file *)

type mem = {
  mem_name : string;
  kind : mem_kind;
  width_bits : int;  (** element width *)
  depth : int;  (** static element capacity *)
  banks : int;  (** banking factor for parallel access *)
  readers : int;  (** read ports: see {!port_counts} *)
  writers : int;  (** write ports *)
  mem_prov : Prov.t;  (** source pattern the buffer serves; metadata only *)
}

(** {1 Iteration counts}

    Controllers carry symbolic trip counts evaluated at simulation time
    against concrete size-parameter values.  A [Dtail] domain's data-
    dependent extent is modeled by its average ([total / ceil(total/tile)]),
    which is exact whenever the tile divides the extent. *)

type trip =
  | Tconst of float
  | Tsize of Sym.t  (** a size parameter *)
  | Tceil_div of trip * int
  | Tavg_tail of { total : trip; tile : int }  (** average tile extent *)
  | Tmul of trip * trip
  | Tscale of float * trip  (** e.g. FIFO consumer rate = selectivity x n *)

val trip_eval : (Sym.t * int) list -> trip -> float
val trip_product : trip list -> trip

val add_trip : Buffer.t -> trip -> unit
(** The one text of a trip count, shared by {!Maxj}, {!Hw_pp}, {!Dot}
    and {!Hw_lint}: an integral constant as C's [%.0f]
    ({!Json_out.add_float} at precision 0), a fractional one, nan, ±inf
    and a [Tscale] factor as [%g] ({!Json_out.add_general} at precision
    6), a size as {!Sym.name}, [Tceil_div (t, b)] as [ceil(t/b)],
    [Tavg_tail] as [avg(total@tile)], [Tmul (a, b)] as [a*b] and
    [Tscale (f, t)] as [f*t]. *)

(** {1 Direct DRAM traffic}

    A pipe that reads main memory directly (untiled baseline designs, and
    non-affine accesses) records, per enclosing loop from outermost to
    innermost, whether the access address depends on that loop.  The
    simulator charges re-reads for address-independent loops only when the
    data footprint under them exceeds one DRAM burst — the paper's
    baseline exploits exactly single-burst locality (Section 6.1). *)

type dram_access = {
  da_array : string;  (** source array *)
  da_path : (trip * bool) list;
      (** enclosing loops, outermost first; [true] = address depends on it *)
  da_contiguous : bool;
      (** whether the innermost address-varying loop walks unit stride;
          non-contiguous accesses waste most of each DRAM burst *)
  da_affine : bool;
      (** [false] for data-dependent addresses (k-means' minDistIndex,
          GDA's label-indexed mean) *)
  da_row_words : trip;
      (** length of one contiguous run (the innermost dependent extent) *)
  da_kind : [ `Read | `Write | `Cached ];
      (** [`Cached] accesses go through an allocated cache memory *)
}

(** {1 Controllers} *)

type pipe_template =
  | Vector  (** SIMD map over scalars *)
  | Tree  (** pipelined reduction tree *)
  | Fifo_write  (** FlatMap over scalars feeding a FIFO *)
  | Cam_update  (** GroupByFold over scalars updating a CAM *)
  | Scalar_unit  (** straight-line scalar datapath *)

type op_counts = {
  flops : int;  (** floating point operations per innermost iteration *)
  int_ops : int;
  cmp_ops : int;
  mem_reads : int;  (** on-chip buffer reads per iteration *)
  mem_writes : int;
}

type ctrl =
  | Seq of { name : string; children : ctrl list; prov : Prov.t }
      (** sequential controller: children run one after another *)
  | Par of { name : string; children : ctrl list; prov : Prov.t }
      (** task-parallel controller: children run simultaneously *)
  | Loop of {
      name : string;
      trips : trip list;
      meta : bool;
      stages : ctrl list;
      prov : Prov.t;
    }
      (** loop controller over an iteration domain; [meta] selects the
          metapipeline schedule (stages overlap across iterations through
          double buffers) versus plain sequential iteration *)
  | Pipe of {
      name : string;
      trips : trip list;  (** iteration space, including fused inner dims *)
      template : pipe_template;
      par : int;  (** innermost parallelism factor (>= 1) *)
      depth : int;  (** pipeline fill latency in cycles *)
      ii : int;  (** initiation interval *)
      ops : op_counts;
      body : Ir.exp option;
      dram : dram_access list;  (** direct main-memory traffic *)
      uses : string list;  (** on-chip memories read *)
      defines : string list;  (** on-chip memories written *)
      prov : Prov.t;
    }
  | Tile_load of {
      name : string;
      mem : string;  (** destination on-chip buffer *)
      array : string;  (** source DRAM array *)
      words : trip;  (** words moved per invocation *)
      path : (trip * bool) list;  (** enclosing loops (for traffic totals) *)
      reuse : int;  (** overlap reuse factor (>= 1): words / reuse hit DRAM *)
      prov : Prov.t;
    }
  | Tile_store of {
      name : string;
      mem : string option;  (** source buffer, if the value lives on-chip *)
      array : string;  (** destination DRAM array *)
      words : trip;
      path : (trip * bool) list;
      prov : Prov.t;
    }

type design = {
  design_name : string;
  mems : mem list;
  top : ctrl;
  par_factor : int;  (** the innermost parallelism applied uniformly *)
}

val ctrl_name : ctrl -> string

val ctrl_prov : ctrl -> Prov.t
(** Provenance carried by any controller node (metadata, never semantics). *)

val with_prov : ctrl -> Prov.t -> ctrl
(** Rebuild a controller with new provenance, leaving everything else. *)

val iter_ctrls : (ctrl -> unit) -> ctrl -> unit
(** Pre-order visit of the controller tree. *)

val fold_ctrls : ('a -> ctrl -> 'a) -> 'a -> ctrl -> 'a

val iter_ctrls_path : (string list -> ctrl -> unit) -> ctrl -> unit
(** Pre-order visit carrying the names of the enclosing controllers,
    outermost first (the root is visited with [[]]). *)

val children : ctrl -> ctrl list

(** {1 Memory references}

    The one rule for which memories a controller touches.  It decides
    double-buffer promotion between metapipeline stages ({!Metapipe}),
    the dataflow and race checks ({!Hw_check}, {!Hw_lint}) and the
    port counts the area model prices. *)

val mem_refs : ctrl -> string list * string list
(** [(writes, reads)] of one node, not of its children: a [Pipe] writes
    its [defines] and reads its [uses], a [Tile_load] writes its [mem],
    a [Tile_store] reads its [mem] when it has one (a stream store names
    nothing), and [Seq]/[Par]/[Loop] reference nothing.  Duplicates are
    kept. *)

val subtree_refs : ctrl -> string list * string list
(** [(writes, reads)] of every node of a subtree, each list sorted and
    deduplicated. *)

val port_counts : ctrl -> string -> int * int
(** [port_counts top name] is [(readers, writers)] of memory [name]:
    one per occurrence of [name] in the reads, resp. the writes, of
    {!mem_refs} over every node of [top], so a name listed twice in one
    pipe's [uses] counts two reads.  [(0, 0)] for a name never
    referenced.  Apply it to a tree once and query it per name. *)

val count_ports : design -> design
(** The design with every memory's [readers]/[writers] set from
    {!port_counts} of its [top]; memories are matched by name. *)
