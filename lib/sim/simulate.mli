(** Hierarchical cycle simulator for hardware designs.

    Every controller is reduced to (cycles, DRAM-busy cycles, per-array
    traffic), composing upward:
    - a pipe runs [fill + ceil(iterations / par)] compute cycles and
      overlaps its own streaming, so it costs the max of compute and its
      direct-DRAM time;
    - tile load/store units cost one request latency plus the streamed
      words at stream bandwidth;
    - [Seq] sums children, [Par] takes their max but sums their DRAM time
      (the memory system serializes);
    - a sequential [Loop] multiplies the per-iteration sum by its trip
      count; a metapipelined [Loop] pays one fill (the sum) and then a
      steady-state bottleneck per iteration — the slowest stage, but no
      less than the sum of the memory stages, which all share DRAM.

    Direct accesses follow the burst-reuse rule: walking the loop path
    outermost-in, an address-dependent loop multiplies traffic; an
    address-independent loop multiplies only when the footprint beneath it
    exceeds the stream cache.  Non-contiguous accesses amortize each burst
    over only [par] useful words; contiguous ones over a full burst.

    Fig. 5c's "minimum words read from main memory" is the [reads] side of
    the traffic report; Fig. 7's speedups are ratios of [cycles]. *)

type traffic = (string * float) list  (** array name -> words *)

type report = {
  cycles : float;
  dram_cycles : float;  (** cycles during which DRAM is busy *)
  reads : traffic;  (** words read per DRAM array *)
  writes : traffic;  (** words written per DRAM array *)
}

(** {1 Annotation}

    One bottom-up pass over a design gives every controller its
    per-invocation cost.  {!run}, {!breakdown}, {!bottlenecks}, the
    attribution profiler and the event engine's leaf costs are all read
    from it. *)

type xfer = {
  array : string;
  write : bool;
  words : float;  (** words moved per invocation *)
  cycles : float;  (** DRAM-busy cycles the transfer books *)
}
(** One DRAM transfer of a leaf: a pipe's direct access or a tile unit's
    load or store. *)

type words
(** per-invocation words, by DRAM array *)

val traffic : words -> traffic
(** ascending by array name *)

type steady = {
  slowest : int;  (** index of the first slowest stage *)
  fill : float;  (** one iteration of every stage: the sum of their cycles *)
  dram_sum : float;  (** the stages' summed DRAM-busy cycles *)
  rate : float;  (** cycles per steady-state iteration: the larger of the
                     slowest stage and [dram_sum] *)
  stage_bound : bool;  (** the slowest stage, not DRAM, sets [rate] *)
}

type annot = {
  ctrl : Hw.ctrl;
  cycles : float;  (** per invocation *)
  dram : float;  (** DRAM-busy cycles per invocation *)
  reads : words;
  writes : words;
  iters : float;
      (** times each child runs per invocation: a loop's trip product,
          at least 1; 1 for any other controller *)
  compute : float;  (** a pipe's compute cycles; 0 for any other *)
  xfers : xfer list;
      (** a pipe's direct accesses in order, or a tile unit's one
          transfer; [] for any other controller *)
  steady : steady option;
      (** present for a metapipelined loop of more than one stage, whose
          cycles are [fill + (iters - 1) * rate] *)
  children : annot list;
}

type cache
(** The last annotation made through it.  [simulate --breakdown
    --bottlenecks] asks for several reports of one design; sharing a
    cache builds its annotation once.  The slot is reused when the design
    is physically the same and the machine and sizes are equal, and
    replaced otherwise.  Cached calls return exactly what uncached ones
    return. *)

val cache : unit -> cache

type cache_stats = { hits : int; misses : int }
(** Lifetime totals: [misses] counts annotations built, [hits] counts
    annotations reused. *)

val cache_stats : cache -> cache_stats

val annotate :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  annot
(** The annotation of the design's top controller. *)

val run :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  report
(** The top controller's annotation as a report. *)

(** {1 Breakdown} *)

type breakdown_row = {
  br_name : string;
  br_depth : int;  (** nesting depth in the controller tree *)
  br_kind : string;  (** "metapipeline", "pipe", "tile-load", ... *)
  br_cycles : float;  (** per-invocation cycles of this controller *)
  br_invocations : float;  (** times it runs, given enclosing trips *)
}

val kind_of : Hw.ctrl -> string
(** Display kind of a controller ("metapipeline", "pipe/vector", ...). *)

val breakdown :
  ?cache:cache -> Hw.design -> sizes:(Sym.t * int) list -> breakdown_row list
(** Per-controller timing table, pre-order.  [br_cycles *.
    br_invocations] is each controller's total contribution (overlap in
    metapipelines means children can sum to more than the parent). *)

val pp_breakdown : Format.formatter -> breakdown_row list -> unit

(** {1 Bottlenecks}

    The analysis behind the paper's gda rebalancing (§6.2): for every
    metapipeline, which stage limits the steady state, and whether the
    limit is that stage's compute or the shared DRAM channel. *)

type bottleneck_row = {
  bn_loop : string;  (** metapipelined loop name *)
  bn_iters : float;  (** iterations at the given sizes *)
  bn_stage : string;  (** slowest stage *)
  bn_stage_cycles : float;  (** its per-iteration cycles *)
  bn_dram_sum : float;  (** sum of all stages' DRAM-busy cycles *)
  bn_bound : [ `Stage | `Dram ];  (** what sets the steady state *)
  bn_frac : float;  (** slowest-stage share of the steady state *)
}

val bottlenecks :
  ?cache:cache -> Hw.design -> sizes:(Sym.t * int) list -> bottleneck_row list

val pp_bottlenecks : Format.formatter -> bottleneck_row list -> unit

val read_words : report -> string -> float
(** Words read from the named array (0 if absent). *)

val written_words : report -> string -> float
val total_read : report -> float
val total_written : report -> float
val pp_report : Format.formatter -> report -> unit
