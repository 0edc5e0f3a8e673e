(** Hardware generation: lower a (tiled or untiled) PPL program to a
    hardware design built from the templates of Table 4.

    Mapping, following Section 5:
    - statically sized arrays (tile copies, on-chip accumulators, split
      intermediates) become buffers; tile copies additionally get a tile
      load unit;
    - innermost patterns over scalars become pipelined execution units
      (Map -> vector unit, Fold/MultiFold -> reduction tree, FlatMap ->
      FIFO writer, GroupByFold -> CAM updater);
    - outer patterns become loop controllers whose bodies are decomposed
      into stages (one per shared binding, tile copy, and accumulator
      update); with metapipelining enabled the controller schedules the
      stages as a metapipeline and stage-coupling buffers are promoted to
      double buffers ({!Metapipe});
    - a MultiFold tiled into a fold of MultiFolds is detected as the
      paper's redundant-accumulation case: the inner MultiFold writes the
      outer accumulator directly and no intermediate buffer or merge
      stage is emitted;
    - accumulators whose static bound exceeds the on-chip budget live in
      DRAM: non-unit update regions get a staging buffer plus a tile
      store (and a load + merge for read-modify-write combines);
    - remaining main-memory reads (non-affine accesses) are served by
      caches when [cache_leftover] is set (tiled designs), or counted as
      direct burst traffic (the baseline);
    - a binding nothing reads (the source linter's dead binding) lowers
      to no memory and no stage.

    Controller and memory names are one namespace: a design never holds
    two objects of the same name.  Minted names are [<base>_<n>], with
    [n] counting up through the walk; a source symbol's name
    ([<base>_<id>]) is used as is unless it was handed out before, and
    then takes a fresh [_<n>] suffix, as does a minted name a source
    symbol took first. *)

type opts = {
  meta : bool;  (** generate metapipeline schedules *)
  par : int;  (** innermost parallelism factor (constant across configs) *)
  cache_leftover : bool;  (** allocate caches for non-affine reads *)
  fifo_rate : float;  (** expected FlatMap output rate (elements/input) *)
}

val default_opts : opts
(** [meta = true], [par = 16], caches on, rate 0.05.  Accumulators and
    buffers are sized against {!Split_cost.budget_words}. *)

val baseline_opts : opts
(** The Section 6.1 baseline: no metapipelining, no caches — burst-level
    locality only.  Same parallelism factor. *)

(** {1 Shape, then bind}

    The parallelism factor is a template parameter (Table 4): it sets how
    many lanes each pipe has and how many banks its buffers get, but no
    structural decision reads it.  Lowering is therefore split in two: a
    par-free {!shape}, done once per program, and a cheap {!bind} per
    parallelism factor. *)

type shaped
(** A lowered, metapipelined design whose parallelism factor is not yet
    bound, with a record of which memories are banked by it. *)

val shape : opts -> Validate.checked -> shaped
(** Lower a checked program, stamping source-pattern provenance
    ({!Prov_stamp}) first unless its check saw every pattern stamped, as
    on any {!Tiling} output.  [opts.par] is ignored.  The lowering is
    timed as the [pass.lower] metric and, when tracing is on, recorded as
    a ["lower"] span.

    {!Tiling} checks both forms the configurations lower: [fused] once
    per program and [tiled] once per tile point.  [shape] neither checks
    nor walks the program for binders: it looks each binder's type up in
    the check's {!Validate.table} and synthesizes the result type with
    {!Validate.type_of}. *)

val bind : int -> shaped -> Hw.design
(** [bind par s] is the design of [s] at parallelism factor [par]: every
    pipe's [par] and the design's [par_factor] are [par], and the banked
    memories get [par] banks (all others keep one).
    @raise Invalid_argument if [par] is below 1. *)

val program : opts -> Ir.program -> Hw.design
(** [program opts p] is [bind opts.par (shape opts (Validate.check_program p))].
    @raise Validate.Type_error if [p] is ill-typed.
    @raise Invalid_argument if [opts.par] is below 1. *)
