(** Automated tile-size selection by design-space exploration.

    The paper requires user-specified tile sizes and names this as future
    work (Section 4: "tile sizes for all pattern dimensions will instead
    be determined by the compiler through automated tile size selection
    using modeling and design space exploration").  This module implements
    that loop: enumerate candidate tile assignments, compile each through
    the full tiling + hardware-generation pipeline, evaluate with the
    performance and area models, discard points over the on-chip memory
    budget, and return the Pareto-best point.

    Every point is an independent compile + simulate chain, so the sweep
    fans out across OCaml 5 domains ({!Pool}).  Results are deterministic:
    any [?domains] value returns the identical [points] list and [best]
    point (same order, same floats) as a sequential run. *)

type point = {
  tiles : (Sym.t * int) list;
  par : int;  (** vector-lane / tree-leaf parallelism factor *)
  cycles : float;
  area : Area_model.t;
  feasible : bool;
      (** finite cycles, within the block-RAM budget and the chip *)
}

type skip = {
  sk_tiles : (Sym.t * int) list;  (** the rejected tile assignment *)
  sk_reason : string;  (** why tiling rejected it *)
}

type result = {
  points : point list;  (** all evaluated points, fastest first *)
  best : point option;  (** fastest feasible point *)
  skipped : skip list;
      (** candidate assignments the tiling pipeline rejected — reported,
          never silently dropped *)
}

val explore_joint :
  ?domains:int ->
  ?machine:Machine.t ->
  ?bram_budget:float ->
  prog:Ir.program ->
  candidates:(Sym.t * int list) list ->
  pars:int list ->
  sizes:(Sym.t * int) list ->
  unit ->
  result
(** Joint tile-size and parallelism-factor exploration: the cartesian
    product of the per-parameter candidate tile sizes and the [pars]
    values, a repeated par counting once (at its first occurrence), each
    point lowered with {!Lower.default_opts} at its par.  Default budget:
    2560 M20K blocks (a Stratix V).  Feasibility also checks chip
    capacity (logic/FF), which parallelism spends.  [?domains] bounds the
    evaluation pool (default: {!Pool.default_domains}; [1] =
    sequential).

    The tile-independent tiling stages ({!Tiling.front}) run once per
    call; each assignment then runs {!Tiling.tiled} and {!Lower.shape}
    once, and {!Lower.bind} once per par.  Candidate
    assignments that the tiling pipeline itself rejects
    ([Invalid_argument] or {!Validate.Type_error}, with the reasons
    [Tiling.run] gives) are recorded in [skipped]; any other exception
    — a genuine bug in [Lower], [Simulate] or [Area_model] — propagates
    to the caller.

    @raise Invalid_argument if any of [pars] is below 1, before any
    work is done. *)

val explore_bench :
  ?domains:int -> ?bram_budget:float -> ?pars:int list -> Suite.bench -> result
(** Convenience: power-of-two candidates around the benchmark's default
    tile configuration (the default size itself is always a candidate),
    evaluated at its simulation sizes.  [pars] defaults to the single
    default parallelism factor. *)

val print_result : result -> unit
