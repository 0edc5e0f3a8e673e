(** Source-level linter for the parallel pattern IR.

    Where {!Hw_lint} re-derives hazards on the finished design, this
    analyzer decides the same class of facts on the pattern IR itself —
    before any hardware exists — and reports them against the source
    pattern that caused them.  The properties are exactly the ones the
    paper's tiling story (Section 4) relies on: injectivity of
    MultiFold accumulator write maps (via {!Depend}), affine
    classification of every array access (tile buffer vs cache/CAM
    service, the generality claim over polyhedral tooling), and
    strip-mining legality.  Codes are stable and documented in
    [doc/LINTS.md]:

    - [PPL201] (error) — accumulator write race: non-injective write
      map on a parallelized dimension, or a combine-less MultiFold
      writing a cell more than once;
    - [PPL202] (warning) — order-dependent accumulation: non-injective
      writes across serial dimensions, or a fold update that never
      reads its accumulator;
    - [PPL203] (warning) — degenerate GroupByFold key: provably
      constant along the parallelized dimension (every lane updates
      the same bucket);
    - [PPL210/211/212] (info) — access classified affine /
      affine-modulo-loop-invariant / data-dependent, predicting
      tile-buffer vs cache service;
    - [PPL213] (error) — the prediction disagrees with the memories
      {!Lower} actually instantiated (a lint bug, surfaced by
      {!crosscheck});
    - [PPL220] — strip-mining blockers: a domain sized by a
      dynamically produced collection (info; served by FIFO streaming)
      or a loop-carried accumulator dependence (warning);
    - [PPL221] (warning) — hygiene: unused pattern indices, dead
      [Let] bindings;
    - [PPL222] — division/log/sqrt guards via the {!Bounds} interval
      machinery: error when provably violated, info when not provable.

    {!Bounds} itself reports [PPL230]/[PPL231] on the same
    {!Diagnostic} path. *)

val check_program : Ir.program -> Diagnostic.t list
(** All PPL2xx findings for the program (after {!Tiling.canonicalize_lens}),
    sorted with {!Diagnostic.compare}.  Does not include the {!Bounds}
    findings; see {!check_all}. *)

val check_all : Ir.program -> Diagnostic.t list
(** {!check_program} plus {!Bounds.check_program}, one sorted list —
    what [ppl-fpga lint-ir] prints. *)

type service =
  | Sequential  (** every index affine: tile buffer / sequential DRAM *)
  | Cached  (** some read has a non-affine index: cache-served *)

val crosscheck :
  cache_leftover:bool -> Ir.program -> Hw.design -> Diagnostic.t list
(** [crosscheck ~cache_leftover p d] compares the memory service the
    access classification predicts for each input of [p] (the program
    that was lowered), by {!Lower}'s own affinity rule, against the cache
    memories in [d]: a [Cached] prediction must correspond to an
    [<arr>_cache] memory exactly when [cache_leftover] is set, and a
    [Sequential] prediction to its absence.  Any disagreement is a [PPL213] error —
    the classification and the backend have diverged. *)
