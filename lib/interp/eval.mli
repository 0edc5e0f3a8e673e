(** Reference interpreter for the PPL IR.

    Two modes:
    - [Sequential]: the textbook left-to-right semantics.
    - [Chunked c]: splits every reduction pattern's outermost domain into
      chunks of [c] iterations, evaluates each chunk into its own partial
      accumulator, and merges partials with the pattern's combine
      function — the execution model of a parallelized/tiled hardware
      implementation.  Agreement between the two modes validates that
      combine functions are correct, the property the tiling
      transformations of Section 4 rely on.
    - [Parallel c]: like [Chunked c], but the outermost reduction's chunks
      run on the domains of {!Pool} (a reduction nested in a chunk runs
      inline on its domain, by the pool's inline rule).  Produces
      bit-identical results to [Chunked c].  Not compatible with
      the {!with_hook} instrumentation. *)

type mode = Sequential | Chunked of int | Parallel of int

type env = Value.t Sym.Map.t

exception Eval_error of string

val eval : ?mode:mode -> env -> Ir.exp -> Value.t
(** @raise Eval_error on unbound symbols or dynamic type errors;
    @raise Ndarray.Shape_error on out-of-bounds accesses (a transformation
    bug, not a user error). *)

val eval_program :
  ?mode:mode ->
  Ir.program ->
  sizes:(Sym.t * int) list ->
  inputs:(Sym.t * Value.t) list ->
  Value.t
(** Evaluate a program's body with its size parameters and inputs bound.
    @raise Eval_error if a size parameter or input is missing. *)

val eval_int : ?mode:mode -> env -> Ir.exp -> int
(** Evaluate an expression expected to produce an [I _]. *)

val with_hook : (Sym.t -> int -> unit) -> (unit -> 'a) -> 'a
(** [with_hook h f] runs [f] with access instrumentation installed: [h s w]
    fires on every array access whose base is the variable [s] — [w = 1]
    for an element read, the region word count for a tile [Copy] (divided
    by the copy's reuse factor).  Not reentrant; used by {!Profile}. *)
