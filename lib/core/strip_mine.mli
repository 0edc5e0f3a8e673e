(** Strip mining of parallel patterns (Table 1 of the paper).

    Every pattern whose domain ranges over a tiled size parameter is split
    into a strided loop over tiles and an unstrided loop over one tile:

    - [Map] becomes a [MultiFold] over tiles whose update writes a
      rectangular region with an inner [Map] over the tile (the outer
      MultiFold writes each location once — its combine is the paper's
      underscore);
    - [Fold] nests into a strided fold of per-tile folds, merged with the
      original combine function;
    - [MultiFold] with a combine either {e localizes} the accumulator to
      the tile (when every update targets exactly the tiled index and the
      combine is elementwise — Table 2's sumrows) or falls back to a
      strided [Fold] of per-tile MultiFolds (k-means, Fig. 5a);
    - [FlatMap] nests into a FlatMap of FlatMaps;
    - [GroupByFold] and combine-less [MultiFold]s take the equivalent
      flattened form, their domain list extended with [Dtiles; Dtail]
      pairs (Section 3's perfect-nesting equivalence).

    Tile copies are {e not} introduced here; that is the second pass
    ({!Copy_insert}), run after pattern interchange. *)

val program : Ir.program -> tiles:(Sym.t * int) list -> Ir.program
(** [program p ~tiles] strip mines every pattern of [p] whose domain size
    is [Var s] for some [(s, b)] in [tiles].  [p] must already have passed
    {!Validate.check_program}: {!Tiling} checks the fused form it passes
    here once per sweep, and checks the strip-mined result.  [p] is not
    re-checked: [program p] builds [p]'s {!Validate.binder_types} once
    and strip mines [p] at every tile configuration it is then given, so
    a sweep types the fused form once.
    On an ill-typed [p] the result is unspecified. *)
