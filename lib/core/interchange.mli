(** Pattern interchange (Section 4): move strided (tile) loops out of
    unstrided loops to increase the reuse of tiled inputs.

    Two transformations, applied bottom-up to a strip-mined program:

    - {b Interchange} (the Collect/Reduce-derived rule): an unstrided
      [Map] whose body is a strided [Fold] over tiles becomes a strided
      [Fold] whose update is a [Map] — the tile loaded by the fold's body
      is then reused across all Map elements (Table 3's gemm; k-means'
      centroids tile, Fig. 5b).  The fold's combine function is lifted
      elementwise over the Map domain.

    - {b Interchange, inverse rule}: an unstrided [Fold] whose update is a
      strided no-reduction [MultiFold] (the outer pattern of a tiled Map)
      becomes a strided MultiFold of per-slice folds, provided every
      accumulator read targets the element being written (checked by
      affine equality against [offset + inner index]) and the combine is
      elementwise.

    - {b Split}: an imperfectly nested [MultiFold] whose shared binding
      contains a strided fold is fissioned into a [Map] producing the
      per-element intermediate plus a [MultiFold] reading it, exposing a
      perfect nest for interchange.  Applied only when the intermediate
      fits on-chip ({!Split_cost}), trading buffer space for main-memory
      reads exactly as Section 4 describes. *)

val program : ?budget_words:int -> Validate.checked -> Ir.program
(** The budget defaults to {!Split_cost.budget_words}, the only value the
    library passes; tests set a tiny one to reach the over-budget path.
    The program is not checked again ({!Tiling} checks the strip-mined
    form it passes here).  A rule that needs a type synthesizes it with
    {!Validate.type_of} under the check's {!Validate.table}, to which
    each rule adds, in place, the binders it mints: one table serves
    every fixpoint round and then holds every binder of the result. *)
