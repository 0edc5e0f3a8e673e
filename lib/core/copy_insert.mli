(** Tile-copy inference — the second strip-mining pass of Section 4.

    Every read of a program input whose indices are affine in the
    enclosing loop indices is rewritten to read from an explicitly copied
    tile.  Per dimension, the affine index splits into an {e offset} part
    (terms over strided [Dtiles] indices plus constants) and a {e local}
    part (terms over in-tile and unstrided indices); the copy covers
    [offset .. offset + extent(local)), and overlapping local terms
    (sliding windows) set the copy's reuse factor.

    The copy is hoisted to its natural location at insertion time: just
    inside the pattern binding the deepest strided index its offsets
    mention, or — when the offsets mention none, i.e. the whole (small)
    array is reused across all tiles — to the top of the program, which is
    exactly the k-means centroids preload of Fig. 6 (Pipe 0).  Identical
    copies are deduplicated, so e.g. GDA's two reads of the sample tile
    share one buffer.

    Reads with any non-affine index (k-means' scatter at [minDistIndex],
    GDA's [mu(y(i), _)]) are left untouched; hardware generation later
    serves them with caches/CAMs (Table 4).

    Copies are only introduced when the tile's size is statically known
    to fit the on-chip budget. *)

val program : ?budget_words:int -> Ir.program -> Ir.program
(** The budget defaults to {!Split_cost.budget_words}, the only value the
    library passes; tests set a tiny one to reach the over-budget path. *)

type stats = {
  copies : int;  (** distinct tile copies created *)
  rewritten_reads : int;  (** input reads redirected to tiles *)
  skipped_nonaffine : int;  (** reads left for caches *)
}

val program_with_stats :
  ?budget_words:int -> Ir.program -> Ir.program * stats
