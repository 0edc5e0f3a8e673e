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

val program : Validate.checked -> tiles:(Sym.t * int) list -> Ir.program
(** [program c ~tiles] strip mines every pattern of [c]'s program whose
    domain size is [Var s] for some [(s, b)] in [tiles].  The program is
    not checked again: a rule that needs a type synthesizes it under the
    check's {!Validate.table}, so a sweep that passes [program c] every
    tile configuration types the fused form once, in its check. *)
