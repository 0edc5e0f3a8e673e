(** The split heuristic of Section 4: imperfectly nested patterns are
    split (fissioned) before interchange only when the intermediate
    result created by the split is statically known to fit on-chip. *)

val budget_words : int
(** The on-chip budget: 2^18 words (1 MB of 32-bit elements — a fraction
    of a Stratix V's on-chip RAM, leaving room for the data tiles).
    {!Interchange} splits, {!Copy_insert} copies tiles and {!Lower} keeps
    accumulators and buffers on-chip within it. *)

val width_words : Ty.t -> int
(** On-chip words per element: scalars are one word, tuples the sum of
    their components.
    @raise Invalid_argument on array types (not a buffer element). *)

val dom_bound : bound:(Ir.exp -> int option) -> Ir.dom -> int option
(** Static upper bound on a domain's iteration count: the tile size for
    [Dtail], [ceil(bound/tile)] for [Dtiles], [bound] of the size
    expression for [Dfull]. *)

val intermediate_fits :
  budget_words:int ->
  bound:(Ir.exp -> int option) ->
  Ir.dom list ->
  Ty.t ->
  bool
(** Would an intermediate of the given element type, with one element per
    iteration of the given domains, fit in the on-chip budget? [false]
    when any extent has no static bound. *)
