(** The collections front end — the paper's Fig. 3 surface syntax.

    Section 3 assumes "a high-level translation layer from user code to
    PPL exists" and shows k-means written against Scala collections
    (Fig. 3) before its fused PPL form (Fig. 4).  This module is that
    layer: collections are {e pull arrays} (a length plus an element
    generator), so [map]/[zip]/[slice] compose without materializing —
    vertical fusion by construction, exactly the producer–consumer fusion
    Delite performs — and the reductions emit the fused PPL patterns of
    Fig. 2.  [group_by_vector_sum] implements the Collect/Reduce fusion
    that turns Fig. 3's [groupBy + per-group reduce] into Fig. 4's
    scattering MultiFold.

    All functions build IR; nothing is evaluated here. *)

type elt = Ir.exp
(** a scalar expression *)

type vec
(** a symbolic one-dimensional collection *)

type mat
(** a symbolic two-dimensional collection *)

(** {1 Introduction} *)

val vec_of_input : Ir.input -> vec
(** @raise Invalid_argument if the input is not one-dimensional. *)

val mat_of_input : Ir.input -> mat
(** @raise Invalid_argument if the input is not two-dimensional. *)

val vec_tabulate : Ir.exp -> (elt -> elt) -> vec
(** [vec_tabulate n f]: the collection [f 0, ..., f (n-1)] (not
    materialized). *)

(** {1 Element-wise operators (fused, non-materializing)} *)

val vmap : (elt -> elt) -> vec -> vec
val vzip : (elt -> elt -> elt) -> vec -> vec -> vec
val vget : vec -> elt -> elt

val row : mat -> elt -> vec
(** The paper's [slice(i, * )]. *)

val col : mat -> elt -> vec

(** {1 Reductions (emit PPL patterns)} *)

val vsum : vec -> elt
val dot : vec -> vec -> elt

val min_with_index : vec -> elt
(** Fig. 3's [zipWithIndex.minBy(p => p._1)]: a [(value, index)] pair;
    ties resolve to the later index, matching the PPL fold in Fig. 4. *)

val map_rows : mat -> (elt -> vec -> elt) -> vec
(** [x.map{row => f row}] — the index is also provided. *)

val sum_rows : mat -> vec
(** Row sums (Table 2's sumrows), as the fused MultiFold. *)

(** {1 Materialization} *)

val materialize : vec -> Ir.exp
(** Emit a [Map] producing the collection as an array value. *)

(** {1 Filters and grouping} *)

val filter_map : n:Ir.exp -> pred:(elt -> Ir.exp) -> f:(elt -> elt) -> Ir.exp
(** [x.flatMap{ e => if pred e then [f e] else [] }] over indices
    [0..n-1]; a dynamically sized 1-D array (FlatMap). *)

val group_by_fold :
  n:Ir.exp ->
  key:(elt -> elt) ->
  init:elt ->
  upd:(elt -> elt -> elt) ->
  comb:(elt -> elt -> elt) ->
  Ir.exp
(** [x.groupByFold(init){ i => (key i, acc => upd acc i) }{comb}]. *)

val group_by_vector_sum :
  n:Ir.exp ->
  k:Ir.exp ->
  d:Ir.exp ->
  key:(elt -> elt) ->
  vec_of:(elt -> vec) ->
  Ir.exp
(** The Collect/Reduce fusion behind Fig. 3 -> Fig. 4: group the vectors
    [vec_of i] (each of length [d]) by [key i] in [0..k-1], producing the
    pair of a [k x d] matrix of per-group vector sums and a [k]-vector of
    group sizes — the scattering MultiFold with the shared key binding. *)
