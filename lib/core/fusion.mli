(** Pattern fusion (the vertical/horizontal fusion the paper's pipeline
    runs before tiling; Section 3 shows its effect on k-means).

    - {b Horizontal Map fusion}: two adjacent Let-bound [Map]s over the
      same domain merge into a single tuple-producing [Map], eliminating
      the redundant traversal.
    - {b Vertical Map fusion}: a Let-bound [Map] whose every use is an
      element read (or a [Len]) is inlined into its consumers, removing
      the intermediate array and shrinking producer-consumer reuse
      distance.
    - {b Filter fusion} (optional): a Let-bound [FlatMap] consumed by a
      single [Fold] over its dynamic length fuses into a conditional fold
      over the FlatMap's domain — the classic filter-reduce fusion.
      Off by default so the hardware generator still sees the FlatMap and
      maps it to a parallel FIFO (Table 4); enabling it is an ablation. *)

val program : ?fuse_filters:bool -> Ir.program -> Ir.program
