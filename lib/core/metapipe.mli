(** Metapipeline finalization (Section 5).

    After lowering, every output buffer that couples two stages of a
    metapipeline is promoted to a double buffer — required to avoid
    write-after-read hazards between stages executing different outer
    iterations concurrently.  Buffers written and read by stages of
    non-metapipelined (sequential) loops stay single-buffered, as do
    preloaded top-level buffers (Fig. 6: the points tile is double
    buffered, the centroids preload is not).

    Also sets each memory's reader/writer port counts from the finished
    controller tree ({!Hw.count_ports}).  The input design is not
    modified. *)

val finalize : Hw.design -> Hw.design
