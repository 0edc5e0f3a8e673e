(** Metapipeline stage rebalancing.

    Section 6.2 for GDA: "We parallelize the vector outer product stage as
    it is the most compute-heavy part of the algorithm; parallelizing the
    vector outer product enables the metapipeline to achieve greater
    throughput", yielding the 39.4x total.  This pass implements that
    optimization: within each metapipeline, find the bottleneck stage by
    simulation and scale up its compute parallelism.

    Not part of the default Fig. 7 configurations (those keep the
    innermost parallelism factor constant, per Section 6.1); exposed as an
    ablation. *)

val apply : Hw.design -> sizes:(Sym.t * int) list -> Hw.design
(** Multiply the parallelism of each metapipeline's slowest compute stage
    by 4 when that stage is a pipe, the slowest found by simulating each
    stage on {!Machine.default}. *)
