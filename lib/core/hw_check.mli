(** Design-level validation: structural invariants every lowered design
    must satisfy, checked after {!Lower} and {!Metapipe.finalize}.  The
    IR type checker ({!Validate}) guards the front of the pipeline; this
    guards the back — a lowering bug that produces a malformed design
    (dangling memory reference, double buffer outside a metapipeline,
    FIFO without a producer) is caught here rather than as a nonsense
    simulation number.

    Findings are {!Diagnostic.t} values with stable [HW0xx] codes (all
    error severity — a structurally malformed design has no meaningful
    simulation), locating controllers by their full path from the design
    root.  The semantic analyses (hazards, rates, capacities, perf) live
    in {!Hw_lint}; [Hw_lint.check_all] runs both. *)

val check : Hw.design -> Diagnostic.t list
(** All violations found; empty = well-formed.  Checked invariants
    (codes in [doc/LINTS.md]):

    - HW004/HW005: every memory a controller references
      ({!Hw.mem_refs}) is declared in [mems];
    - HW006: every declared memory is referenced by some controller;
    - HW001/HW002: memory names are unique; controller names are unique;
    - HW003: every memory has positive width, depth and banks;
    - HW007/HW008: dataflow — every declared memory is both produced and
      consumed: written somewhere (except [Cache], which demand-fills
      from DRAM) and read somewhere (a tile store counts as the read);
    - HW009: a [Double_buffer] is written or read under at least one
      metapipelined loop (promotion happens only there);
    - HW010: every [Fifo] has both a producer ([Fifo_write] pipe or
      [defines]) and a consumer;
    - HW011: [Pipe] fields are sane: [par >= 1], [ii >= 1],
      [depth >= 0], and a non-scalar pipe has an iteration space (a
      [Scalar_unit] may run once with no loop dims);
    - HW012: [Loop] controllers have at least one trip and one stage;
    - HW013: [Seq]/[Par] controllers have at least one child. *)

val check_exn : Hw.design -> unit
(** @raise Failure with all findings when the design is malformed. *)
