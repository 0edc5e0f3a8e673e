(** Semantic static analysis over lowered hardware designs.

    {!Hw_check} guarantees a design is structurally well-formed; this
    module asks whether it is {e right}: the invisible guarantees the
    paper's generated hardware relies on (Section 5's double-buffer
    promotion between overlapped metapipeline stages, banked memories
    wide enough for the duplicated compute, FIFO producers and consumers
    whose rates agree, tiles that fit their buffers).  A hand-built or
    buggy lowering that violates one of them still simulates — and
    produces a plausible-but-wrong number — so the linter's job is to
    reject or warn instead.

    Analyses and codes (full catalog with examples in [doc/LINTS.md]):

    - {b Metapipeline races} — HW101 (error): a memory written by one
      stage and read by a different stage of a metapipelined loop must
      be a [Double_buffer]; the lint independently re-derives the
      coupling set {!Metapipe.finalize} promotes (sharing only the
      reference rule {!Hw.subtree_refs}) and flags disagreement.  HW102 (warning): a [Double_buffer] that never
      couples two distinct stages (over-promotion wastes area).  HW103
      (warning): a scalar [Reg] or [Cache] coupling overlapped stages
      (finalize does not promote those, so values can be overwritten a
      full outer iteration early).
    - {b Banking / ports} — HW110 (error): a pipe with [par = P]
      touching a banked scratchpad with [banks < P].  HW111 (error):
      declared [readers]/[writers] port counts disagreeing with
      {!Hw.port_counts} of the controller tree.
    - {b FIFO rates} — HW120 (error): producer and consumer move
      provably different element counts per activation (compared with
      {!Hw.trip} algebra: symbolically when the trip expressions match
      structurally, numerically when both are constant).  HW121 (error):
      a FIFO too shallow for the words provably pushed before its
      consumer starts draining (deadlock: the producer stalls forever).
      HW122 (warning): depth under twice the per-burst production — no
      slack to fill one burst while the consumer drains the previous.
    - {b Capacity} — HW130 (error): a tile load/store moving provably
      more words per invocation than the on-chip buffer holds.
    - {b Performance} — HW140 (info): a controller whose subtree
      neither writes a memory nor touches DRAM (dead hardware).  HW141
      (info): a sequential loop whose stages form a cross-stage
      producer/consumer chain — exactly the shape metapipelining
      overlaps.  HW142 (info): adjacent stages of a metapipeline that
      both occupy the DRAM channel, so the steady state is floored by
      their serialized traffic rather than the slowest stage. *)

val check : Hw.design -> Diagnostic.t list
(** The semantic lints only (assumes the design already passes
    {!Hw_check.check}); sorted errors-first. *)

val check_all : Hw.design -> Diagnostic.t list
(** [Hw_check.check] followed by {!check}, one sorted list — what
    [ppl-fpga lint] runs. *)
