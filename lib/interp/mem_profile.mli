(** IR-level memory profiling.

    Counts, during reference evaluation, how many words are read from each
    program input — element reads count one word, tile copies count their
    region size (discounted by the reuse factor).  On a tiled program
    whose input accesses all go through tile copies this equals the words
    a hardware implementation moves from DRAM, so it cross-checks both the
    closed forms of Fig. 5c and the simulator's traffic counters, from a
    third, independent direction (actual execution). *)

type counts = (Sym.t * int) list

val run :
  Ir.program ->
  sizes:(Sym.t * int) list ->
  inputs:(Sym.t * Value.t) list ->
  Value.t * counts
(** Evaluate the program, returning its value and the per-input word
    counts (inputs with zero accesses are included). *)

val words : counts -> Sym.t -> int
