(** Parser for the concrete PPL syntax that {!Pp} prints.

    Together with the printer this makes programs first-class text
    artifacts: the CLI's [export] output parses back, programs can be
    written in [.ppl] files, and the printer/parser roundtrip is property
    tested ([parse (print p)] is alpha-equivalent to [p] and evaluates
    identically).

    The grammar covers the full IR: the four patterns (plus [Fold]),
    tiled domains ([n/64] strided loops, [64@n[ii]] tile tails), shared
    bindings, update regions with static bounds ([off+:len~max]), tile
    copies with reuse factors, and program headers ([size], [maxsize],
    [input] declarations).  All binders are freshly gensymmed, so parsed
    programs obey the same global-uniqueness invariant DSL-built programs
    do. *)

exception Parse_error of string
(** Carries a message with line/column information. *)

val program_of_string : string -> Ir.program
(** @raise Parse_error on malformed input. *)

val exp_of_string : string -> Ir.exp
(** Parse one closed expression.
    @raise Parse_error on malformed input or unbound identifiers. *)
