(** Paper-style pretty printing of PPL programs.

    Output mimics the concrete syntax of the paper's figures, e.g.
    [multiFold(n/b0)((k,d),k)(zeros){ ii => ... }{ (a,b) => ... }]. *)

val pp_dom : Format.formatter -> Ir.dom -> unit
val pp_exp : Format.formatter -> Ir.exp -> unit
val pp_program : Format.formatter -> Ir.program -> unit
val exp_to_string : Ir.exp -> string
val program_to_string : Ir.program -> string
