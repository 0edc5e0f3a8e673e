(** Paper-style pretty printing of PPL programs.

    Output mimics the concrete syntax of the paper's figures, e.g.
    [multiFold(n/b0)((k,d),k)(zeros){ ii => ... }{ (a,b) => ... }]. *)

val exp_to_string : Ir.exp -> string
val program_to_string : Ir.program -> string
