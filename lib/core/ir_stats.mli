(** Structural statistics of a PPL program — what each transformation did
    to the IR, in numbers (used by the CLI's [stats] command and handy in
    regression tests). *)

type t = {
  nodes : int;
  maps : int;
  folds : int;
  multifolds : int;
  flatmaps : int;
  groupbyfolds : int;
  copies : int;  (** explicit tile copies *)
  strided_loops : int;  (** [Dtiles] domains *)
  lets : int;
  max_nest : int;  (** deepest pattern nesting *)
}

val of_program : Ir.program -> t
val header : string
val row : string -> t -> string
