(** The Figure 7 benchmark suite: one entry per row of Table 5, with the
    default tiling configuration, simulation-scale sizes (Fig. 7) and
    test-scale sizes (interpreter correctness). *)

type bench = {
  name : string;
  description : string;
  collection_ops : string;  (** Table 5's "Collections Ops" column *)
  prog : Ir.program;
  tiles : (Sym.t * int) list;  (** size parameter -> tile size *)
  sim_sizes : (Sym.t * int) list;
  test_sizes : (Sym.t * int) list;
  gen : sizes:(Sym.t * int) list -> seed:int -> (Sym.t * Value.t) list;
}

val all : unit -> bench list
(** Fresh instances of the six benchmarks, in Table 5 order. *)

val extended : unit -> bench list
(** [all ()] plus the extension applications (histogram, conv2d, logreg,
    blackscholes, matvec) — everything the CLI can name.  Figure
    reproductions stay on [all]; the extras exercise patterns and
    machine-model corners the paper's six do not. *)

val find : bench list -> string -> bench
(** @raise Not_found if no benchmark has that name. *)
