(** Black-Scholes European option pricing — an extension application from
    the streaming-compute domain the paper's predecessors evaluate.

    One [Map] over the options with a deep branch-free datapath
    (log/exp/sqrt/divide), using a logistic approximation of the
    cumulative normal so no data-dependent control flow is needed.
    A pure streaming benchmark: like outerprod it gains nothing from
    tiling (every word is used once) but stresses the pipeline-depth
    model ({!Depth}) and the parallelism sweep. *)

type t = {
  prog : Ir.program;
  n : Sym.t;  (** number of options *)
  sptprice : Ir.input;
  strike : Ir.input;
  time : Ir.input;  (** years to maturity *)
}

val make : unit -> t

val gen_inputs : t -> seed:int -> n:int -> (Sym.t * Value.t) list

val reference :
  sptprice:float array -> strike:float array -> time:float array ->
  float array
(** Same logistic-CND formula as the kernel, evaluated in OCaml. *)

val raw_inputs :
  seed:int -> n:int -> float array * float array * float array
