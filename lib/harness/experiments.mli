(** The experiment harness: regenerates every table and figure of the
    paper's evaluation (Section 6) from the compiler + simulator + area
    model, in paper-shaped rows.  Used by both the CLI and the benchmark
    executable; EXPERIMENTS.md records its output against the paper. *)

(** The three hardware configurations of Section 6.2. *)
type config = Baseline | Tiled | Tiled_meta

val config_name : config -> string

val form : config -> Tiling.result -> Lower.opts * Ir.program
(** The lowering options and the program form of a configuration:
    [Baseline] is the fused form with {!Lower.baseline_opts}, [Tiled] the
    tiled form without metapipelining, [Tiled_meta] the tiled form with
    {!Lower.default_opts}. *)

val lower : ?par:int -> config -> Tiling.result -> Hw.design
(** The design of a tiled program under a configuration: its {!form}
    lowered from the check {!Tiling} made of it ({!Lower.shape}, then
    {!Lower.bind}).  [?par] replaces the configuration's parallelism
    factor. *)

val design_of : config -> Suite.bench -> Hw.design
(** [lower config] of the benchmark tiled at its default tile sizes. *)

(** {1 Figure 7} *)

type fig7_row = {
  bench : string;
  cycles : config -> float;
  speedup : config -> float;  (** over [Baseline] *)
  area : config -> Area_model.t;
  area_ratio : config -> Area_model.t;  (** over [Baseline] *)
}

val fig7 : ?domains:int -> Suite.bench list -> fig7_row list
(** [?domains] fans the per-benchmark chains out across a {!Pool}
    (default: {!Pool.default_domains}; [1] = sequential).  The rows are
    identical at every domain count. *)

val print_fig7 : fig7_row list -> unit

(** {1 Sensitivity}

    Fig. 7's qualitative claims should not hinge on the exact machine
    constants.  [sensitivity] re-runs the speedup computation under
    perturbed machine models (each knob scaled down and up) and reports
    the per-benchmark tiling speedups. *)

type sensitivity_row = {
  variant : string;  (** e.g. "stream-bw x0.5" *)
  speedups : (string * float) list;  (** benchmark -> +tiling+meta speedup *)
}

val sensitivity : Suite.bench list -> sensitivity_row list
val print_sensitivity : sensitivity_row list -> unit

val scaling : Suite.bench list -> sensitivity_row list
(** The same speedups with every problem size halved and doubled
    (tile sizes fixed): the Fig. 7 shape should be a property of the
    designs, not of one problem size. *)

(** {1 Figure 5c} *)

type fig5c_row = {
  structure : string;
  stage : string;  (** fused / strip-mined / interchanged *)
  measured_words : float;
  expected_words : float;  (** the paper's closed form at these sizes *)
  onchip_words : float;  (** on-chip storage allocated for the structure *)
  expected_onchip : float;
}

val fig5c :
  n:int -> k:int -> d:int -> b0:int -> b1:int -> unit -> fig5c_row list

val print_fig5c : fig5c_row list -> unit

(** {1 Per-input traffic}

    The Fig. 5c analysis generalized to any benchmark: DRAM read words
    per program input under the baseline and tiled designs, optionally
    cross-checked against the interpreter's {!Profile} counts on the
    tiled program at the same sizes. *)

type traffic_row = {
  tinput : string;
  tbaseline : float;  (** simulated read words, baseline design *)
  ttiled : float;  (** simulated read words, tiled design *)
  tprofile : int option;  (** interpreter words for the tiled program *)
}

val traffic : ?profile:bool -> Suite.bench -> traffic_row list
(** At the benchmark's simulation sizes, or at its (small) test sizes
    when [profile] is set so the interpreter run stays cheap. *)

val print_traffic : string -> traffic_row list -> unit

(** {1 Table 5} *)

val print_table5 : Suite.bench list -> unit
