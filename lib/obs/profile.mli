(** Source-pattern attribution profiler.

    Distributes a design's simulated cycles down the controller tree
    following the simulator's own composition rules, then aggregates
    cycles, DRAM traffic and area by the provenance stamped on each
    controller and memory — answering "which source pattern costs
    what?".  Attribution is complete by construction: the root total is
    the simulator's cycle count verbatim, and every node's [self] is its
    total minus what its children received, so [self] summed over the
    tree telescopes back to the total.

    Three backends: an aligned text report ({!pp_text}), JSON
    ({!to_json}), and the folded-stack flamegraph format ({!to_folded}):
    one [frame;frame;... weight] line per provenance trail, integer
    weights, lexicographically sorted — byte-deterministic for a given
    design and sizes. *)

type traffic = (string * float) list

type node = {
  name : string;
  kind : string;
  prov : Prov.t;
  total : float;  (** cycles attributed to this subtree, all invocations *)
  self : float;  (** total minus what the children received *)
  invocations : float;
  fill : float;  (** share of [total] spent filling pipelines *)
  steady : float;  (** share in steady-state execution *)
  dram : float;  (** share serialized behind the shared DRAM channel *)
  reads : traffic;  (** words read from DRAM, all invocations *)
  writes : traffic;
  area : Area_model.t;  (** this controller instance, without children *)
  children : node list;
}

type origin_row = {
  origin : string;  (** source-pattern id, e.g. ["gemm/map#2"] *)
  o_cycles : float;  (** summed [self] cycles of controllers so stamped *)
  o_share : float;  (** fraction of the design total *)
  o_traffic : float;  (** DRAM words moved by those controllers *)
  o_area : Area_model.t;  (** controllers plus memories so stamped *)
  o_ctrls : int;
}

type t = {
  design_name : string;
  total_cycles : float;  (** the {!Simulate.run} cycle count, verbatim *)
  dram_cycles : float;
  fill_cycles : float;
  steady_cycles : float;
  dram_serial_cycles : float;
  root : node;
  origins : origin_row list;  (** cycle-sorted, heaviest first *)
  unattributed_area : Area_model.t;  (** platform overhead *)
}

val of_design :
  ?cache:Simulate.cache -> Hw.design -> sizes:(Sym.t * int) list -> t

val total_cycles : t -> float

val top_sinks : t -> int -> origin_row list
(** The [k] heaviest origins by attributed cycles (zero rows dropped). *)

val fold_nodes : ('a -> node -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over the attribution tree. *)

val pp_text : Format.formatter -> t -> unit
val to_json : t -> string

val to_folded : t -> string
(** Folded flamegraph stacks, one line per provenance trail. *)
