(** Parametric area model of a hardware design, standing in for the
    Altera synthesis reports of Section 6.1.

    Costs are charged per template instance:
    - pipes: datapath operators scaled by the parallelism factor, plus
      pipeline registers;
    - memories: M20K-equivalent block RAM from depth x width (doubled for
      double buffers, at least one block per bank), flip-flops for
      registers, tag/match logic for caches and CAMs;
    - tile load/store units and each direct DRAM access stream: command
      generators with several internal buffers — the reason the paper's
      untiled k-means baseline uses {e more} on-chip memory than the tiled
      design (Section 6.2);
    - controllers: counters and handshaking, a little more for
      metapipeline double-buffer control.

    Absolute numbers are indicative; Fig. 7 uses the {e ratios} between
    configurations, which depend only on instance counts and buffer
    sizes. *)

type t = {
  logic : float;  (** ALM-equivalent logic *)
  ff : float;  (** flip-flops *)
  bram : float;  (** M20K-equivalent memory blocks *)
  dsp : float;
}

val zero : t
val add : t -> t -> t
val of_design : Hw.design -> t

val ctrl_cost : Hw.ctrl -> t
(** Area charged to one controller node, excluding its children.
    Summing [ctrl_cost] over the tree plus {!mem_cost} over the memories
    and the platform overhead reproduces {!of_design}. *)

val mem_cost : Hw.mem -> t
(** Area of one on-chip memory instance. *)

val platform_overhead : t
(** Fixed infrastructure present in every bitstream (DRAM controllers,
    host interface) — charged to no source pattern. *)

val ratio : t -> t -> t
(** [ratio a b] divides componentwise ([a]/[b]), for Fig. 7's
    relative-resource bars. *)

val fits : t -> bool
(** Every component within the chip, the evaluation FPGA (Stratix V GS
    D8-class). *)

val pp : Format.formatter -> t -> unit
val pp_utilization : Format.formatter -> t -> unit
