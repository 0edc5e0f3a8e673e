(** Host-side runtime model.

    The paper measures "starting after input data has been copied to the
    FPGA's DRAM and ending when the hardware design reports completion"
    (Section 6.1) — per-invocation device time, which {!Simulate} gives.
    Real deployments wrap that in a host loop: copy inputs over PCIe once,
    invoke the bitstream repeatedly (k-means iterates "until the centroid
    values stop changing"), read results back.  This module models that
    loop so examples can report end-to-end times and show how transfer
    cost amortizes across iterations. *)

type host = {
  pcie_bytes_per_sec : float;  (** sustained host-device bandwidth *)
  invocation_overhead_s : float;  (** per-kernel-launch driver overhead *)
}

type summary = {
  device_s : float;  (** accelerator busy time across all invocations *)
  transfer_s : float;  (** PCIe in + out *)
  overhead_s : float;
  total_s : float;
  per_invocation_s : float;
}

val run :
  ?host:host ->
  ?machine:Machine.t ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  input_bytes:float ->
  output_bytes:float ->
  invocations:int ->
  summary
(** Model [invocations] back-to-back runs of the design: one input
    transfer up front, one result readback per invocation. *)

val pp_summary : Format.formatter -> summary -> unit
