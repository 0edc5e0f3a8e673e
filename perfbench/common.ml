(* Shared machinery: inputs drawn from the seed, the closed loop, the
   traced census, statistics and the metric record. *)

let now = Unix.gettimeofday

(* ------------------------------ inputs ------------------------------ *)

(* Simulation sizes are visited at every scale of [Experiments.scaling]'s
   scheme, so one round of a workload is every item at x0.5, x1 and x2. *)
let scales = [| 0.5; 1.0; 2.0 |]

let scale_sizes k sizes =
  List.map
    (fun (s, v) -> (s, Int.max 1 (int_of_float (float_of_int v *. scales.(k)))))
    sizes

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One round: every (item, scale) pair once, in an order drawn from [rng]. *)
let round_order rng items =
  let a =
    Array.init (items * Array.length scales) (fun i ->
        (i / Array.length scales, i mod Array.length scales))
  in
  shuffle rng a;
  a

(* ---------------------------- workloads ----------------------------- *)

(* What one operation produced.  [verify] and [counts] run outside the
   timed window. *)
type outcome = {
  work : int;  (* programs, DSE points, designs or simulated events *)
  designs : (float * float * float) list;
      (* (cycles, logic, bram) of each design the operation generated *)
  verify : unit -> string option;  (* [Some why] marks a failed operation *)
  counts : unit -> (string * int) list;  (* exact counts, traced run only *)
}

type instance = {
  items : int;
  domains : int;  (* the operations run on this many domains *)
  label : int -> int -> string;  (* item, scale -> operation label *)
  run : int -> int -> outcome;  (* the timed operation *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
}

let new_tally () = { attempted = 0; failed = 0; first_failure = None }

let fail tally why =
  tally.attempted <- tally.attempted + 1;
  tally.failed <- tally.failed + 1;
  if tally.first_failure = None then tally.first_failure <- Some why

let check tally label (o : outcome) =
  match o.verify () with
  | None -> tally.attempted <- tally.attempted + 1
  | Some why -> fail tally (label ^ ": " ^ why)
  | exception e -> fail tally (label ^ ": " ^ Printexc.to_string e)

(* Run an operation; an exception is a failed operation, not a crash. *)
let attempt inst tally item scale =
  match inst.run item scale with
  | o -> Some o
  | exception e ->
      fail tally (inst.label item scale ^ ": raised " ^ Printexc.to_string e);
      None

(* ---------------------------- statistics ---------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(Int.min (n - 1) (Int.max 0 (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The median over operations (item, scale) of each one's median time
   across rounds.  Operations cluster by item, and half of one round can
   end exactly at a cluster's edge (six of the twelve DSE sweeps are of
   15 points); a median of all samples then jumps between clusters, this
   one does not. *)
let median_of_medians keyed =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, x) -> Hashtbl.replace tbl k (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    keyed;
  median (Hashtbl.fold (fun _ xs acc -> median xs :: acc) tbl [])

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* ----------------------------- host speed --------------------------- *)

(* The host's speed swings by up to 2x within a minute (other tenants
   share its caches and memory), and a slow phase slows every operation
   alike.  So a fixed kernel is timed between operations, and each timing
   is scaled by [kernel_ref] / the kernel's time around it.  Timings are
   thus in seconds of a host on which the kernel takes [kernel_ref]: a
   change to the program moves them, a change in the host's load mostly
   does not.  The kernel is shaped like the program's work: a balanced
   tree of 8,000 entries built and folded, which allocates and chases
   pointers through a working set of a few hundred KiB.  On the reference
   host, scaling cut the spread of 20 s runs of compile and analyze from
   40-55% to 1.5-2.5%; trees of 250 entries tracked the host less well. *)
module Int_map = Map.Make (Int)

let kernel_work () =
  let m = ref Int_map.empty in
  for i = 0 to 7999 do
    m := Int_map.add ((i * 7919) land 65535) i !m
  done;
  Int_map.fold (fun k v a -> a + k + v) !m 0

(* About the kernel's time on the reference host (2 vCPU at 2.0 GHz). *)
let kernel_ref = 3e-3

(* Seconds the kernel takes now.  With [domains] > 1 the kernel runs on
   that many domains at once (this one and freshly spawned ones), so it
   slows with whatever slows parallel operations: the other vCPU's load,
   and the runtime's stop-the-world minor collections. *)
let kernel_time ~domains =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel_work) in
  ignore (Sys.opaque_identity (kernel_work ()));
  List.iter (fun d -> ignore (Domain.join d)) others;
  now () -. t0

(* Kernel timings (finish time, seconds) taken during a run. *)
type speed = {
  kernel_domains : int;
  mutable marks : (float * float) list;
  mutable last : float;
}

let new_speed kernel_domains = { kernel_domains; marks = []; last = neg_infinity }

let mark sp =
  let k = kernel_time ~domains:sp.kernel_domains in
  let t = now () in
  sp.marks <- (t, k) :: sp.marks;
  sp.last <- t

let mark_if_due sp = if now () -. sp.last >= 0.05 then mark sp

(* [scaler sp a b]: the factor for an interval [a, b], from the mean of the
   last mark before [a] and the first mark after [b]. *)
let scaler sp =
  let marks = Array.of_list (List.rev sp.marks) in
  let n = Array.length marks in
  let first_at x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst marks.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun a b ->
    let before = snd marks.(Int.max 0 (first_at a - 1)) in
    let after = snd marks.(Int.min (n - 1) (first_at b)) in
    kernel_ref /. ((before +. after) /. 2.0)

(* Run [f] between two marks; returns its result, its scaled seconds and
   the scale factor. *)
let scaled ~domains f =
  let k0 = kernel_time ~domains in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let s = kernel_ref /. ((k0 +. kernel_time ~domains) /. 2.0) in
  (r, dt *. s, s)

(* ---------------------------- closed loop --------------------------- *)

type sample = { key : int * int;  (* item, scale *) ms : float;  (* scaled *) work : int }

(* Run the operations of one round in order, one at a time, timing the
   kernel between them; [visit key a b o] sees each operation that
   returned, with its (item, scale) and start and end times, before its
   check runs. *)
let run_round sp inst tally order ~visit =
  Array.iteri
    (fun k (item, scale) ->
      mark_if_due sp;
      Span.set_request k;
      let a = now () in
      match attempt inst tally item scale with
      | None -> ()
      | Some o ->
          let b = now () in
          if b -. a >= 0.05 then mark sp;
          visit (item, scale) a b o;
          check tally (inst.label item scale) o)
    order

(* Closed loop, one client: the next operation starts when the previous
   one (and its check) has finished.  Whole rounds are measured, so every
   run times the same mix; the number of rounds is chosen after the first
   so the loop lasts about [seconds].  Returns the scaled samples, each
   operation's scale factor, the round count and the quality triples of
   the first round (each design exactly once). *)
let closed_loop ~seed ~seconds inst tally =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let sp = new_speed inst.domains in
  let raw = ref [] and quality = ref [] in
  let round r =
    run_round sp inst tally (round_order rng inst.items) ~visit:(fun key a b o ->
        raw := (key, a, b, o.work) :: !raw;
        if r = 0 then quality := o.designs @ !quality)
  in
  mark sp;
  let t0 = now () in
  round 0;
  let rounds =
    Int.max 1 (int_of_float (Float.round (seconds /. Float.max (now () -. t0) 1e-6)))
  in
  for r = 1 to rounds - 1 do
    round r
  done;
  mark sp;
  let scale = scaler sp in
  let samples =
    List.rev_map
      (fun (key, a, b, work) -> { key; ms = (b -. a) *. 1e3 *. scale a b; work })
      !raw
  in
  let factors = List.map (fun (_, a, b, _) -> scale a b) !raw in
  (samples, factors, rounds, !quality)

(* One round with every outcome's counts summed.  Returns the scaled
   seconds spent in operations, the median scale factor, and the counts. *)
let census ~seed inst tally =
  let rng = Random.State.make [| seed; 0xce25 |] in
  let sp = new_speed inst.domains in
  let times = ref [] and counts = Hashtbl.create 16 in
  mark sp;
  run_round sp inst tally (round_order rng inst.items) ~visit:(fun _ a b o ->
      times := (a, b) :: !times;
      List.iter
        (fun (name, n) ->
          let prev = Option.value (Hashtbl.find_opt counts name) ~default:0 in
          Hashtbl.replace counts name (prev + n))
        (o.counts ()));
  mark sp;
  let scale = scaler sp in
  let busy = List.fold_left (fun acc (a, b) -> acc +. ((b -. a) *. scale a b)) 0.0 !times in
  let factor = median (List.map (fun (a, b) -> scale a b) !times) in
  (busy, factor, List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []))

(* ------------------------------ metrics ----------------------------- *)

type value = F of float | I of int

type metric = { name : string; unit_ : string; value : value }

let metric name unit_ value = { name; unit_; value }

let value_json = function
  | I n -> string_of_int n
  | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | F _ -> "null"

let value_text = function
  | I n -> string_of_int n
  | F x -> Printf.sprintf "%.6g" x

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (value_json m.value) m.unit_)
          metrics))

(* Per-layer metrics from a traced census: self time and calls per span
   name, in the order given. *)
let layer_metrics ~prefix ~layers ~factor spans =
  let totals = Span.totals spans in
  List.concat_map
    (fun layer ->
      let self, calls = Option.value (List.assoc_opt layer totals) ~default:(0.0, 0)
      in
      [ metric (Printf.sprintf "%s.%s.self_ms" prefix layer) "ms" (F (self *. 1e3 *. factor));
        metric (Printf.sprintf "%s.%s.calls" prefix layer) "count" (I calls) ])
    layers

(* The traced half of a workload's traced run: the census of an untraced
   round ([untraced] seconds), repeated with recording on.  Returns the
   per-layer metrics every workload shares (self time and calls per
   layer, the exact counts, and the tracing overhead) and the spans. *)
let traced_census ~seed ~prefix ~layers ~untraced inst tally =
  Span.clear ();
  Span.enable ();
  let traced, factor, counts =
    Fun.protect ~finally:Span.disable (fun () -> census ~seed inst tally)
  in
  let spans = Span.collect () in
  Span.clear ();
  ( layer_metrics ~prefix ~layers ~factor spans
    @ List.map (fun (name, n) -> metric (prefix ^ "." ^ name) "count" (I n)) counts
    @ [ metric (prefix ^ ".trace_overhead_ms") "ms" (F ((traced -. untraced) *. 1e3)) ],
    spans )

(* ------------------------- prebuilt designs ------------------------- *)

let configs = [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]

(* Every suite bench under every configuration, lowered once: the inputs of
   the analyze and timeline workloads. *)
type design = {
  dname : string;
  design : Hw.design;
  area : Area_model.t;
  sizes : (Sym.t * int) list array;  (* simulation sizes, per scale *)
}

let select_benches only =
  List.filter
    (fun (b : Suite.bench) ->
      match only with None -> true | Some l -> List.mem b.Suite.name l)
    (Suite.extended ())

let prebuilt_designs ~only =
  Array.of_list
    (List.concat_map
       (fun (b : Suite.bench) ->
         List.map
           (fun cfg ->
             let design = Experiments.design_of cfg b in
             { dname = b.Suite.name ^ " " ^ Experiments.config_name cfg;
               design;
               area = Area_model.of_design design;
               sizes = Array.init (Array.length scales) (fun k -> scale_sizes k b.Suite.sim_sizes) })
           configs)
       (select_benches only))

let design_label designs item scale =
  Printf.sprintf "%s x%g" designs.(item).dname scales.(scale)
