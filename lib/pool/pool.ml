let default_domains () = Domain.recommended_domain_count ()

type tally = { mutable per_domain : int array }

let tally () = { per_domain = [||] }

(* An idle helper exits after this long without a map.  Back-to-back
   sweeps leave short gaps between maps: over 1,871 [Dse.explore_bench]
   sweeps of the suite on a 2-vCPU host, 90% of the gaps were under
   0.25 ms (the next sweep's tile-independent front, sorting and
   selecting the last one's points), and the 1% where the caller did
   other work between sweeps took about 10 ms.  20 ms bridges those with
   room to spare.  It must not be much longer: a parked domain still
   takes part in every stop-the-world minor collection (its backup
   thread answers for it), which on that host slowed allocation-heavy
   work on the remaining domain by about 10% in the median and up to
   30%. *)
let linger = 0.02

(* A helper domain.  Between maps it waits on its own pipe: a map sets
   [job] under [lock] and then writes one byte.  [Unix.select] gives the
   wait its timeout, which [Condition.wait] cannot. *)
type helper = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable job : unit -> unit;
}

let lock = Mutex.create ()
let all_done = Condition.create ()

(* Guarded by [lock]: whether a map owns the helpers, the parked helpers
   (most recently parked first, so a surplus at the bottom retires), and
   how many helpers have not yet finished the current map's job. *)
let serving = ref false
let idle = ref []
let running = ref 0

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let rec park h =
  let woken =
    match restart (fun () -> Unix.select [ h.wake_r ] [] [] linger) with
    | [], _, _ -> false
    | _ -> true
    (* e.g. a descriptor above FD_SETSIZE: retire at once unless claimed *)
    | exception Unix.Unix_error _ -> false
  in
  (* a helper still on [idle] after the timeout has not been claimed; a
     claimed one waits for its byte, which follows the claim *)
  let retire =
    (not woken)
    && Mutex.protect lock (fun () ->
           let parked = List.memq h !idle in
           if parked then idle := List.filter (fun h' -> h' != h) !idle;
           parked)
  in
  if retire then begin
    Unix.close h.wake_r;
    Unix.close h.wake_w
  end
  else begin
    ignore (restart (fun () -> Unix.read h.wake_r (Bytes.create 1) 0 1));
    let job =
      Mutex.protect lock (fun () ->
          let job = h.job in
          h.job <- ignore;
          job)
    in
    job ();
    Mutex.protect lock (fun () ->
        idle := h :: !idle;
        decr running;
        if !running = 0 then Condition.signal all_done);
    park h
  end

(* A fresh helper, or [None] at the runtime's domain limit (or out of
   file descriptors). *)
let spawn () =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | wake_r, wake_w -> (
      let h = { wake_r; wake_w; job = ignore } in
      match Domain.spawn (fun () -> park h) with
      | (_ : unit Domain.t) -> Some h
      | exception Failure _ ->
          Unix.close wake_r;
          Unix.close wake_w;
          None)

(* Up to [n] helpers for a map, parked ones first; [None] if another map
   is being served. *)
let claim n =
  let parked =
    Mutex.protect lock (fun () ->
        if !serving then None
        else begin
          serving := true;
          let rec take n acc =
            match !idle with
            | h :: rest when n > 0 ->
                idle := rest;
                take (n - 1) (h :: acc)
            | _ -> acc
          in
          Some (take n [])
        end)
  in
  let rec grow n acc =
    if n <= 0 then acc
    else match spawn () with Some h -> grow (n - 1) (h :: acc) | None -> acc
  in
  Option.map (fun hs -> grow (n - List.length hs) hs) parked

let map ?domains ?tally:tl f items =
  let requested =
    match domains with Some d -> Int.max 1 d | None -> default_domains ()
  in
  (* per-worker completed-item counters: each slot is written by exactly
     one domain, and only read after the map's helpers have reported
     back, so plain ints suffice and the result list is untouched *)
  let init_counts n =
    let a = Array.make n 0 in
    (match tl with Some t -> t.per_domain <- a | None -> ());
    a
  in
  let sequential () =
    let a = init_counts 1 in
    List.map
      (fun x ->
        let y = f x in
        a.(0) <- a.(0) + 1;
        y)
      items
  in
  let len = List.length items in
  match
    if requested <= 1 || len <= 1 then None
    else claim (Int.min requested len - 1)
  with
  | None -> sequential ()
  | Some helpers ->
      let arr = Array.of_list items in
      (* one slot per item: results come back in input order no
         matter which domain computed them *)
      let results = Array.make len None in
      let next = Atomic.make 0 in
      let a = init_counts (1 + List.length helpers) in
      let worker w () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < len then begin
            (results.(i) <-
               Some
                 (try Ok (f arr.(i))
                  with e -> Error (e, Printexc.get_raw_backtrace ())));
            a.(w) <- a.(w) + 1;
            loop ()
          end
        in
        loop ()
      in
      Mutex.protect lock (fun () ->
          running := List.length helpers;
          List.iteri (fun w h -> h.job <- worker (w + 1)) helpers);
      List.iter
        (fun h ->
          ignore (restart (fun () -> Unix.write_substring h.wake_w "x" 0 1)))
        helpers;
      worker 0 ();
      Mutex.protect lock (fun () ->
          while !running > 0 do
            Condition.wait all_done lock
          done;
          serving := false);
      (* deliver in index order, so the first failing *item* (not
         the first failing domain) determines the raised exception *)
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)

let mapi ?domains ?tally f items =
  map ?domains ?tally (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) items)
