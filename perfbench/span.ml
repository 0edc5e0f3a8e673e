(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around its calls into
   the library: nothing inside lib/ is instrumented.  Recording is off by
   default and [with_] is then a plain call.  When on, every domain keeps
   its own stack and span list (no lock on the hot path); the lists are
   merged only when the run reads them back.

   A span's self time is its duration minus the durations of its direct
   children, which nest strictly inside it on the same domain. *)

type t = {
  id : int;
  parent : int;  (* id of the enclosing span on this domain, or -1 *)
  req : int;  (* the operation this span belongs to *)
  name : string;
  domain : int;
  t0 : float;  (* seconds since the epoch *)
  t1 : float;
  self : float;  (* seconds *)
}

type frame = { fid : int; ft0 : float; mutable child : float }

type dstate = {
  dom : int;
  mutable stack : frame list;
  mutable spans : t list;  (* newest first *)
}

let on = Atomic.make false
let next_id = Atomic.make 0
let current_req = Atomic.make 0
let states : dstate list ref = ref []
let states_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let st = { dom = (Domain.self () :> int); stack = []; spans = [] } in
      Mutex.protect states_lock (fun () -> states := st :: !states);
      st)

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* Spans recorded from now on are tagged with operation [k].  Operations
   run one at a time (closed loop), so spans on worker domains are tagged
   correctly too. *)
let set_request k = Atomic.set current_req k

let with_ name f =
  if not (Atomic.get on) then f ()
  else begin
    let st = Domain.DLS.get key in
    let parent = match st.stack with [] -> -1 | p :: _ -> p.fid in
    let fr =
      { fid = Atomic.fetch_and_add next_id 1; ft0 = Unix.gettimeofday (); child = 0.0 }
    in
    st.stack <- fr :: st.stack;
    let finish () =
      let t1 = Unix.gettimeofday () in
      let dur = t1 -. fr.ft0 in
      (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
      (match st.stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
      st.spans <-
        { id = fr.fid; parent; req = Atomic.get current_req; name;
          domain = st.dom; t0 = fr.ft0; t1; self = dur -. fr.child }
        :: st.spans
    in
    Fun.protect ~finally:finish f
  end

(* Every span recorded so far, ordered by start time; [clear] drops them.
   Call both only while no pool is running. *)
let collect () =
  let all =
    Mutex.protect states_lock (fun () ->
        List.concat_map (fun st -> st.spans) !states)
  in
  List.sort (fun a b -> Float.compare a.t0 b.t0) all

let clear () =
  Mutex.protect states_lock (fun () ->
      List.iter (fun st -> st.spans <- []) !states)

(* Per-name totals: (name, (self seconds, calls)). *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self, n = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0) in
      Hashtbl.replace tbl s.name (self +. s.self, n + 1))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []

(* Chrome/Perfetto trace-event JSON: one complete ("X") event per span,
   named [<group>.<span>], one track per domain, timestamps in
   microseconds from the first span. *)
let to_chrome_json groups =
  let base =
    List.fold_left
      (fun acc (_, spans) -> List.fold_left (fun acc s -> Float.min acc s.t0) acc spans)
      infinity groups
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun (group, spans) ->
      List.iter
        (fun s ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Printf.bprintf b
            "\n{\"ph\":\"X\",\"name\":\"%s.%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"self_us\":%.3f}}"
            group s.name s.domain
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.req (s.self *. 1e6))
        spans)
    groups;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
