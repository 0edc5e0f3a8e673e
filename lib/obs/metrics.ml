type value =
  | Counter of int
  | Gauge of float
  | Timer of { seconds : float; count : int }

(* minor-heap words as a float, as [Gc.minor_words] counts them *)
type timer_state = {
  mutable t_seconds : float;
  mutable t_count : int;
  mutable t_words : float;
}

type entry =
  | Ecounter of int Atomic.t
  | Egauge of float ref
  | Etimer of timer_state

let lock = Mutex.create ()
let tbl : (string, entry) Hashtbl.t = Hashtbl.create 64

let find_or name mk =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some e -> e
      | None ->
          let e = mk () in
          Hashtbl.add tbl name e;
          e)

let incr ?(by = 1) name =
  match find_or name (fun () -> Ecounter (Atomic.make 0)) with
  | Ecounter a -> ignore (Atomic.fetch_and_add a by)
  | _ -> ()

let set_gauge name v =
  match find_or name (fun () -> Egauge (ref v)) with
  | Egauge r -> Mutex.protect lock (fun () -> r := v)
  | _ -> ()

(* [Gc.minor_words] counts the calling domain's allocations only *)
let time name f =
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 and dw = Gc.minor_words () -. w0 in
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt tbl name with
        | Some (Etimer t) ->
            t.t_seconds <- t.t_seconds +. dt;
            t.t_count <- t.t_count + 1;
            t.t_words <- t.t_words +. dw
        | Some _ -> ()
        | None ->
            Hashtbl.add tbl name
              (Etimer { t_seconds = dt; t_count = 1; t_words = dw }))
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let snapshot () =
  let entries =
    Mutex.protect lock (fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) tbl [])
  in
  entries
  |> List.concat_map (fun (k, e) ->
         match e with
         | Ecounter a -> [ (k, Counter (Atomic.get a)) ]
         | Egauge r -> [ (k, Gauge !r) ]
         | Etimer t ->
             [ (k, Timer { seconds = t.t_seconds; count = t.t_count });
               (k ^ ".words", Counter (Float.to_int t.t_words)) ])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~base cur =
  let base_of k = List.assoc_opt k base in
  List.filter_map
    (fun (k, v) ->
      match (v, base_of k) with
      | Counter n, Some (Counter n0) ->
          if n = n0 then None else Some (k, Counter (n - n0))
      | Timer { seconds; count }, Some (Timer { seconds = s0; count = c0 }) ->
          if count = c0 && seconds = s0 then None
          else Some (k, Timer { seconds = seconds -. s0; count = count - c0 })
      | Gauge _, Some (Gauge _) -> Some (k, v)
      (* new since the baseline, or rebound to another kind: report as-is *)
      | _, _ -> Some (k, v))
    cur

let values_to_json snap =
  let b = Buffer.create 1024 in
  let str = Buffer.add_string b in
  (* ["name": {"key": value, ...}] over the entries [pick] selects *)
  let section name pick add =
    str "\"";
    str name;
    str "\": {";
    Json_out.add_list b
      (fun b (k, x) ->
        Json_out.add_string b k;
        str ": ";
        add x)
      (List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (pick v))
         snap);
    str "}"
  in
  str "{";
  section "counters"
    (function Counter n -> Some n | _ -> None)
    (Json_out.add_int b);
  str ", ";
  section "gauges"
    (function Gauge v -> Some v | _ -> None)
    (Json_out.add_general ~prec:6 b);
  str ", ";
  section "timers"
    (function Timer { seconds; count } -> Some (seconds, count) | _ -> None)
    (fun (seconds, count) ->
      str "{\"seconds\": ";
      Json_out.add_fixed ~prec:6 b seconds;
      str ", \"count\": ";
      Json_out.add_int b count;
      str "}");
  str "}\n";
  Buffer.contents b

let to_json () = values_to_json (snapshot ())

let pp_values fmt snap =
  if snap <> [] then Format.fprintf fmt "metrics@.";
  List.iter
    (fun (k, v) ->
      match v with
      | Counter n -> Format.fprintf fmt "  %-42s %14d@." k n
      | Gauge v -> Format.fprintf fmt "  %-42s %14.6g@." k v
      | Timer { seconds; count } ->
          Format.fprintf fmt "  %-42s %11.3f ms  (%d calls)@." k
            (1e3 *. seconds) count)
    snap

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset tbl)
