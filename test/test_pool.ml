(* The domain pool behind the parallel sweeps: Pool.map must equal
   List.map exactly — same order, same values — at every domain count,
   and exceptions must surface deterministically. *)

let test_order_preserved () =
  let items = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains=%d" domains)
        (List.map f items)
        (Pool.map ~domains f items))
    [ 1; 2; 4; 8 ]

let test_default_domains () =
  Alcotest.(check bool) "at least one" true (Pool.default_domains () >= 1)

let test_mapi () =
  Alcotest.(check (list string))
    "mapi" [ "0a"; "1b"; "2c" ]
    (Pool.mapi ~domains:3 (fun i s -> string_of_int i ^ s) [ "a"; "b"; "c" ])

exception Boom of int

let test_first_exception_wins () =
  (* items 3 and 7 both raise; the smallest-index failure is the one
     reported, independent of which domain hit it first *)
  let f x = if x mod 4 = 3 then raise (Boom x) else x in
  List.iter
    (fun domains ->
      match Pool.map ~domains f (List.init 10 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "first failing item (domains=%d)" domains)
            3 n)
    [ 1; 2; 4 ]

let test_tally () =
  (* the per-domain completed counters account for every item exactly
     once, at every domain count, without perturbing the results *)
  let items = List.init 100 (fun i -> i) in
  let f x = x * 3 in
  List.iter
    (fun domains ->
      let tally = Pool.tally () in
      let out = Pool.map ~domains ~tally f items in
      Alcotest.(check (list int))
        (Printf.sprintf "results unchanged (domains=%d)" domains)
        (List.map f items) out;
      let sum = Array.fold_left ( + ) 0 tally.Pool.per_domain in
      Alcotest.(check int)
        (Printf.sprintf "counts sum to item count (domains=%d)" domains)
        (List.length items) sum;
      Alcotest.(check bool)
        (Printf.sprintf "worker count bounded (domains=%d)" domains)
        true
        (Array.length tally.Pool.per_domain >= 1
        && Array.length tally.Pool.per_domain <= Int.max 1 domains))
    [ 1; 2; 4; 16 ];
  (* edges: empty and singleton inputs still produce a consistent tally *)
  let t0 = Pool.tally () in
  ignore (Pool.map ~domains:4 ~tally:t0 (fun x -> x) []);
  Alcotest.(check int) "empty input" 0 (Array.fold_left ( + ) 0 t0.Pool.per_domain);
  let t1 = Pool.tally () in
  ignore (Pool.map ~domains:4 ~tally:t1 (fun x -> x) [ 42 ]);
  Alcotest.(check int) "singleton input" 1
    (Array.fold_left ( + ) 0 t1.Pool.per_domain)

let test_edge_shapes () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 (fun x -> x) []);
  Alcotest.(check (list int))
    "singleton" [ 7 ]
    (Pool.map ~domains:4 (fun x -> x + 3) [ 4 ]);
  Alcotest.(check (list int))
    "more domains than items" [ 2; 4 ]
    (Pool.map ~domains:16 (fun x -> 2 * x) [ 1; 2 ])

(* ---------------- persistent helpers ---------------- *)

(* [rendezvous n] is a job for [n] items that each wait (up to 2 s) until
   all [n] have started, so a [~domains:n] map runs one item per worker
   and no worker can take two. *)
let rendezvous n =
  let started = Atomic.make 0 in
  fun x ->
    Atomic.incr started;
    let t0 = Unix.gettimeofday () in
    while Atomic.get started < n && Unix.gettimeofday () -. t0 < 2.0 do
      Domain.cpu_relax ()
    done;
    x

(* The ids of the domains other than the caller's that ran a two-item
   [~domains:2] map. *)
let helper_ids () =
  let job = rendezvous 2 in
  Pool.map ~domains:2 (fun () -> job (Domain.self () :> int)) [ (); () ]
  |> List.filter (fun id -> id <> (Domain.self () :> int))

let test_helpers_persist () =
  (* back-to-back maps run on the same helper; a map after several
     lingers runs on a fresh one.  A helper can retire between two maps
     if the caller is descheduled for a whole linger, so the reuse check
     gets a few attempts; a pool that spawns per map fails all of them. *)
  let rec reused attempts =
    let first = helper_ids () in
    let second = helper_ids () in
    Alcotest.(check int) "one helper ran an item" 1 (List.length first);
    if first = second || attempts = 1 then (first, second)
    else reused (attempts - 1)
  in
  let first, second = reused 5 in
  Alcotest.(check (list int)) "same helper for consecutive maps" first second;
  Unix.sleepf (10.0 *. Pool.linger);
  let later = helper_ids () in
  Alcotest.(check int) "one helper after idling" 1 (List.length later);
  Alcotest.(check bool) "fresh helper after idling" true
    (not (List.mem (List.hd later) first))

let test_nested_map_inline () =
  (* a map inside a job runs inline on the job's domain, one worker *)
  let items = List.init 20 Fun.id in
  let inner x = List.init 10 (fun y -> (x * 10) + y) in
  let wide = Atomic.make 0 in
  let nested x =
    let tally = Pool.tally () in
    let ys = Pool.map ~domains:2 ~tally (fun y -> (x * 10) + y) (List.init 10 Fun.id) in
    if Array.length tally.Pool.per_domain <> 1 then Atomic.incr wide;
    ys
  in
  Alcotest.(check (list (list int)))
    "equals List.map" (List.map inner items)
    (Pool.map ~domains:2 nested items);
  Alcotest.(check int) "nested maps on more than one worker" 0 (Atomic.get wide)

let test_concurrent_callers () =
  (* a second domain maps while the first domain's map is in flight (its
     items wait for the second map to return): the second map runs
     inline, and both get List.map's result *)
  let items = List.init 50 Fun.id in
  let f x = (x * x) + 1 in
  let started = Atomic.make false and second_done = Atomic.make false in
  let waiting x =
    Atomic.set started true;
    let t0 = Unix.gettimeofday () in
    while (not (Atomic.get second_done)) && Unix.gettimeofday () -. t0 < 2.0 do
      Domain.cpu_relax ()
    done;
    f x
  in
  let first = Domain.spawn (fun () -> Pool.map ~domains:2 waiting items) in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let tally = Pool.tally () in
  let second = Pool.map ~domains:2 ~tally f items in
  Atomic.set second_done true;
  Alcotest.(check (list int)) "second map" (List.map f items) second;
  Alcotest.(check (list int)) "first map" (List.map f items) (Domain.join first);
  Alcotest.(check int) "second map ran inline" 1 (Array.length tally.Pool.per_domain);
  (* and under free-running contention *)
  let items = List.init 500 Fun.id in
  let f x = List.fold_left ( + ) x (List.init 50 (fun i -> i * x)) in
  let go = Atomic.make false in
  let calls () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    List.init 30 (fun _ -> Pool.map ~domains:2 f items)
  in
  let other = Domain.spawn calls in
  Atomic.set go true;
  let mine = calls () in
  List.iter
    (fun (who, results) ->
      List.iteri
        (fun k r ->
          Alcotest.(check (list int)) (Printf.sprintf "%s map %d" who k) (List.map f items) r)
        results)
    [ ("caller", mine); ("second domain", Domain.join other) ]

let test_map_after_raise () =
  (* a helper that ran a raising item serves the next map *)
  let job = rendezvous 2 in
  (match Pool.map ~domains:2 (fun x -> raise (Boom (job x))) [ 0; 1 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> Alcotest.(check int) "first failing item" 0 n);
  let job = rendezvous 2 in
  let tally = Pool.tally () in
  Alcotest.(check (list int))
    "next map" [ 10; 11 ]
    (Pool.map ~domains:2 ~tally (fun x -> job x + 10) [ 0; 1 ]);
  Alcotest.(check (array int)) "both workers ran an item" [| 1; 1 |]
    tally.Pool.per_domain

let test_above_domain_limit () =
  (* more domains than the runtime allows at once: the map runs on the
     helpers it could get *)
  let items = List.init 200 Fun.id in
  let tally = Pool.tally () in
  Alcotest.(check (list int))
    "equals List.map"
    (List.map (fun x -> x * 7) items)
    (Pool.map ~domains:200 ~tally (fun x -> x * 7) items);
  Alcotest.(check int) "every item counted" 200
    (Array.fold_left ( + ) 0 tally.Pool.per_domain)

let test_descriptor_above_fd_setsize () =
  (* with 1,100 descriptors open, a fresh helper's wake-up pipe lies
     above select's FD_SETSIZE (1024): helpers must still serve every
     map.  Idling first retires the helpers whose pipes lie below. *)
  Unix.sleepf (10.0 *. Pool.linger);
  let rec open_many n acc =
    if n = 0 then Some acc
    else
      match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
      | fd -> open_many (n - 1) (fd :: acc)
      | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
          List.iter Unix.close acc;
          None
  in
  match open_many 1100 [] with
  | None -> ()  (* the descriptor limit is below FD_SETSIZE *)
  | Some fds ->
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close fds)
        (fun () ->
          for k = 1 to 3 do
            let job = rendezvous 2 in
            Alcotest.(check (list int))
              (Printf.sprintf "map %d" k) [ k; k + 1 ]
              (Pool.map ~domains:2 (fun x -> job x + k) [ 0; 1 ])
          done)

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "default domains" `Quick test_default_domains;
          Alcotest.test_case "mapi" `Quick test_mapi;
          Alcotest.test_case "first exception wins" `Quick
            test_first_exception_wins;
          Alcotest.test_case "tally" `Quick test_tally;
          Alcotest.test_case "edge shapes" `Quick test_edge_shapes ] );
      ( "persistent helpers",
        [ Alcotest.test_case "helpers persist, then retire" `Quick
            test_helpers_persist;
          Alcotest.test_case "nested map runs inline" `Quick
            test_nested_map_inline;
          Alcotest.test_case "concurrent callers" `Quick
            test_concurrent_callers;
          Alcotest.test_case "map after a raising map" `Quick
            test_map_after_raise;
          (* before the domain-limit case, whose 127 helpers take long
             enough to exit that their freed descriptors could be
             reused for the next pipe *)
          Alcotest.test_case "descriptor above FD_SETSIZE" `Quick
            test_descriptor_above_fd_setsize;
          Alcotest.test_case "above the domain limit" `Quick
            test_above_domain_limit ] ) ]
