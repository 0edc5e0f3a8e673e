(* Random argument vectors through the built CLI.  Whatever the target
   (a suite benchmark, a corpus or malformed .ppl file, a directory, a
   missing path, a random word), the --sizes and --tiles names (real,
   unknown or repeated) and values (1, a prime, maxsize, maxsize + 1, 0,
   -1, 2^31) and the configuration, every run must end in 0 (ok), 1 (bad
   input file or error diagnostics) or 124 (usage error): never 2, never
   125 (an uncaught exception) and never a hang. *)

let exe = "../bin/main.exe"

(* far above any run's time: only a hang reaches it *)
let timeout_s = 30.0

let files =
  List.map
    (fun f -> "../corpus/" ^ f ^ ".ppl")
    [ "average"; "saxpy"; "possum"; "rowdot"; "bad_race"; "bad_nonaffine" ]
  @ [ "bad_empty.ppl"; "bad_unclosed.ppl"; "bad_unbound.ppl";
      "bad_ill_typed.ppl" ]

let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 8))

(* anything but a benchmark name: the bench-only commands must reject it *)
let non_bench =
  QCheck.Gen.(
    oneof [ oneofl files; oneofl [ "."; "../corpus"; "missing/nosuch.ppl" ];
            word ])

let target =
  QCheck.Gen.(
    oneof
      [ oneofl (List.map (fun b -> b.Suite.name) (Suite.extended ()));
        non_bench ])

(* the suite's and the corpus's size-parameter names, plus unknown ones;
   a spec of up to three draws often repeats a name.  The corpus's names
   n and m and in-range values weigh more, so valid and partial size
   sets come up too. *)
let spec =
  QCheck.Gen.(
    let name =
      frequencyl
        [ (3, "n"); (3, "m"); (1, "k"); (1, "d"); (1, "p"); (1, "q");
          (1, "nosuch") ]
    in
    let value =
      frequencyl
        [ (1, 1); (1, 7); (1, 13); (2, 64); (2, 1024); (2, 4096); (1, 16384);
          (1, 16385); (1, 1048576); (1, 1048577); (1, 0); (1, -1);
          (1, 1 lsl 31) ]
    in
    map
      (fun l ->
        String.concat ","
          (List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) l))
      (list_size (1 -- 3) (pair name value)))

let argv =
  QCheck.Gen.(
    let flag name g =
      map (Option.fold ~none:[] ~some:(fun v -> [ name; v ])) (opt g)
    in
    oneofl [ "compile"; "profile"; "lint-ir"; "simulate"; "timeline" ]
    >>= fun cmd ->
    (match cmd with "simulate" | "timeline" -> non_bench | _ -> target)
    >>= fun t ->
    flag "--sizes" spec >>= fun sizes ->
    flag "--tiles" spec >>= fun tiles ->
    flag "-c" (oneofl [ "baseline"; "tiled"; "meta" ]) >>= fun config ->
    return ((cmd :: t :: sizes) @ tiles @ config))

(* the exit code, or why there is none *)
let run args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null null null
  in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Error (Printf.sprintf "no exit within %.0f s" timeout_s)
    | 0, _ ->
        Unix.sleepf 0.001;
        wait ()
    | _, Unix.WEXITED c -> Ok c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "stopped by signal %d" s)
  in
  wait ()

let prop_exit_codes =
  QCheck.Test.make ~name:"cli: random arguments exit 0, 1 or 124" ~count:150
    (QCheck.make ~print:(String.concat " ") argv)
    (fun args ->
      match run args with
      | Ok (0 | 1 | 124) -> true
      | Ok c -> QCheck.Test.fail_reportf "exit %d" c
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let () =
  Alcotest.run "cli_fuzz"
    [ ("exit codes", [ QCheck_alcotest.to_alcotest prop_exit_codes ]) ]
