let check (d : Hw.design) =
  let diags = ref [] in
  let bad ?(path = []) ~code where fmt =
    Printf.ksprintf
      (fun message ->
        diags :=
          { Diagnostic.code; severity = Diagnostic.Error; path; where; message }
          :: !diags)
      fmt
  in
  let mem_names = List.map (fun m -> m.Hw.mem_name) d.Hw.mems in
  (* memory table sanity *)
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup mem_names with
  | Some n -> bad ~code:"HW001" n "duplicate memory name"
  | None -> ());
  List.iter
    (fun m ->
      if m.Hw.width_bits <= 0 then
        bad ~code:"HW003" m.Hw.mem_name "non-positive width";
      if m.Hw.depth <= 0 then
        bad ~code:"HW003" m.Hw.mem_name "non-positive depth";
      if m.Hw.banks <= 0 then
        bad ~code:"HW003" m.Hw.mem_name "non-positive banks")
    d.Hw.mems;
  (* controller names unique *)
  let ctrl_names =
    List.rev (Hw.fold_ctrls (fun acc c -> Hw.ctrl_name c :: acc) [] d.Hw.top)
  in
  (match dup ctrl_names with
  | Some n -> bad ~code:"HW002" n "duplicate controller name"
  | None -> ());
  (* reference map: for each memory, the path of the first controller
     referencing it, and whether any reference sits under a metapipelined
     loop *)
  let written = Hashtbl.create 16 and read = Hashtbl.create 16 in
  let under_meta = Hashtbl.create 16 in
  let rec walk path meta c =
    let w, r = Hw.mem_refs c in
    let here = path @ [ Hw.ctrl_name c ] in
    List.iter
      (fun n ->
        if not (Hashtbl.mem written n) then Hashtbl.add written n here;
        if meta then Hashtbl.replace under_meta n ())
      w;
    List.iter
      (fun n ->
        if not (Hashtbl.mem read n) then Hashtbl.add read n here;
        if meta then Hashtbl.replace under_meta n ())
      r;
    let meta' =
      match c with Hw.Loop { meta = m; _ } -> meta || m | _ -> meta
    in
    List.iter (walk here meta') (Hw.children c)
  in
  walk [] false d.Hw.top;
  let referenced n = Hashtbl.mem written n || Hashtbl.mem read n in
  (* dangling references *)
  Hashtbl.iter
    (fun n path ->
      if not (List.mem n mem_names) then
        bad ~code:"HW004" ~path n "written but not declared")
    written;
  Hashtbl.iter
    (fun n path ->
      if not (List.mem n mem_names) then
        bad ~code:"HW005" ~path n "read but not declared")
    read;
  (* declared but unused; write-only / read-only anomalies *)
  List.iter
    (fun m ->
      let n = m.Hw.mem_name in
      if not (referenced n) then
        bad ~code:"HW006" n "declared but never referenced"
      else begin
        (* caches are demand-filled from DRAM, not by a controller *)
        if (not (Hashtbl.mem written n)) && m.Hw.kind <> Hw.Cache then
          bad ~code:"HW007" n "read but never written (no producer)";
        if not (Hashtbl.mem read n) then
          bad ~code:"HW008" n "written but never read";
        match m.Hw.kind with
        | Hw.Double_buffer ->
            if not (Hashtbl.mem under_meta n) then
              bad ~code:"HW009" n "double buffer entirely outside metapipelines"
        | Hw.Fifo ->
            if not (Hashtbl.mem written n && Hashtbl.mem read n) then
              bad ~code:"HW010" n "FIFO must have both a producer and a consumer"
        | _ -> ()
      end)
    d.Hw.mems;
  (* controller-local invariants *)
  Hw.iter_ctrls_path
    (fun path c ->
      match c with
      | Hw.Pipe { name; par; ii; depth; trips; template; _ } ->
          if par < 1 then bad ~code:"HW011" ~path name "par < 1";
          if ii < 1 then bad ~code:"HW011" ~path name "ii < 1";
          if depth < 0 then bad ~code:"HW011" ~path name "negative depth";
          (* a scalar unit legitimately runs once with no loop dims *)
          if trips = [] && template <> Hw.Scalar_unit then
            bad ~code:"HW011" ~path name "pipe with no iteration space"
      | Hw.Loop { name; trips; stages; _ } ->
          if trips = [] then bad ~code:"HW012" ~path name "loop with no trips";
          if stages = [] then bad ~code:"HW012" ~path name "loop with no stages"
      | Hw.Seq { name; children; _ } | Hw.Par { name; children; _ } ->
          if children = [] then
            bad ~code:"HW013" ~path name "controller with no children"
      | Hw.Tile_load _ | Hw.Tile_store _ -> ())
    d.Hw.top;
  List.sort Diagnostic.compare !diags

let check_exn d =
  match check d with
  | [] -> ()
  | fs ->
      failwith
        (String.concat "; "
           (List.map
              (fun f ->
                Printf.sprintf "%s: %s" f.Diagnostic.where f.Diagnostic.message)
              fs))
