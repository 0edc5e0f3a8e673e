(* memories that couple two different stages of a metapipeline *)
let promoted design =
  let promote = Hashtbl.create 16 in
  Hw.iter_ctrls
    (function
      | Hw.Loop { meta = true; stages; _ } ->
          let infos = List.map Hw.subtree_refs stages in
          List.iteri
            (fun i (writes, _) ->
              List.iter
                (fun m ->
                  List.iteri
                    (fun j (_, reads) ->
                      if i <> j && List.mem m reads then
                        Hashtbl.replace promote m ())
                    infos)
                writes)
            infos
      | _ -> ())
    design.Hw.top;
  promote

(* record which metapipeline stage slot a controller occupies in its
   provenance trail, so profiles can attribute overlap behavior; skipped
   when the frame is already present, making re-finalization idempotent *)
let stage_frame i = "metapipe.stage" ^ string_of_int (i + 1)

let has_stage_frame p =
  match List.rev (Prov.frames p) with
  | last :: _ ->
      String.length last >= 14 && String.sub last 0 14 = "metapipe.stage"
  | [] -> false

let rec annotate_stage_provs c =
  match c with
  | Hw.Seq r ->
      Hw.Seq { r with children = List.map annotate_stage_provs r.children }
  | Hw.Par r ->
      Hw.Par { r with children = List.map annotate_stage_provs r.children }
  | Hw.Loop r ->
      let stages = List.map annotate_stage_provs r.stages in
      let stages =
        if r.meta && List.length stages > 1 then
          List.mapi
            (fun i s ->
              let p = Hw.ctrl_prov s in
              if has_stage_frame p then s
              else Hw.with_prov s (Prov.push p (stage_frame i)))
            stages
        else stages
      in
      Hw.Loop { r with stages }
  | Hw.Pipe _ | Hw.Tile_load _ | Hw.Tile_store _ -> c

let finalize_uninstrumented (design : Hw.design) =
  let design = { design with Hw.top = annotate_stage_provs design.Hw.top } in
  let promote = promoted design in
  let mems =
    List.map
      (fun m ->
        if Hashtbl.mem promote m.Hw.mem_name && m.Hw.kind = Hw.Buffer then
          { m with Hw.kind = Hw.Double_buffer }
        else m)
      design.Hw.mems
  in
  Hw.count_ports { design with Hw.mems }

let metapipe_pass = Trace.pass "metapipe"

let finalize (design : Hw.design) =
  metapipe_pass
    ~args:(fun d ->
      let dbufs =
        List.length
          (List.filter (fun m -> m.Hw.kind = Hw.Double_buffer) d.Hw.mems)
      in
      [ ("design", Trace.Str d.Hw.design_name);
        ("double_buffers", Trace.Int dbufs) ])
    (fun () -> finalize_uninstrumented design)
