let stage_cycles sizes stage =
  (Simulate.run
     { Hw.design_name = "stage"; mems = []; top = stage; par_factor = 1 }
     ~sizes)
    .Simulate.cycles

(* the slowest stage's parallelism is multiplied by this *)
let factor = 4

let boost_pipe = function
  | Hw.Pipe p -> Hw.Pipe { p with par = p.par * factor }
  | c -> c

let apply (design : Hw.design) ~sizes =
  let rec go c =
    match c with
    | Hw.Seq s -> Hw.Seq { s with children = List.map go s.children }
    | Hw.Par p -> Hw.Par { p with children = List.map go p.children }
    | Hw.Loop ({ meta = true; stages; _ } as l) when List.length stages > 1 ->
        let stages = List.map go stages in
        let cycles = List.map (stage_cycles sizes) stages in
        let slowest =
          List.fold_left Float.max 0.0 cycles
        in
        let stages =
          List.map2
            (fun stage c ->
              if c >= slowest -. 0.5 then boost_pipe stage else stage)
            stages cycles
        in
        Hw.Loop { l with stages }
    | Hw.Loop l -> Hw.Loop { l with stages = List.map go l.stages }
    | c -> c
  in
  { design with Hw.top = go design.Hw.top }
