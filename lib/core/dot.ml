let mem_color = function
  | Hw.Buffer -> "lightyellow"
  | Hw.Double_buffer -> "khaki"
  | Hw.Cache -> "lightsalmon"
  | Hw.Fifo -> "lightcyan"
  | Hw.Cam -> "plum"
  | Hw.Reg -> "white"

let esc s =
  if String.contains s '"' then String.map (fun c -> if c = '"' then '\'' else c) s
  else s

let emit (d : Hw.design) =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b in
  let int = Json_out.add_int b in
  let name s = str (esc s) in
  (* ["s"] with [s] escaped *)
  let quoted s =
    Buffer.add_char b '"';
    name s;
    Buffer.add_char b '"'
  in
  str "digraph ";
  name d.Hw.design_name;
  str " {\n  rankdir=TB; node [fontname=\"Helvetica\", fontsize=10];\n";
  (* memories *)
  List.iter
    (fun m ->
      str "  ";
      quoted m.Hw.mem_name;
      str " [shape=box3d, style=filled, fillcolor=";
      str (mem_color m.Hw.kind);
      str ", label=\"";
      name m.Hw.mem_name;
      str "\\n";
      str (Hw_pp.mem_kind_name m.Hw.kind);
      str " ";
      int m.Hw.depth;
      str "x";
      int m.Hw.width_bits;
      str "b\"];\n")
    d.Hw.mems;
  (* controllers as clusters; pipes/loads/stores as nodes *)
  let counter = ref 0 in
  let trip_text = Buffer.create 64 in
  let rec go indent c =
    let pad () = for _ = 1 to indent do Buffer.add_char b ' ' done in
    let edge src dst =
      pad ();
      quoted src;
      str " -> ";
      quoted dst;
      str ";\n"
    in
    let cluster () =
      incr counter;
      pad ();
      str "subgraph cluster_";
      int !counter;
      str " {\n";
      pad ();
      str "  label=\""
    in
    let close () =
      pad ();
      str "}\n"
    in
    let dram array =
      pad ();
      str "\"dram_";
      name array;
      str "\" [shape=cylinder, label=\"DRAM ";
      name array;
      str "\"];\n"
    in
    let transfer nm color =
      pad ();
      quoted nm;
      str " [shape=cds, style=filled, fillcolor=";
      str color;
      str ", label=\"";
      name nm;
      str "\"];\n"
    in
    match c with
    | Hw.Seq { name = nm; children; _ } | Hw.Par { name = nm; children; _ } ->
        cluster ();
        name nm;
        str (match c with Hw.Par _ -> " (parallel)" | _ -> " (sequential)");
        str "\"; style=dashed;\n";
        List.iter (go (indent + 2)) children;
        close ()
    | Hw.Loop { name = nm; meta; stages; trips; _ } ->
        cluster ();
        name nm;
        str (if meta then " (metapipeline, trips=" else " (loop, trips=");
        Buffer.clear trip_text;
        List.iteri
          (fun i t ->
            if i > 0 then Buffer.add_char trip_text 'x';
            Hw.add_trip trip_text t)
          trips;
        name (Buffer.contents trip_text);
        str
          (if meta then ")\"; style=bold; color=blue;\n"
           else ")\"; style=solid; color=black;\n");
        List.iter (go (indent + 2)) stages;
        close ()
    | Hw.Pipe { name = nm; template; uses; defines; _ } ->
        pad ();
        quoted nm;
        str " [shape=component, label=\"";
        name nm;
        str "\\n[";
        str (Hw_pp.template_name template);
        str "]\"];\n";
        List.iter (fun m -> edge m nm) uses;
        List.iter (fun m -> edge nm m) defines
    | Hw.Tile_load { name = nm; mem; array; _ } ->
        transfer nm "lightblue";
        dram array;
        pad ();
        str "\"dram_";
        name array;
        str "\" -> ";
        quoted nm;
        str " -> ";
        quoted mem;
        str ";\n"
    | Hw.Tile_store { name = nm; mem; array; _ } ->
        transfer nm "lightpink";
        dram array;
        pad ();
        Option.iter
          (fun m ->
            quoted m;
            str " -> ")
          mem;
        quoted nm;
        str " -> \"dram_";
        name array;
        str "\";\n"
  in
  go 2 d.Hw.top;
  str "}\n";
  Buffer.contents b
