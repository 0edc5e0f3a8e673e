type t = { origin : string; trail : string list }

let none = { origin = ""; trail = [] }
let is_none p = p.origin = "" && p.trail = []
let root origin = { origin; trail = [] }

let push p frame =
  if is_none p then { origin = frame; trail = [] }
  else { p with trail = p.trail @ [ frame ] }

let frames p = if is_none p then [] else p.origin :: p.trail

let add_text add_frame b p =
  match frames p with
  | [] -> Buffer.add_string b "<none>"
  | f :: fs ->
      add_frame b f;
      List.iter
        (fun f ->
          Buffer.add_string b " -> ";
          add_frame b f)
        fs

let to_string p =
  let b = Buffer.create 64 in
  add_text Buffer.add_string b p;
  Buffer.contents b

let sanitize_frame s =
  String.map
    (fun c ->
      match c with
      | ';' | ' ' | '\t' | '\n' | '\r' -> '_'
      | c when Char.code c < 0x20 -> '_'
      | c -> c)
    s

let folded p =
  match frames p with
  | [] -> "<none>"
  | fs -> String.concat ";" (List.map sanitize_frame fs)
