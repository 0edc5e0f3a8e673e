type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  path : string list;
  where : string;
  message : string;
}

let make ?(path = []) ~code ~severity ~where fmt =
  Printf.ksprintf
    (fun message -> { code; severity; path; where; message })
    fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Codes are an alphabetic family plus a number ("HW101", "PPL230");
   plain string comparison would order "HW101" before "HW90" and make
   mixed HW+PPL lists depend on zero padding, so split and compare the
   numeric part as a number.  Codes that do not fit the pattern fall
   back to string order after the well-formed ones. *)
let split_code c =
  let n = String.length c in
  let rec alpha i =
    if i < n && (c.[i] < '0' || c.[i] > '9') then alpha (i + 1) else i
  in
  let k = alpha 0 in
  if k = n then (String.sub c 0 k, -1)
  else
    match int_of_string_opt (String.sub c k (n - k)) with
    | Some num -> (String.sub c 0 k, num)
    | None -> (c, -1)

let compare_codes a b =
  let pa, na = split_code a and pb, nb = split_code b in
  match String.compare pa pb with
  | 0 -> ( match Int.compare na nb with 0 -> String.compare a b | c -> c)
  | c -> c

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match compare_codes a.code b.code with
      | 0 -> (
          match
            Stdlib.compare (a.path @ [ a.where ]) (b.path @ [ b.where ])
          with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let summary ds =
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
  match
    List.filter_map
      (fun (s, word) ->
        let n = count s in
        if n = 0 then None else Some (plural n word))
      [ (Error, "error"); (Warning, "warning"); (Info, "info") ]
  with
  | [] -> "clean"
  | parts -> String.concat ", " parts

let pp_path fmt = function
  | [] -> ()
  | path -> Format.fprintf fmt " [%s]" (String.concat "/" path)

let pp fmt d =
  Format.fprintf fmt "%s %s%a: %s: %s" d.code (severity_name d.severity)
    pp_path d.path d.where d.message

let pp_list fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp d) (List.sort compare ds)

let add_json b d =
  let str = Buffer.add_string b in
  str "{\"code\": ";
  Json_out.add_string b d.code;
  str ", \"severity\": ";
  Json_out.add_string b (severity_name d.severity);
  str ", \"path\": [";
  Json_out.add_list b Json_out.add_string d.path;
  str "], \"where\": ";
  Json_out.add_string b d.where;
  str ", \"message\": ";
  Json_out.add_string b d.message;
  str "}"

let list_to_json ds =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  Json_out.add_list b add_json (List.sort compare ds);
  Buffer.add_char b ']';
  Buffer.contents b
