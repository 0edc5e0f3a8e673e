(* The shared JSON writer: exact escapes, float text at the precisions the
   reports use, and agreement with Printf on arbitrary floats. *)

let render add x =
  let b = Buffer.create 32 in
  add b x;
  Buffer.contents b

let check_escape name input expected =
  Alcotest.(check string) name
    ("\"" ^ expected ^ "\"")
    (render Json_out.add_string input)

let test_escapes () =
  check_escape "quote" "a\"b" {|a\"b|};
  check_escape "backslash" "a\\b" {|a\\b|};
  check_escape "newline" "a\nb" {|a\nb|};
  check_escape "tab" "a\tb" {|a\tb|};
  check_escape "carriage return" "a\rb" {|a\rb|};
  check_escape "0x01" "\x01" {|\u0001|};
  check_escape "0x1f" "x\x1fy" {|x\u001fy|};
  check_escape "0x00" "\x00" {|\u0000|};
  check_escape "0x7f passes" "\x7f" "\x7f";
  check_escape "utf-8 passes" "r\xc3\xa9sum\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\xa5"
    "r\xc3\xa9sum\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\xa5";
  check_escape "empty" "" "";
  check_escape "only specials" "\"\\\n" {|\"\\\n|}

let test_float_text () =
  let f prec v = Json_out.float_str ~prec v in
  let check name expected got = Alcotest.(check string) name expected got in
  check "-0" "-0" (f 6 (-0.0));
  check "0" "0" (f 6 0.0);
  check "below 1e15" "999999999999999" (f 6 999999999999999.0);
  check "negative below 1e15" "-999999999999999" (f 4 (-999999999999999.0));
  check "1e15" "1000000000000000.000000" (f 6 1e15);
  check "-1e15" "-1000000000000000.0000" (f 4 (-1e15));
  check "1e20" "100000000000000000000.000000" (f 6 1e20);
  check "fraction at 4" "0.3333" (f 4 (1.0 /. 3.0));
  check "fraction at 6" "0.333333" (f 6 (1.0 /. 3.0));
  check "negative fraction at 4" "-2.5000" (f 4 (-2.5));
  check "rounding at 4" "0.1235" (f 4 0.12346);
  check "tiny at 6" "0.000000" (f 6 1e-300);
  check "nan" "nan" (f 6 Float.nan);
  check "inf" "inf" (f 4 Float.infinity);
  check "-inf" "-inf" (f 4 Float.neg_infinity);
  check "fixed integral" "1.000000" (render (Json_out.add_fixed ~prec:6) 1.0);
  check "fixed zero at 1" "0.0" (render (Json_out.add_fixed ~prec:1) 0.0);
  let fixed prec v = render (Json_out.add_fixed ~prec) v in
  check "tie at 6 rounds to even" "0.007812" (f 6 0.0078125);
  check "tie at 0 rounds down to even" "2" (f 0 2.5);
  check "tie at 0 rounds up to even" "4" (f 0 3.5);
  check "negative below a half at 0" "-0" (f 0 (-0.4));
  check "carry into the integer part" "1.000000" (f 6 0.9999999);
  check "negative carry" "-1.0000" (f 4 (-0.99999));
  check "carry at 0" "1" (f 0 0.75);
  check "tiny at 9" "0.000000000" (f 9 1e-300);
  check "tiny rounding up at 9" "0.000000001" (f 9 6e-10);
  check "negative tiny keeps its sign" "-0.000000" (f 6 (-1e-7));
  check "just below 1e15" "999999999999999.500000" (f 6 (1e15 -. 0.5));
  check "largest below 1e15" "999999999999999.875" (f 3 (Float.pred 1e15));
  check "just below 1e15 at 0" "-1000000000000000" (f 0 (-.Float.pred 1e15));
  check "fixed -0" "-0.000000" (fixed 6 (-0.0));
  check "fixed tie at 1" "0.2" (fixed 1 0.25);
  check "fixed at 9" "0.333333333" (fixed 9 (1.0 /. 3.0));
  check "fixed above 9 falls back" "0.3333333333" (fixed 10 (1.0 /. 3.0));
  check "general" "1e+20" (render (Json_out.add_general ~prec:6) 1e20);
  check "general fraction" "0.333333"
    (render (Json_out.add_general ~prec:6) (1.0 /. 3.0))

let test_lists () =
  let ints = render (fun b -> Json_out.add_list b Json_out.add_int) in
  Alcotest.(check string) "joined" "1, -2, 3" (ints [ 1; -2; 3 ]);
  Alcotest.(check string) "empty" "" (ints []);
  Alcotest.(check string) "float object" {|{"a\n": 1, "b": 0.500000}|}
    (render (Json_out.add_float_object ~prec:6) [ ("a\n", 1.0); ("b", 0.5) ])

(* what [put s 3] writes into [s] after a 3-byte prefix it must leave
   alone *)
let put_text s put =
  Bytes.blit_string "abc" 0 s 0 3;
  let stop = put s 3 in
  if Bytes.sub_string s 0 3 <> "abc" then "prefix overwritten"
  else Bytes.sub_string s 3 (stop - 3)

let test_put_int () =
  let s = Bytes.create (3 + Json_out.int_room) in
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (put_text s (fun s pos -> Json_out.put_int s pos n)))
    [ 0; 9; 10; 99; 100; 9999; 10000; 123456789; max_int; -1; -10; min_int ];
  let short = Bytes.create (Json_out.int_room - 1) in
  Alcotest.check_raises "no room" (Invalid_argument "Json_out: no room") (fun () ->
      ignore (Json_out.put_int short 0 5));
  Alcotest.check_raises "float, no room" (Invalid_argument "Json_out: no room")
    (fun () -> ignore (Json_out.put_float ~prec:4 (Bytes.create 30) 0 1e300))

(* random bit patterns cover subnormals, huge exponents, nan payloads and
   both infinities; the other branches weight values reports really hold *)
let float_gen =
  QCheck.Gen.(
    frequency
      [ (5, map Int64.float_of_bits ui64);
        ( 2,
          oneofl
            [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1e15;
              -1e15; 1e15 -. 1.0; 0.5; -0.5; 1e300; -1e-300 ] );
        (3, float_range (-1e7) 1e7);
        (2, map (fun n -> float_of_int n /. 8.0) (int_range (-100000) 100000));
        (* n / 2^j is a decimal tie at prec j - 1 when n is odd *)
        ( 3,
          map2
            (fun n j -> Float.ldexp (float_of_int n) (-j))
            (int_range (-10_000_000) 10_000_000)
            (int_range 1 11) ) ])

let float_arb = QCheck.make ~print:(Printf.sprintf "%h") float_gen

let prop_matches_printf =
  QCheck.Test.make ~name:"float text matches Printf at every prec 0-9"
    ~count:5000 float_arb (fun v ->
      let bytes = Bytes.create (3 + Json_out.float_room ~prec:9) in
      List.for_all
        (fun prec ->
          let fixed = Printf.sprintf "%.*f" prec v in
          let expected =
            if Float.is_integer v && Float.abs v < 1e15 then
              Printf.sprintf "%.0f" v
            else fixed
          in
          let text = Json_out.float_str ~prec v in
          text = expected
          && put_text bytes (fun s pos -> Json_out.put_float ~prec s pos v) = text
          && render (Json_out.add_fixed ~prec) v = fixed
          && render (Json_out.add_general ~prec) v
             = Printf.sprintf "%.*g" prec v)
        (List.init 10 Fun.id))

let () =
  Alcotest.run "json_out"
    [ ( "writer",
        [ Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "float text" `Quick test_float_text;
          Alcotest.test_case "lists and objects" `Quick test_lists;
          Alcotest.test_case "integers in place" `Quick test_put_int;
          QCheck_alcotest.to_alcotest prop_matches_printf ] ) ]
