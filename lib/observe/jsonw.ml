type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
  else Buffer.add_string buf "null"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_channel oc v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Parsing — just enough to read our own output back (the benchmark
   result cache): full RFC 8259 value grammar, \uXXXX escapes decoded
   to UTF-8, numbers with '.'/'e' become [Float], the rest [Int]. *)

exception Parse_error of string

type parser_state = { s : string; mutable pos : int }

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let fail p msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  while
    p.pos < String.length p.s
    && match p.s.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some x when x = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected %C" c)

let literal p word value =
  let n = String.length word in
  if p.pos + n <= String.length p.s && String.sub p.s p.pos n = word then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "expected %s" word)

let hex4 p =
  if p.pos + 4 > String.length p.s then fail p "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub p.s p.pos 4) in
  p.pos <- p.pos + 4;
  v

let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> p.pos <- p.pos + 1
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | None -> fail p "truncated escape"
        | Some c ->
            p.pos <- p.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' -> add_utf8 buf (hex4 p)
            | _ -> fail p "bad escape");
            go ())
    | Some c ->
        p.pos <- p.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while p.pos < String.length p.s && is_num_char p.s.[p.pos] do
    p.pos <- p.pos + 1
  done;
  let text = String.sub p.s start (p.pos - start) in
  let has c = String.contains text c in
  if has '.' || has 'e' || has 'E' then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail p "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> fail p "bad number"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> literal p "null" Null
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some '"' -> Str (parse_string p)
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value p ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          items := parse_value p :: !items;
          skip_ws p
        done;
        expect p ']';
        List (List.rev !items)
      end
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let member () =
          skip_ws p;
          let k = parse_string p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          (k, v)
        in
        let items = ref [ member () ] in
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          items := member () :: !items
        done;
        expect p '}';
        Obj (List.rev !items)
      end
  | Some _ -> parse_number p

let of_string s =
  let p = { s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then Error "trailing garbage" else Ok v
  | exception Parse_error msg -> Error msg

let int_obj kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)

(* Obj member access for cache readers *)
let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
