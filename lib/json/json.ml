(* Minimal JSON: a recursive-descent parser and a deterministic compact
   printer.  Every JSON document the program writes — cache entries,
   server messages, reports, metrics and trace dumps — goes through this
   one printer.  Documents are small (a few KiB to a few MiB), so
   simplicity beats throughput here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> String.equal k k' && equal v v')
         xs ys
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _), _ -> false

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr v =
  if not (Float.is_finite v) then "null"
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.17g" v in
    let shorter = Printf.sprintf "%.15g" v in
    if float_of_string shorter = v then shorter else s

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List elts ->
    Buffer.add_char b '[';
    List.iteri
      (fun i elt ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b elt)
      elts;
    Buffer.add_char b ']'
  | Obj members ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\":";
        to_buffer b v)
      members;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Parse_error (Printf.sprintf "at offset %d: %s" c.pos msg)))
    fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    &&
    match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c "expected %C, found %C" ch x
  | None -> fail c "expected %C, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c "invalid literal"

(* Encode a Unicode scalar value as UTF-8 bytes. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub c.src c.pos 4) in
  c.pos <- c.pos + 4;
  v

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
      c.pos <- c.pos + 1;
      match peek c with
      | None -> fail c "unterminated escape"
      | Some e ->
        c.pos <- c.pos + 1;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> (
          match parse_hex4 c with
          | exception _ -> fail c "invalid \\u escape"
          | u -> add_utf8 b u)
        | e -> fail c "invalid escape \\%C" e);
        go ())
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && is_num_char c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "invalid number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail c "invalid number %S" s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
    c.pos <- c.pos + 1;
    Str (parse_string_body c)
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else
      let rec elts acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          elts (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (elts [])
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else
      let member () =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        (k, parse_value c)
      in
      let rec members acc =
        let m = member () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members (m :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev (m :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (members [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c "unexpected character %C" ch

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length src then
      Error (Printf.sprintf "at offset %d: trailing input" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
