(* Minimal JSON: a recursive-descent parser for the serve request
   protocol and the escape/print helpers every JSON-emitting corner of
   the tree shares (CLI --format json, serve responses, Stats.to_json
   renders its own). No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

let quote s = Printf.sprintf "\"%s\"" (escape s)
let arr items = Printf.sprintf "[%s]" (String.concat "," items)

let obj fields =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (quote k) v) fields))

(* JSON has no infinity or NaN, so those render as null. A finite
   float renders as the shortest of %.15g / %.17g that reads back as
   the same float: integers stay integers, and no id or figure is
   rounded away. *)
let number f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> number f
  | Str s -> quote s
  | Arr items -> arr (List.map to_string items)
  | Obj fields -> obj (List.map (fun (k, v) -> (k, to_string v)) fields)

(* ---- accessors ------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function Arr items -> Some items | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* ---- parsing -------------------------------------------------------- *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

(* UTF-8 encode one code point (for \uXXXX escapes; surrogate pairs are
   combined by the caller) *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail !pos "unterminated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = hex4 () in
          let cp =
            if cp >= 0xd800 && cp <= 0xdbff then begin
              (* high surrogate: expect a \uXXXX low surrogate next *)
              if
                !pos + 2 <= n
                && s.[!pos] = '\\'
                && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                else fail !pos "invalid low surrogate"
              end
              else fail !pos "lone high surrogate"
            end
            else cp
          in
          add_utf8 buf cp
        | c -> fail !pos (Printf.sprintf "bad escape '\\%c'" c));
        loop ()
      | c when Char.code c < 0x20 -> fail !pos "raw control character"
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let span = String.sub s start (!pos - start) in
    match float_of_string_opt span with
    | Some f -> Num f
    | None -> fail start (Printf.sprintf "bad number %S" span)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec elems () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            elems ()
          | Some ']' -> advance ()
          | _ -> fail !pos "expected ',' or ']'"
        in
        elems ();
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ field () ] in
        let rec members () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            members ()
          | Some '}' -> advance ()
          | _ -> fail !pos "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected character '%c'" c)
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "at byte %d: trailing input" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg
