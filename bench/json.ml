(* The JSON of the bench records: build a [t], write it with [to_file].

   Members print as ["key": value], one space after the colon, which
   the CI key checks ([grep -qF '"key": value']) rely on.  A float
   carries the number of digits it prints after the point, so each
   field keeps its recorded precision; NaN and infinities print as
   [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of int * float  (** digits after the point, value *)
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* One member or element per line, indented two spaces per level. *)
let rec add b indent v =
  let block opening closing add_item items =
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i item ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b inner;
        add_item inner item)
      items;
    Printf.bprintf b "\n%s%c" indent closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Float (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float (digits, x) -> Printf.bprintf b "%.*f" digits x
  | String s -> add_string b s
  | List items -> block '[' ']' (fun inner item -> add b inner item) items
  | Obj members ->
      block '{' '}'
        (fun inner (key, item) ->
          add_string b key;
          Buffer.add_string b ": ";
          add b inner item)
        members

let to_file path v =
  let b = Buffer.create 4096 in
  add b "" v;
  Buffer.add_char b '\n';
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
