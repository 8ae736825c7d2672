(* The committed bench baselines: one codec and one regression gate.

   A baseline is the JSON document a gated bench mode writes: its
   "benchmark" name, its problem "scale", then named sections (such as
   "entries") holding one flat object per line, {"app": "cg", ...}.
   Values are strings, integers or fixed-point numbers; a number keeps
   the count of decimals it was written with, so [read] and [to_string]
   round-trip a file byte for byte. *)

type value =
  | Int of int
  | Float of float * int  (** value, decimals written *)
  | Str of string

type row = (string * value) list

type t = {
  benchmark : string;
  scale : int;
  sections : (string * row list) list;
}

(* --- codec ---------------------------------------------------------------- *)

let value_to_string = function
  | Int i -> string_of_int i
  | Float (f, decimals) -> Printf.sprintf "%.*f" decimals f
  | Str s -> Printf.sprintf "%S" s

let row_to_string row =
  let field (k, v) = Printf.sprintf "%S: %s" k (value_to_string v) in
  "{" ^ String.concat ", " (List.map field row) ^ "}"

(* One line per element of a JSON array or object, comma-separated. *)
let lines indent = function
  | [] -> ""
  | items -> String.concat ",\n" (List.map (( ^ ) indent) items) ^ "\n"

let to_string t =
  let section (name, rows) =
    Printf.sprintf "  %S: [\n%s  ]" name
      (lines "    " (List.map row_to_string rows))
  in
  Printf.sprintf "{\n  \"benchmark\": %S,\n  \"scale\": %d,\n%s}\n"
    t.benchmark t.scale
    (lines "" (List.map section t.sections))

let write file t =
  Out_channel.with_open_text file (fun oc -> output_string oc (to_string t))

let number tok =
  match (int_of_string_opt tok, String.index_opt tok '.') with
  | Some i, _ -> Int i
  | None, Some dot -> Float (float_of_string tok, String.length tok - dot - 1)
  | None, None -> Float (float_of_string tok, 0)

let parse ib =
  let scan fmt = Scanf.bscanf ib fmt in
  (* items separated by ',' up to the [close] character *)
  let rec items item close =
    let x = item () in
    match scan " %c" Fun.id with
    | ',' -> x :: items item close
    | c when c = close -> [ x ]
    | c -> failwith (Printf.sprintf "expected ',' or '%c', got '%c'" close c)
  in
  let field () =
    let k = scan " %S :" Fun.id in
    if scan " %0c" Fun.id = '"' then (k, Str (scan "%S" Fun.id))
    else (k, number (scan "%[+.0-9a-z-]" Fun.id))
  in
  let row () =
    scan " {" ();
    items field '}'
  in
  let section () =
    let name = scan " %S : [" Fun.id in
    if scan " %0c" Fun.id <> ']' then (name, items row ']')
    else (scan "]" (); (name, []))
  in
  scan " { \"benchmark\" : %S , \"scale\" : %d ," (fun benchmark scale ->
      { benchmark; scale; sections = items section '}' })

let read file =
  match
    In_channel.with_open_text file (fun ic ->
        parse (Scanf.Scanning.from_channel ic))
  with
  | t -> Ok t
  | exception (Sys_error msg | Failure msg | Scanf.Scan_failure msg) ->
      Error msg
  | exception End_of_file -> Error "unexpected end of file"

(* --- field access --------------------------------------------------------- *)

let to_float = function
  | Int i -> float_of_int i
  | Float (f, _) -> f
  | Str _ -> nan

let num row k = to_float (List.assoc k row)
let int row k = match List.assoc k row with Int i -> i | _ -> invalid_arg k
let str row k = match List.assoc k row with Str s -> s | _ -> invalid_arg k

(* The first row holding every field of [probe] with the same value. *)
let find rows probe =
  let holds row (k, v) = List.assoc_opt k row = Some v in
  List.find_opt (fun row -> List.for_all (holds row) probe) rows

let rows t = List.concat_map snd t.sections

(* --- the gate ------------------------------------------------------------- *)

(* What a field means to the gate.  Fields a mode does not name (host
   wall clock, scheduler picks, bytes, speedup) are recorded but never
   gated. *)
type rule =
  | Key  (** identifies the row within its section *)
  | Time  (** may grow by at most 10% *)
  | Rate  (** may drop by at most 10% *)
  | Count  (** may not increase at all (counts are deterministic) *)
  | Class of string list
      (** may not move later in this order, best first; unknown is last *)

(* A value as messages show it: strings unquoted. *)
let text = function Str s -> s | v -> value_to_string v

(* "app=cg machine=meiko procs=4": a row's key fields, for messages. *)
let label key =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ text v) key)

let rank order v =
  let last = List.length order in
  Option.value ~default:last (List.find_index (fun s -> Str s = v) order)

(* The message for field [k] of the row [label] if the run's value
   [got] breaks [rule] against the baseline's [base]. *)
let regression label k rule ~base ~got =
  let b = to_float base and g = to_float got in
  let fail fmt =
    Printf.ksprintf Option.some
      ("REGRESSION %s: %s %s vs baseline %s " ^^ fmt)
      label k (text got) (text base)
  in
  match rule with
  | Time when g > (b *. 1.10) +. 1e-12 ->
      fail "(+%.1f%%, limit +10%%)" (100. *. ((g /. b) -. 1.))
  | Rate when g < (b *. 0.90) -. 1e-9 ->
      fail "(-%.1f%%, limit -10%%)" (100. *. (1. -. (g /. b)))
  | Count when g > b -> fail "(any increase fails)"
  | Class order when rank order got > rank order base ->
      Some
        (Printf.sprintf "DEGRADED %s: %s %s -> %s" label k (text base)
           (text got))
  | Key | Time | Rate | Count | Class _ -> None

(* Every regression of [run] against [baseline] under [rules], one
   line each; a baseline row the run does not produce is reported as
   MISSING.  The empty list means the gate passes. *)
let gate rules ~baseline run =
  List.concat_map
    (fun (section, brows) ->
      let rrows =
        Option.value (List.assoc_opt section run.sections) ~default:[]
      in
      List.concat_map
        (fun brow ->
          let key =
            List.filter (fun (k, _) -> List.assoc_opt k rules = Some Key) brow
          in
          match find rrows key with
          | None -> [ "MISSING " ^ label key ]
          | Some rrow ->
              List.filter_map
                (fun (k, rule) ->
                  match (List.assoc_opt k brow, List.assoc_opt k rrow) with
                  | Some base, Some got ->
                      regression (label key) k rule ~base ~got
                  | _ -> None)
                rules)
        brows)
    baseline.sections
