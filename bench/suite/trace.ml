(* In-memory spans around the suite's calls into each layer.

   A span has a name whose first dot-separated word is its layer
   ("mlang.parse" belongs to mlang), a start and an end in host
   seconds, the span that was open when it began, and the configuration
   it served (-1 during set-up).  Nothing is written until the run
   ends; then the spans become Chrome trace-event JSON, which Perfetto
   and chrome://tracing open, and a per-layer self-time table. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  config : int;
  args : (string * Json.t) list;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of the spans now open, innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }
let now = Unix.gettimeofday

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let parent t = match t.open_ with p :: _ -> p | [] -> -1

(* Record a span whose interval was measured elsewhere, e.g. from the
   pass pipeline's per-pass callback. *)
let add t name ~start ~stop =
  let span =
    { id = fresh t; name; start; stop; parent = parent t; config = -1; args = [] }
  in
  t.spans <- span :: t.spans

(* [span t name f] runs [f] inside a span; [args] derives the span's
   arguments from the result.  Without a recorder it only runs [f]. *)
let span (t : t option) ?(config = -1) ?(args = fun _ -> []) name f =
  match t with
  | None -> f ()
  | Some t ->
      let id = fresh t and parent = parent t in
      t.open_ <- id :: t.open_;
      let start = now () in
      let r = Fun.protect ~finally:(fun () -> t.open_ <- List.tl t.open_) f in
      let stop = now () in
      t.spans <-
        { id; name; start; stop; parent; config; args = args r } :: t.spans;
      r

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* A span's duration minus the time its children cover. *)
let self_times (spans : span list) : (span * float) list =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    spans

(* Self time summed per layer, largest first. *)
let layer_table spans : (string * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      Hashtbl.replace tbl l
        (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    (self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Share of the span [root] that its children cover. *)
let coverage spans (root : span) =
  let covered =
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. duration s else acc)
      0. spans
  in
  if duration root <= 0. then 1. else covered /. duration root

let to_json (s : span) : Json.t =
  Json.Obj
    [
      ("id", Json.int s.id);
      ("name", Json.Str s.name);
      ("start", Json.Num s.start);
      ("stop", Json.Num s.stop);
      ("parent", Json.int s.parent);
      ("config", Json.int s.config);
      ("args", Json.Obj s.args);
    ]

let of_json (j : Json.t) : span =
  let num k = Json.to_num (Json.member k j) in
  {
    id = int_of_float (num "id");
    name = Json.to_str (Json.member "name" j);
    start = num "start";
    stop = num "stop";
    parent = int_of_float (num "parent");
    config = int_of_float (num "config");
    args = Json.to_obj (Json.member "args" j);
  }

(* Chrome trace-event JSON: one process per workload, complete ("X")
   events in microseconds from the earliest span. *)
let chrome (groups : (string * span list) list) : Json.t =
  let t0 =
    List.fold_left
      (fun acc (_, ss) -> List.fold_left (fun a s -> Float.min a s.start) acc ss)
      infinity groups
  in
  let us x = Json.Num (Float.round ((x -. t0) *. 1e9) /. 1e3) in
  let events =
    List.concat
      (List.mapi
         (fun i (group, ss) ->
           let pid = Json.int (i + 1) in
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", pid);
               ("tid", Json.int 1);
               ("args", Json.Obj [ ("name", Json.Str group) ]);
             ]
           :: List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Json.Str s.name);
                      ("cat", Json.Str (layer s.name));
                      ("ph", Json.Str "X");
                      ("ts", us s.start);
                      ("dur", Json.Num (Float.round (duration s *. 1e9) /. 1e3));
                      ("pid", pid);
                      ("tid", Json.int 1);
                      ( "args",
                        Json.Obj
                          (("id", Json.int s.id)
                          :: ("parent", Json.int s.parent)
                          :: ("config", Json.int s.config)
                          :: s.args) );
                    ])
                ss)
         groups)
  in
  Json.Obj
    [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]
