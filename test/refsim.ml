(* A reference simulator: the scheduler of [Mpisim.Sim] written the
   plain way, as an oracle for the fast one.  Each step scans every
   rank for the smallest key (ties to the lowest rank); messages wait
   in one [Hashtbl] keyed by (destination, source, tag); a wildcard
   scans every source.  No heap, no flat message store or index, no
   handoff to a posted receive.  It shares with [Sim]
   only the machine's cost functions and the fault model's draws, and
   it keeps the same rules: the same keys, the same fault draws in the
   same order, the same diagnostics.  Programs reach either simulator
   through [OPS], so one program runs on both. *)

module Sim = Mpisim.Sim
module Machine = Mpisim.Machine
module Rng = Mpisim.Rng

(* The operations a test program uses; [Sim] itself is one instance. *)
module type OPS = sig
  val send : dst:int -> tag:int -> Sim.payload -> unit
  val send_acked : dst:int -> tag:int -> ack_tag:int -> seq:int -> Sim.payload -> unit
  val recv_opt : src:int -> tag:int -> timeout:float -> Sim.payload option
  val recv_timeout : src:int -> tag:int -> timeout:float -> Sim.payload
  val recv : src:int -> tag:int -> Sim.payload
  val recv_any : tag:int -> int * Sim.payload
  val sendrecv : dst:int -> tag:int -> Sim.payload -> src:int -> Sim.payload
  val probe : src:int -> tag:int -> bool
  val compute : float -> unit
  val rank : unit -> int
  val time : unit -> float
  val machine : unit -> Machine.t
  val note_retry : unit -> unit
end

type req =
  | Start
  | Done
  | Send of { dst : int; tag : int; data : Sim.payload; ack : (int * int) option }
  | Recv of { src : int; tag : int; deadline : float }
  | Any of int
  | Sendrecv of { dst : int; tag : int; data : Sim.payload; src : int; timeout : float }

type _ Effect.t += Wait : req -> (int * Sim.payload) option Effect.t

(* Everything a run shows, as [Sim]'s report has it. *)
type counts = {
  clocks : float array;
  mutable messages : int;
  mutable bytes : int;
  mutable compute : float;
  mutable picks : int;
  mutable drops : int;
  mutable dups : int;
  mutable delayed : int;
  mutable stalls : int;
  mutable retries : int;
  mutable acks : int;
  mutable kills : int;
  mutable receives : int; (* messages a rank took; not in [Sim]'s report *)
  mutable queued : int; (* messages still queued when the run ended *)
  ledger : float array array; (* per rank, by [Sim.ledger_categories] *)
}

(* Advance rank [r]'s clock to [t], charging the advance to ledger
   column [col] (see [Sim.ledger_categories]). *)
let advance c r col t =
  c.ledger.(r).(col) <- c.ledger.(r).(col) +. (t -. c.clocks.(r));
  c.clocks.(r) <- t

type t = {
  m : Machine.t;
  p : int;
  c : counts;
  reqs : req array;
  boxes : (int * int * int, (float * Sim.payload) Queue.t) Hashtbl.t;
  chan : (int, float) Hashtbl.t; (* channel -> busy until *)
  cpu : (int array * float array) option;
  death : float array;
  mutable draws : int;
  mutable running : int;
}

let cur : t option ref = ref None
let st () = Option.get !cur

let box s key =
  match Hashtbl.find_opt s.boxes key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add s.boxes key q;
      q

let head s key =
  match Hashtbl.find_opt s.boxes key with
  | Some q when not (Queue.is_empty q) -> Some (fst (Queue.peek q))
  | _ -> None

(* The wildcard match: the earliest head over all sources, ties to the
   lowest source. *)
let earliest s ~dst ~tag =
  let best = ref None in
  for src = 0 to s.p - 1 do
    match (head s (dst, src, tag), !best) with
    | Some a, Some (_, b) when a >= b -> ()
    | Some a, _ -> best := Some (src, a)
    | None, _ -> ()
  done;
  !best

let draw s (f : Machine.faults) salt p =
  p > 0.
  &&
  let i = s.draws in
  s.draws <- i + 1;
  Rng.uniform ~seed:(f.Machine.fault_seed lxor salt) i < p

let phys s r = match s.cpu with None -> r | Some (cpu_of, _) -> cpu_of.(r)

let deliver s src ~dst ~tag ~data ~ack =
  let c = s.c and faults = s.m.Machine.faults in
  Option.iter
    (fun (f : Machine.faults) ->
      if draw s f 0x0d40 f.Machine.stall then begin
        c.ledger.(src).(2) <- c.ledger.(src).(2) +. f.Machine.stall_time;
        c.clocks.(src) <- c.clocks.(src) +. f.Machine.stall_time;
        c.stalls <- c.stalls + 1
      end)
    faults;
  let ps = phys s src and pd = phys s dst in
  let link = s.m.Machine.link ps pd in
  let lat, bw = (link.Machine.latency, link.Machine.bandwidth) in
  let lat, bw =
    match faults with
    | Some f
      when f.Machine.degrade > 0.
           && Rng.uniform ~seed:(f.Machine.fault_seed lxor 0xdead)
                (((((int_of_float (c.clocks.(src) /. f.Machine.degrade_period)
                    * 131) + ps) * 131) + pd))
              < f.Machine.degrade ->
        (lat *. f.Machine.degrade_factor, bw /. f.Machine.degrade_factor)
    | _ -> (lat, bw)
  in
  let lat =
    match faults with
    | Some f when draw s f 0x0d30 f.Machine.delay ->
        c.delayed <- c.delayed + 1;
        lat *. f.Machine.delay_factor
    | _ -> lat
  in
  let bytes = Sim.payload_bytes data in
  let ser = float_of_int bytes /. bw in
  let start =
    match link.Machine.channel with
    | None -> c.clocks.(src)
    | Some ch ->
        let free = Option.value ~default:0. (Hashtbl.find_opt s.chan ch) in
        let start = Float.max c.clocks.(src) free in
        Hashtbl.replace s.chan ch (start +. ser);
        start
  in
  let arrival = start +. lat +. ser in
  c.ledger.(src).(3) <- c.ledger.(src).(3) +. s.m.Machine.send_overhead;
  c.clocks.(src) <- c.clocks.(src) +. s.m.Machine.send_overhead;
  c.messages <- c.messages + 1;
  c.bytes <- c.bytes + bytes;
  let drop f salt = draw s f salt f.Machine.drop in
  let dropped = match faults with Some f -> drop f 0x0d10 | None -> false in
  if dropped then c.drops <- c.drops + 1
  else begin
    Queue.push (arrival, data) (box s (dst, src, tag));
    match faults with
    | Some f when draw s f 0x0d20 f.Machine.dup ->
        c.dups <- c.dups + 1;
        Queue.push (arrival +. lat, data) (box s (dst, src, tag))
    | _ -> ()
  end;
  match ack with
  | Some (atag, seq) when (not dropped) && arrival < s.death.(dst) ->
      let back = s.m.Machine.link pd ps in
      let at = arrival +. back.Machine.latency +. (8. /. back.Machine.bandwidth) in
      c.messages <- c.messages + 1;
      c.bytes <- c.bytes + 8;
      if (match faults with Some f -> drop f 0x0d50 | None -> false) then
        c.drops <- c.drops + 1
      else begin
        c.acks <- c.acks + 1;
        Queue.push (at, Sim.Ints [| seq |]) (box s (src, dst, atag))
      end
  | _ -> ()

let run_report ~machine ~nprocs body =
  let p = nprocs in
  let cpu =
    Option.map
      (fun { Machine.cpus; map } ->
        ( Array.init p (fun r ->
              match map with
              | Machine.Map_block -> r * cpus / p
              | Machine.Map_cyclic -> r mod cpus
              | Machine.Map_random seed ->
                  min (cpus - 1)
                    (int_of_float
                       (Rng.uniform ~seed:(seed lxor 0x6d61) r *. float_of_int cpus))),
          Array.make cpus 0. ))
      machine.Machine.placement
  in
  let death = Array.make p infinity in
  Option.iter
    (fun (f : Machine.faults) ->
      for r = 0 to p - 1 do
        if f.Machine.kill > 0.
           && Rng.uniform ~seed:(f.Machine.fault_seed lxor 0x0d60) r < f.Machine.kill
        then
          death.(r) <-
            Rng.uniform ~seed:(f.Machine.fault_seed lxor 0x0d70) r
            *. f.Machine.kill_window
      done;
      if f.Machine.kill_rank >= 0 && f.Machine.kill_rank < p then
        death.(f.Machine.kill_rank) <- f.Machine.kill_time)
    machine.Machine.faults;
  let detect =
    match machine.Machine.faults with Some f -> f.Machine.detect | None -> 0.
  in
  let c =
    { clocks = Array.make p 0.; messages = 0; bytes = 0; compute = 0.; picks = 0;
      drops = 0; dups = 0; delayed = 0; stalls = 0; retries = 0; acks = 0; kills = 0;
      receives = 0; queued = 0;
      ledger = Array.init p (fun _ -> Array.make (Array.length Sim.ledger_categories) 0.) }
  in
  let s =
    { m = machine; p; c; reqs = Array.make p Start; boxes = Hashtbl.create 64;
      chan = Hashtbl.create 8; cpu; death; draws = 0; running = 0 }
  in
  let conts = Array.make p None and results = Array.make p None in
  let dead = Array.make p false in
  let resume r v = Effect.Deep.continue (Option.get conts.(r)) v in
  (* [nan]: rank [r] cannot step *)
  let key r =
    let clock = c.clocks.(r) in
    let k =
      match s.reqs.(r) with
      | Start | Send _ | Sendrecv _ -> clock
      | Done -> nan
      | Any tag -> if earliest s ~dst:r ~tag = None then nan else clock
      | Recv { src; tag; deadline } -> (
          match head s (r, src, tag) with
          | Some a when a <= deadline -> clock
          | _ ->
              let d = if detect > 0. then death.(src) +. detect else nan in
              if d < deadline then d else if deadline < infinity then deadline else nan)
    in
    (* a rank that has returned, or died, has no death left *)
    if s.reqs.(r) <> Done && death.(r) < infinity && (Float.is_nan k || k >= death.(r))
    then death.(r)
    else k
  in
  let take r ~src ~tag =
    let a, data = Queue.pop (box s (r, src, tag)) in
    c.receives <- c.receives + 1;
    advance c r 4 (Float.max c.clocks.(r) a);
    c.ledger.(r).(5) <- c.ledger.(r).(5) +. machine.Machine.recv_overhead;
    c.clocks.(r) <- c.clocks.(r) +. machine.Machine.recv_overhead;
    resume r (Some (src, data))
  in
  let step r =
    s.running <- r;
    match s.reqs.(r) with
    | Start ->
        Effect.Deep.match_with body r
          { retc = (fun v -> results.(r) <- Some v; s.reqs.(r) <- Done);
            exnc = (fun e -> raise (Sim.Rank_failure { rank = r; exn = e }));
            effc =
              (fun (type b) (e : b Effect.t) :
                   ((b, unit) Effect.Deep.continuation -> unit) option ->
                match e with
                | Wait q ->
                    Some
                      (fun k ->
                        s.reqs.(r) <- q;
                        conts.(r) <- Some k)
                | _ -> None) }
    | Send { dst; tag; data; ack } ->
        deliver s r ~dst ~tag ~data ~ack;
        resume r None
    | Sendrecv { dst; tag; data; src; timeout } ->
        deliver s r ~dst ~tag ~data ~ack:None;
        s.reqs.(r) <- Recv { src; tag; deadline = c.clocks.(r) +. timeout }
    | Any tag -> take r ~src:(fst (Option.get (earliest s ~dst:r ~tag))) ~tag
    | Recv { src; tag; deadline } -> (
        match head s (r, src, tag) with
        | Some a when a <= deadline -> take r ~src ~tag
        | _ ->
            let d = if detect > 0. then death.(src) +. detect else nan in
            if d < deadline then begin
              advance c r 7 (Float.max c.clocks.(r) d);
              Effect.Deep.discontinue (Option.get conts.(r))
                (Sim.Peer_failed { rank = r; failed = src; at = d })
            end
            else begin
              advance c r 6 deadline;
              resume r None
            end)
    | Done -> assert false
  in
  let diagnose () =
    let b = Buffer.create 128 in
    for r = 0 to p - 1 do
      if dead.(r) then Printf.bprintf b "  rank %d died at t=%.6f\n" r death.(r)
      else
        match s.reqs.(r) with
        | Recv { src; tag; _ } ->
            Printf.bprintf b "  rank %d waits for (src=%d, tag=%d)%s\n" r src tag
              (if dead.(src) then " [source is dead]" else "")
        | Any tag -> Printf.bprintf b "  rank %d waits for (src=any, tag=%d)\n" r tag
        | Send { dst; tag; _ } | Sendrecv { dst; tag; _ } ->
            Printf.bprintf b "  rank %d pending send to (dst=%d, tag=%d)\n" r dst tag
        | Start | Done -> ()
    done;
    Buffer.contents b
  in
  let prev = !cur in
  cur := Some s;
  let outcome =
    Fun.protect ~finally:(fun () -> cur := prev) @@ fun () ->
    try
      let finished = ref 0 in
      while !finished < p do
        let best = ref (-1) and bkey = ref nan in
        for r = 0 to p - 1 do
          let k = key r in
          if (not (Float.is_nan k)) && (!best < 0 || k < !bkey) then begin
            best := r;
            bkey := k
          end
        done;
        c.picks <- c.picks + 1;
        let r = !best in
        if r < 0 then raise (Sim.Deadlock (diagnose ()));
        if !bkey = death.(r) then begin
          dead.(r) <- true;
          advance c r 8 (Float.max c.clocks.(r) death.(r));
          c.kills <- c.kills + 1;
          s.reqs.(r) <- Done
        end
        else step r;
        match s.reqs.(r) with Done -> incr finished | _ -> ()
      done;
      Array.iteri
        (fun r d ->
          if d then
            raise (Sim.Rank_failure { rank = r; exn = Sim.Rank_killed { rank = r; at = death.(r) } }))
        dead;
      Ok (Array.map Option.get results)
    with e -> Error e
  in
  c.queued <- Hashtbl.fold (fun _ q n -> n + Queue.length q) s.boxes 0;
  (outcome, c)

(* --- the operations ------------------------------------------------------ *)

let wait q = Effect.perform (Wait q)
let rank () = (st ()).running
let time () = (st ()).c.clocks.(rank ())
let machine () = (st ()).m
let note_retry () = (st ()).c.retries <- (st ()).c.retries + 1

let compute t =
  let s = st () in
  let r = s.running and clocks = s.c.clocks in
  (match s.cpu with
  | None -> clocks.(r) <- clocks.(r) +. t
  | Some (cpu_of, free) ->
      advance s.c r 1 (Float.max clocks.(r) free.(cpu_of.(r)));
      let fin = clocks.(r) +. t in
      clocks.(r) <- fin;
      free.(cpu_of.(r)) <- fin);
  s.c.ledger.(r).(0) <- s.c.ledger.(r).(0) +. t;
  s.c.compute <- s.c.compute +. t

let send ~dst ~tag data = ignore (wait (Send { dst; tag; data; ack = None }))

let send_acked ~dst ~tag ~ack_tag ~seq data =
  ignore (wait (Send { dst; tag; data; ack = Some (ack_tag, seq) }))

let recv_opt ~src ~tag ~timeout =
  Option.map snd (wait (Recv { src; tag; deadline = time () +. timeout }))

let expired ~src ~tag ~timeout =
  raise (Sim.Timeout { rank = rank (); src; tag; waited = timeout })

let recv_timeout ~src ~tag ~timeout =
  match recv_opt ~src ~tag ~timeout with
  | Some d -> d
  | None -> expired ~src ~tag ~timeout

let detect () =
  match (machine ()).Machine.faults with
  | Some f when f.Machine.detect > 0. -> f.Machine.detect
  | _ -> infinity

let recv ~src ~tag = recv_timeout ~src ~tag ~timeout:(detect ())
let recv_any ~tag = Option.get (wait (Any tag))

let sendrecv ~dst ~tag data ~src =
  let timeout = detect () in
  match wait (Sendrecv { dst; tag; data; src; timeout }) with
  | Some (_, d) -> d
  | None -> expired ~src ~tag ~timeout

let probe ~src ~tag =
  let s = st () in
  let me = s.running in
  match if src >= 0 then head s (me, src, tag) else Option.map snd (earliest s ~dst:me ~tag) with
  | Some a -> a <= s.c.clocks.(me)
  | None -> false
