(* Reliable messaging over the simulator's (possibly lossy) transport:
   ack/retry with exponential backoff and bounded retries, in the
   spirit of MatlabMPI's tolerate-the-network file-based transport.

   Every channel (sender, receiver, tag) carries an independent
   sequence number.  A data message is the application payload with its
   sequence number prepended; delivery triggers a transport-level
   acknowledgement (see [Sim.send_acked]) that the sender waits for
   with a timeout derived from the link's round-trip estimate.  A
   missing ack means the data (or the ack itself) was lost: the sender
   retransmits with doubled timeout, up to [max_retries] attempts,
   counting each retry in the run's report.  The receiver accepts the
   next expected sequence number and silently discards duplicates —
   whether injected by the fault model or retransmitted because only
   the ack was lost — so the application sees exactly-once delivery in
   order, bit-for-bit identical to a fault-free run.

   When the machine does not set [reliable], every operation falls
   through to the plain simulator primitives, so the protocol's cost
   (one ack per message, retransmissions) is paid only when asked
   for. *)

exception
  Exhausted of { rank : int; dst : int; tag : int; attempts : int }

(* Transport acks ride on the data tag shifted into their own tag
   space, far above the collectives' and run-time library's tags. *)
let ack_base = 0x400000
let ack_tag tag = tag + ack_base

let max_retries = 8
let backoff = 2.0
let timeout_factor = 4.0 (* initial timeout, in round-trip estimates *)

(* Per-channel sequence counters live in the rank's scratch table,
   keyed (direction, peer, tag). *)
let dir_send = 0
let dir_recv = 1

let next_counter dir peer tag =
  let h = Sim.scratch () in
  let key = (dir, peer, tag) in
  let v = Option.value ~default:0 (Hashtbl.find_opt h key) in
  Hashtbl.replace h key (v + 1);
  v

(* A pessimistic round-trip estimate for the retransmission timer:
   forward latency + serialization, plus the ack's way back.  Shared-
   channel queueing and degradation windows can exceed it; the
   exponential backoff absorbs that. *)
let rtt_estimate ~peer bytes =
  let m = Sim.machine () in
  let me = Sim.rank () in
  let fwd = m.Machine.link me peer and back = m.Machine.link peer me in
  fwd.Machine.latency
  +. (float_of_int bytes /. fwd.Machine.bandwidth)
  +. back.Machine.latency
  +. (8. /. back.Machine.bandwidth)
  +. m.Machine.send_overhead +. m.Machine.recv_overhead

let protocol_error ~src ~tag detail =
  raise (Sim.Protocol_error { rank = Sim.rank (); src; tag; detail })

(* A window's [l1 + l2] floats in one fresh array, after [lead] slots
   the caller fills. *)
let flatten_window ~lead a off l1 l2 =
  let b = Array.create_float (lead + l1 + l2) in
  Array.blit a off b lead l1;
  Array.blit a 0 b (lead + l1) l2;
  b

(* The sequence number goes in front of the payload, in a fresh array;
   a window is flattened in that same one copy. *)
let envelope seq = function
  | Sim.Floats a -> Sim.Floats (Array.append [| float_of_int seq |] a)
  | Sim.Ints a -> Sim.Ints (Array.append [| seq |] a)
  | Sim.Window (a, off, l1, l2) ->
      let b = flatten_window ~lead:1 a off l1 l2 in
      b.(0) <- float_of_int seq;
      Sim.Floats b

let open_envelope ~src ~tag = function
  | Sim.Floats a when Array.length a >= 1 ->
      (int_of_float a.(0), Sim.Floats (Array.sub a 1 (Array.length a - 1)))
  | Sim.Ints a when Array.length a >= 1 ->
      (a.(0), Sim.Ints (Array.sub a 1 (Array.length a - 1)))
  | Sim.Floats _ | Sim.Ints _ ->
      protocol_error ~src ~tag "reliable envelope too short for a sequence number"
  | Sim.Window _ ->
      protocol_error ~src ~tag "a window payload carries no sequence number"

let protocol_send ~dst ~tag data =
  let seq = next_counter dir_send dst tag in
  let env = envelope seq data in
  let atag = ack_tag tag in
  let base = timeout_factor *. rtt_estimate ~peer:dst (Sim.payload_bytes env) in
  (* Wait for the ack of [seq]; older acks are re-acks of duplicates a
     previous call already settled — drain and keep waiting. *)
  let rec await timeout =
    match Sim.recv_opt ~src:dst ~tag:atag ~timeout with
    | Some (Sim.Ints [| s |]) when s = seq -> true
    | Some (Sim.Ints [| s |]) when s < seq -> await timeout
    | Some _ ->
        protocol_error ~src:dst ~tag:atag "malformed transport acknowledgement"
    | None -> false
  in
  let rec attempt n timeout =
    Sim.send_acked ~dst ~tag ~ack_tag:atag ~seq env;
    if not (await timeout) then begin
      if n >= max_retries then
        raise (Exhausted { rank = Sim.rank (); dst; tag; attempts = n + 1 });
      Sim.note_retry ();
      attempt (n + 1) (timeout *. backoff)
    end
  in
  attempt 0 base

(* The worst virtual time a lawful sender can still be retrying after:
   the whole exponential-backoff ladder, computed for a pessimistic
   payload.  The receiver's data wait must outlast it, or it would
   condemn a sender that is about to get through. *)
let worst_retrans_window ~peer =
  let base = timeout_factor *. rtt_estimate ~peer 65536 in
  let ladder = (backoff ** float_of_int (max_retries + 1)) -. 1. in
  base *. ladder /. (backoff -. 1.)

let protocol_recv ~src ~tag =
  let h = Sim.scratch () in
  let key = (dir_recv, src, tag) in
  let expected = Option.value ~default:0 (Hashtbl.find_opt h key) in
  let min_timeout = worst_retrans_window ~peer:src in
  let rec loop () =
    let seq, data =
      open_envelope ~src ~tag (Sim.recv_wait ~min_timeout ~src ~tag ())
    in
    if seq = expected then begin
      Hashtbl.replace h key (expected + 1);
      data
    end
    else loop () (* duplicate of an already-delivered message *)
  in
  loop ()

(* The wildcard receive: the simulator picks the source, then the
   per-channel sequencing of [protocol_recv] applies to whichever
   channel the message rode in on; duplicates are dropped and the wait
   resumes, still wildcard. *)
let rec protocol_recv_any ~tag =
  let src, env = Sim.recv_any ~tag in
  let seq, data = open_envelope ~src ~tag env in
  let h = Sim.scratch () in
  let key = (dir_recv, src, tag) in
  let expected = Option.value ~default:0 (Hashtbl.find_opt h key) in
  if seq = expected then begin
    Hashtbl.replace h key (expected + 1);
    (src, data)
  end
  else protocol_recv_any ~tag

let send ~dst ~tag data =
  if Sim.reliable_on () then protocol_send ~dst ~tag data
  else Sim.send ~dst ~tag data

let recv ~src ~tag =
  if Sim.reliable_on () then protocol_recv ~src ~tag else Sim.recv ~src ~tag

let recv_any ~tag =
  if Sim.reliable_on () then protocol_recv_any ~tag else Sim.recv_any ~tag

let recv_floats ~src ~tag =
  match recv ~src ~tag with
  | Sim.Floats a -> a
  | Sim.Window (a, off, l1, l2) -> flatten_window ~lead:0 a off l1 l2
  | Sim.Ints _ ->
      protocol_error ~src ~tag "expected a float payload, received integers"

let recv_ints ~src ~tag =
  match recv ~src ~tag with
  | Sim.Ints a -> a
  | Sim.Floats _ | Sim.Window _ ->
      protocol_error ~src ~tag "expected an integer payload, received floats"
