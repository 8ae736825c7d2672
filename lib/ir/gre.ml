(* Global redundancy elimination over pure run-time library calls.

   A forward availability analysis: when a broadcast, library call,
   section or constructor has already been computed from
   operands nobody has since redefined, the later occurrence reuses the
   earlier destination (a local copy) instead of paying the
   communication again.  This subsumes the peephole pass's
   adjacent-only broadcast-reuse rule: availability survives across
   non-adjacent statements, flows into branch arms, and flows into
   loop bodies for facts whose variables the loop never touches.

   Conservatism at joins: after an [Iif], facts invalidated by any arm
   die; a loop body starts from the incoming facts minus everything the
   body may define, and facts established inside the body die at the
   loop exit (a zero-trip loop never established them). *)

module VSet = Dataflow.VSet

(* The availability key is the instruction with its destination
   blanked; structural equality then identifies recomputations.
   rand/randn are excluded (sequence-numbered draws), as is anything
   impure or multi-destination. *)
let key_of (i : Ir.inst) : Ir.inst option =
  match i with
  | Ir.Ibcast (_, m, idx) -> Some (Ir.Ibcast ("", m, idx))
  | Ir.Ilib l -> Some (Ir.Ilib { l with dst = "" })
  | Ir.Iconstruct { kind = Ir.Crand | Ir.Crandn; _ } -> None
  | Ir.Iconstruct c -> Some (Ir.Iconstruct { c with dst = "" })
  | Ir.Iliteral l -> Some (Ir.Iliteral { l with dst = "" })
  | Ir.Isection s -> Some (Ir.Isection { s with dst = "" })
  | _ -> None

(* Is the (single) destination a replicated scalar?  Decides whether
   reuse is a scalar assignment or a matrix copy. *)
let scalar_dst (i : Ir.inst) : bool =
  match i with
  | Ir.Ibcast _ -> true
  | Ir.Ilib { fn; _ } -> Ir.lib_scalar fn
  | _ -> false

type fact = { key : Ir.inst; dst : string; scalar : bool }

let invalidate (avail : fact list) (killed : VSet.t) : fact list =
  if VSet.is_empty killed then avail
  else
    List.filter
      (fun f ->
        (not (VSet.mem f.dst killed))
        && not (List.exists (fun u -> VSet.mem u killed) (Ir.inst_uses f.key)))
      avail

type stats = { mutable reused : int }

let rec go stats (avail : fact list) (b : Ir.block) : Ir.block * fact list =
  match b with
  | [] -> ([], avail)
  | i :: rest -> (
      match i with
      | Ir.Iif (branches, els) ->
          let branches' =
            List.map (fun (c, blk) -> (c, fst (go stats avail blk))) branches
          in
          let els' = fst (go stats avail els) in
          let killed =
            List.fold_left
              (fun acc (_, blk) -> VSet.union acc (Dataflow.block_defs blk))
              (Dataflow.block_defs els) branches
          in
          let rest', out = go stats (invalidate avail killed) rest in
          (Ir.Iif (branches', els') :: rest', out)
      | Ir.Iwhile (c, body) ->
          let killed = Dataflow.block_defs body in
          let avail' = invalidate avail killed in
          let body' = fst (go stats avail' body) in
          let rest', out = go stats avail' rest in
          (Ir.Iwhile (c, body') :: rest', out)
      | Ir.Ifor (v, a, st, b2, body) ->
          let killed = VSet.add v (Dataflow.block_defs body) in
          let avail' = invalidate avail killed in
          let body' = fst (go stats avail' body) in
          let rest', out = go stats avail' rest in
          (Ir.Ifor (v, a, st, b2, body') :: rest', out)
      | _ -> (
          match key_of i with
          | Some key -> (
              let d = List.hd (Ir.inst_defs i) in
              match List.find_opt (fun f -> f.key = key) avail with
              | Some f ->
                  stats.reused <- stats.reused + 1;
                  let avail' = invalidate avail (VSet.singleton d) in
                  let repl =
                    if f.dst = d then []
                    else if f.scalar then [ Ir.Iscalar (d, Ir.Svar f.dst) ]
                    else [ Ir.Icopy (d, f.dst) ]
                  in
                  let rest', out = go stats avail' rest in
                  (repl @ rest', out)
              | None ->
                  let avail' = invalidate avail (VSet.singleton d) in
                  let avail'' =
                    if List.mem d (Ir.inst_uses key) then avail'
                    else { key; dst = d; scalar = scalar_dst i } :: avail'
                  in
                  let rest', out = go stats avail'' rest in
                  (i :: rest', out))
          | None ->
              let killed = VSet.of_list (Ir.inst_defs i) in
              let rest', out = go stats (invalidate avail killed) rest in
              (i :: rest', out)))

let run (p : Ir.prog) : Ir.prog * (string * int) list =
  let stats = { reused = 0 } in
  let body = fst (go stats [] p.Ir.p_body) in
  let funcs =
    List.map
      (fun (f : Ir.func) -> { f with Ir.f_body = fst (go stats [] f.f_body) })
      p.Ir.p_funcs
  in
  ({ p with Ir.p_body = body; p_funcs = funcs }, [ ("reused", stats.reused) ])
