(* Peephole optimization over run-time call sequences (paper pass 6).

   Rewrites applied until fixpoint:
   - copy forwarding: a library call into a compiler temporary
     immediately copied into a named variable writes the variable
     directly;
   - broadcast reuse: two broadcasts of the same matrix element with no
     intervening redefinition share one communication;
   - transpose of transpose collapses to a copy;
   - shift of shift collapses to a single shift of the summed offset;
   - dead pure instructions defining unused temporaries are removed.

   All rewrites are restricted to straight-line sequences within one
   block; use counts are computed over the whole program, so a
   temporary consumed inside a nested block is never considered dead. *)

let is_temp = Dataflow.is_temp

(* Use counting now comes from the shared dataflow module. *)
let count_uses = Dataflow.use_counts
let uses = Dataflow.uses

(* Rename the destination of a pure defining instruction. *)
let rename_def (i : Ir.inst) ~from ~into : Ir.inst option =
  let r v = if v = from then into else v in
  match i with
  | Ir.Iscalar (d, s) when d = from -> Some (Ir.Iscalar (into, s))
  | Ir.Ielem e when e.dst = from -> Some (Ir.Ielem { e with dst = into })
  | Ir.Icopy (d, s) when d = from -> Some (Ir.Icopy (into, s))
  | Ir.Ilib l when l.dst = from -> Some (Ir.Ilib { l with dst = into })
  | Ir.Ibcast (d, m, idx) when d = from -> Some (Ir.Ibcast (into, m, idx))
  | Ir.Iconstruct c when c.dst = from -> Some (Ir.Iconstruct { c with dst = into })
  | Ir.Iliteral l when l.dst = from -> Some (Ir.Iliteral { l with dst = into })
  | Ir.Isection s when s.dst = from -> Some (Ir.Isection { s with dst = into })
  | Ir.Isort s when s.vdst = from || s.idst = Some from ->
      Some (Ir.Isort { s with vdst = r s.vdst; idst = Option.map r s.idst })
  | Ir.Ireduce_loc rl when rl.vdst = from || rl.idst = from ->
      Some (Ir.Ireduce_loc { rl with vdst = r rl.vdst; idst = r rl.idst })
  | Ir.Iload l when l.dst = from -> Some (Ir.Iload { l with dst = into })
  | Ir.Iconcat c when c.dst = from -> Some (Ir.Iconcat { c with dst = into })
  | Ir.Icalluser c when List.mem from c.rets ->
      Some (Ir.Icalluser { c with rets = List.map r c.rets })
  | _ -> None

type stats = {
  mutable copies_forwarded : int;
  mutable broadcasts_reused : int;
  mutable transposes_collapsed : int;
  mutable shifts_combined : int;
  mutable dead_removed : int;
}

let fresh_stats () =
  {
    copies_forwarded = 0;
    broadcasts_reused = 0;
    transposes_collapsed = 0;
    shifts_combined = 0;
    dead_removed = 0;
  }

(* One forward pass over a straight-line block (recursing into nested
   blocks).  [counts] are global use counts for the surrounding
   program. *)
let rec rewrite_block stats counts (b : Ir.block) : Ir.block =
  let rec go = function
    | [] -> []
    (* copy forwarding; writing the target in place is only legal when
       the defining instruction does not read it, or reads it strictly
       point-wise (element-wise loops) *)
    | def :: Ir.Icopy (x, t) :: rest
      when is_temp t && uses counts t = 1 && List.mem t (Ir.inst_defs def)
           && ((match def with Ir.Ielem _ -> true | _ -> false)
              || not (List.mem x (Ir.inst_uses def))) -> (
        match rename_def def ~from:t ~into:x with
        | Some def' ->
            stats.copies_forwarded <- stats.copies_forwarded + 1;
            go (def' :: rest)
        | None -> descend def :: go (Ir.Icopy (x, t) :: rest))
    (* transpose of transpose *)
    | Ir.Ilib { dst = t; fn = Ir.Ltranspose; args = [ a ] }
      :: Ir.Ilib { dst = u; fn = Ir.Ltranspose; args = [ t' ] }
      :: rest
      when t = t' && is_temp t && uses counts t = 1 ->
        stats.transposes_collapsed <- stats.transposes_collapsed + 1;
        go (Ir.Icopy (u, a) :: rest)
    (* shift of shift *)
    | Ir.Ilib { dst = t; fn = Ir.Lshift k1; args }
      :: Ir.Ilib { dst = u; fn = Ir.Lshift k2; args = [ t' ] }
      :: rest
      when t = t' && is_temp t && uses counts t = 1 ->
        stats.shifts_combined <- stats.shifts_combined + 1;
        let fn = Ir.Lshift (Ir.Sbin (Mlang.Ast.Add, k1, k2)) in
        go (Ir.Ilib { dst = u; fn; args } :: rest)
    (* broadcast reuse *)
    | (Ir.Ibcast (d1, m1, idx1) as i1) :: Ir.Ibcast (d2, m2, idx2) :: rest
      when m1 = m2 && idx1 = idx2 ->
        stats.broadcasts_reused <- stats.broadcasts_reused + 1;
        go (i1 :: Ir.Iscalar (d2, Ir.Svar d1) :: rest)
    | i :: rest -> descend i :: go rest
  and descend (i : Ir.inst) : Ir.inst =
    match i with
    | Ir.Iif (branches, els) ->
        Ir.Iif
          ( List.map (fun (c, blk) -> (c, rewrite_block stats counts blk)) branches,
            rewrite_block stats counts els )
    | Ir.Iwhile (c, blk) -> Ir.Iwhile (c, rewrite_block stats counts blk)
    | Ir.Ifor (v, a, st, b2, blk) ->
        Ir.Ifor (v, a, st, b2, rewrite_block stats counts blk)
    | _ -> i
  in
  go b

(* Remove pure instructions whose only definitions are unused temps. *)
let rec dce stats counts (b : Ir.block) : Ir.block =
  List.filter_map
    (fun (i : Ir.inst) ->
      match i with
      | Ir.Iif (branches, els) ->
          Some
            (Ir.Iif
               ( List.map (fun (c, blk) -> (c, dce stats counts blk)) branches,
                 dce stats counts els ))
      | Ir.Iwhile (c, blk) -> Some (Ir.Iwhile (c, dce stats counts blk))
      | Ir.Ifor (v, a, st, b2, blk) ->
          Some (Ir.Ifor (v, a, st, b2, dce stats counts blk))
      | _ ->
          let defs = Ir.inst_defs i in
          if
            Ir.inst_pure i && defs <> []
            && (not (Dataflow.is_rand i))
            && List.for_all (fun d -> is_temp d && uses counts d = 0) defs
          then begin
            stats.dead_removed <- stats.dead_removed + 1;
            None
          end
          else Some i)
    b

let optimize_block stats (b : Ir.block) : Ir.block =
  let b = ref b in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    incr rounds;
    let counts = count_uses !b in
    let b1 = rewrite_block stats counts !b in
    let counts1 = count_uses b1 in
    let b2 = dce stats counts1 b1 in
    changed := b2 <> !b;
    b := b2
  done;
  !b

let optimize ?(stats = fresh_stats ()) (p : Ir.prog) : Ir.prog =
  let body = optimize_block stats p.Ir.p_body in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        let fb = optimize_block stats f.f_body in
        { f with Ir.f_body = fb; f_vars = Dataflow.prune_vars fb f.f_vars })
      p.Ir.p_funcs
  in
  {
    Ir.p_vars = Dataflow.prune_vars body p.Ir.p_vars;
    p_body = body;
    p_funcs = funcs;
  }
