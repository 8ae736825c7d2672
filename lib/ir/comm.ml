(* Communication optimization (the last -O2 pass).

   Three rewrites, each replacing several collectives with one:

   - batching: a run of element broadcasts from the same matrix becomes
     a single [Ibcast_batch] -- one collective replicates the whole
     batch instead of one broadcast tree per element;
   - fusion: a run of sum-combining scalar reductions (sum, mean, dot,
     norm) becomes a single [Ireduce_fused] vector allreduce carrying
     every slot's local partial at once;
   - transpose elimination: a transpose feeding a matrix multiply as
     the left operand becomes [Lmatmul_t], which skips the all-to-all
     redistribution the transpose implies.  The transpose itself is
     dropped when it defined a single-use temporary.

   Lowering rarely places two collectives back to back -- each is
   followed by the local arithmetic consuming its result -- so the run
   collector looks PAST local (communication-free, pure) instructions:
   locals independent of the collected collectives are hoisted before
   the fused operation, locals reading a collected result sink after
   it.  Relative order within each group is preserved, and a collective
   whose operand is written by a sunk instruction ends the run, so
   data dependences always hold.  Impure instructions (prints, stores,
   calls) and other communication are barriers.

   All three rewrites are exact: the local partials and the per-element
   combine order are unchanged, so the rewritten program produces
   bit-identical values. *)

type stats = {
  mutable broadcasts_batched : int; (* Ibcast instructions coalesced *)
  mutable reductions_fused : int; (* reduction instructions coalesced *)
  mutable matmuls_detransposed : int; (* Lmatmul -> Lmatmul_t rewrites *)
}

(* Pure and communication-free: safe to reorder against a collective
   when the data dependences allow it.  rand/randn are excluded even
   though [Ir.inst_pure] admits them: their draws are sequence-numbered
   on the replicated stream, so two draws must never swap. *)
let is_local i =
  (not (Dataflow.is_rand i))
  &&
  match i with
  | Ir.Iscalar _ | Ir.Ielem _ | Ir.Icopy _ | Ir.Iconstruct _ | Ir.Iliteral _
  | Ir.Iload _ ->
      true
  | _ -> false

(* A reduction eligible for fusion: every alternative combines by
   summation, so one Sum allreduce can carry the batch.  Tensor
   operands are excluded — the batched runtime entry points
   ([bcast_elems], [reduce_fused]) are matrix-only. *)
let fused_of is_tensor = function
  | Ir.Ilib { dst; fn; args } -> (
      match (fn, args) with
      | Ir.Lreduce_all Ir.Rsum, [ m ] when not (is_tensor m) ->
          Some (dst, Ir.Fsum m)
      | Ir.Lreduce_all Ir.Rmean, [ m ] when not (is_tensor m) ->
          Some (dst, Ir.Fmean m)
      | Ir.Ldot, [ a; b ] -> Some (dst, Ir.Fdot (a, b))
      | Ir.Lnorm, [ m ] when not (is_tensor m) -> Some (dst, Ir.Fnorm m)
      | _ -> None)
  | _ -> None

(* One collected run: slots in program order, locals hoisted before the
   fused collective, locals sunk after it, and the unscanned tail. *)
type 'a run = {
  slots : (Ir.var * 'a) list;
  pre : Ir.inst list;
  post : Ir.inst list;
  tail : Ir.inst list;
}

(* Scan past locals for more instructions matched by [eligible],
   starting from an already-matched first slot.  A matched instruction
   joins the run only when its destination is fresh and none of its
   operands were written by a sunk (post) instruction.  A local sinks
   when it touches anything the run defines or the post group uses;
   otherwise it hoists.  Anything else stops the scan. *)
let scan (eligible : Ir.inst -> (Ir.var * 'a) option) (first : Ir.var * 'a)
    ~(first_uses : Ir.var list) (rest : Ir.inst list) : 'a run =
  let slots = ref [ first ] in
  let slot_dsts = ref [ fst first ] in
  let slot_uses = ref first_uses in
  let pre = ref [] and post = ref [] in
  let post_defs = ref [] and post_uses = ref [] in
  let record_uses l = slot_uses := l @ !slot_uses in
  let mem l v = List.mem v l in
  let rec go = function
    | [] -> []
    | i :: tl as insts -> (
        match eligible i with
        | Some (d, slot)
          when (not (mem !slot_dsts d))
               && (not (mem !post_defs d))
               && (not (mem !post_uses d))
               && not (List.exists (mem !post_defs) (Ir.inst_uses i)) ->
            slots := (d, slot) :: !slots;
            slot_dsts := d :: !slot_dsts;
            record_uses (Ir.inst_uses i);
            go tl
        | _ ->
            if is_local i then begin
              let defs = Ir.inst_defs i and uses = Ir.inst_uses i in
              let sinks =
                List.exists (mem !slot_dsts) uses
                || List.exists (mem !post_defs) uses
                || List.exists (mem !slot_dsts) defs
                || List.exists (mem !slot_uses) defs
                || List.exists (mem !post_defs) defs
                || List.exists (mem !post_uses) defs
              in
              if sinks then begin
                post := i :: !post;
                post_defs := defs @ !post_defs;
                post_uses := uses @ !post_uses
              end
              else pre := i :: !pre;
              go tl
            end
            else insts)
  in
  let tail = go rest in
  {
    slots = List.rev !slots;
    pre = List.rev !pre;
    post = List.rev !post;
    tail;
  }

(* Look past locals that touch neither [t] nor [a] for the multiply
   consuming transpose [t] of [a] as its left operand. *)
let rec find_matmul t a seen = function
  | Ir.Ilib { dst = d; fn = Ir.Lmatmul; args = [ t'; b ] } :: rest
    when t' = t && b <> t ->
      Some (d, b, List.rev seen, rest)
  | i :: rest
    when is_local i
         &&
         let defs = Ir.inst_defs i in
         (not (List.mem t defs)) && not (List.mem a defs) ->
      find_matmul t a (i :: seen) rest
  | _ -> None

let rec rewrite_block stats counts is_tensor (b : Ir.block) : Ir.block =
  let rewrite_block stats counts = rewrite_block stats counts is_tensor in
  let descend = function
    | Ir.Iif (branches, els) ->
        Ir.Iif
          ( List.map
              (fun (c, blk) -> (c, rewrite_block stats counts blk))
              branches,
            rewrite_block stats counts els )
    | Ir.Iwhile (c, blk) -> Ir.Iwhile (c, rewrite_block stats counts blk)
    | Ir.Ifor (v, lo, step, hi, blk) ->
        Ir.Ifor (v, lo, step, hi, rewrite_block stats counts blk)
    | i -> i
  in
  let rec go = function
    | [] -> []
    | (Ir.Ilib { dst = t; fn = Ir.Ltranspose; args = [ a ] } as tr) :: rest
      when a <> t -> (
        match find_matmul t a [] rest with
        | Some (d, b, seen, rest') ->
            stats.matmuls_detransposed <- stats.matmuls_detransposed + 1;
            let mm =
              Ir.Ilib { dst = d; fn = Ir.Lmatmul_t; args = [ a; b ] }
            in
            if Dataflow.is_temp t && Dataflow.uses counts t = 1 then
              seen @ (mm :: go rest')
            else
              (* the transpose has other readers: keep it, but the
                 multiply still skips the redistribution *)
              tr :: (seen @ (mm :: go rest'))
        | None -> tr :: go rest)
    | (Ir.Ibcast (d, m, idx) as i) :: rest when not (is_tensor m) -> (
        let eligible = function
          | Ir.Ibcast (d', m', idx') when m' = m -> Some (d', idx')
          | _ -> None
        in
        match scan eligible (d, idx) ~first_uses:(Ir.inst_uses i) rest with
        | { slots; pre; post; tail } when List.length slots >= 2 ->
            stats.broadcasts_batched <-
              stats.broadcasts_batched + List.length slots;
            pre @ (Ir.Ibcast_batch (slots, m) :: post) @ go tail
        | _ -> i :: go rest)
    | i :: rest -> (
        match fused_of is_tensor i with
        | Some first -> (
            match
              scan (fused_of is_tensor) first ~first_uses:(Ir.inst_uses i) rest
            with
            | { slots; pre; post; tail } when List.length slots >= 2 ->
                stats.reductions_fused <-
                  stats.reductions_fused + List.length slots;
                pre @ (Ir.Ireduce_fused slots :: post) @ go tail
            | _ -> i :: go rest)
        | None -> descend i :: go rest)
  in
  go b

let run (p : Ir.prog) : Ir.prog * (string * int) list =
  let stats =
    { broadcasts_batched = 0; reductions_fused = 0; matmuls_detransposed = 0 }
  in
  let tensor_pred vars =
    let h = Hashtbl.create 16 in
    List.iter
      (fun (v, t) -> if Analysis.Ty.is_tensor t then Hashtbl.replace h v ())
      vars;
    fun v -> Hashtbl.mem h v
  in
  let rewrite_body vars b =
    rewrite_block stats (Dataflow.use_counts b) (tensor_pred vars) b
  in
  let p' =
    {
      p with
      Ir.p_body = rewrite_body p.Ir.p_vars p.Ir.p_body;
      p_funcs =
        List.map
          (fun (f : Ir.func) ->
            { f with Ir.f_body = rewrite_body f.f_vars f.f_body })
          p.Ir.p_funcs;
    }
  in
  ( p',
    [
      ("broadcasts-batched", stats.broadcasts_batched);
      ("reductions-fused", stats.reductions_fused);
      ("matmuls-detransposed", stats.matmuls_detransposed);
    ] )
