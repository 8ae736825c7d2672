(* Constructor folding into element-wise expressions.

   [t = zeros(n,m); d = elemwise ... t[i] ...] materialises and reads a
   matrix every one of whose elements is statically known.  When the
   constructor's only consumer is a single element-wise expression, the
   matrix never needs to exist: zeros/ones become the constants 0/1 and
   eye becomes [Eeye], an indicator that the current element lies on
   the model matrix's main diagonal.  This removes the constructor's
   run-time library call (and its allocation) entirely -- e.g. the
   [n*eye(n)] in conjugate gradient's matrix setup.

   Only compiler temporaries fold (a named variable can be captured or
   printed later), only when the temporary has exactly one definition
   and exactly one use, and never rand/randn (sequence-numbered
   draws).  Element-wise conformability guarantees the folded
   constructor had the model's shape, so [Eeye]'s diagonal test against
   the model is the same predicate -- except under a tensor model,
   where the eye is a frame-broadcast cell, so it does not fold there. *)

type stats = { mutable folded : int }

let candidate_kind (i : Ir.inst) : (string * Ir.ckind) option =
  match i with
  | Ir.Iconstruct { dst; kind = (Ir.Czeros | Ir.Cones | Ir.Ceye) as kind; _ }
    when Dataflow.is_temp dst ->
      Some (dst, kind)
  | _ -> None

let replacement = function
  | Ir.Czeros -> Ir.Escalar (Ir.Sconst 0.)
  | Ir.Cones -> Ir.Escalar (Ir.Sconst 1.)
  | Ir.Ceye -> Ir.Eeye
  | _ -> assert false

let rec subst_eexpr t repl (e : Ir.eexpr) : Ir.eexpr =
  match e with
  | Ir.Emat v when v = t -> repl
  | Ir.Emat _ | Ir.Eeye | Ir.Escalar _ -> e
  | Ir.Ebin (op, a, b) -> Ir.Ebin (op, subst_eexpr t repl a, subst_eexpr t repl b)
  | Ir.Eneg a -> Ir.Eneg (subst_eexpr t repl a)
  | Ir.Enot a -> Ir.Enot (subst_eexpr t repl a)
  | Ir.Ecall1 (n, a) -> Ir.Ecall1 (n, subst_eexpr t repl a)
  | Ir.Ecall2 (n, a, b) ->
      Ir.Ecall2 (n, subst_eexpr t repl a, subst_eexpr t repl b)

let fold_body stats vars (body : Ir.block) : Ir.block =
  let tensor v =
    match List.assoc_opt v vars with Some t -> Analysis.Ty.is_tensor t | None -> false
  in
  let defs = Dataflow.def_counts body in
  let uses = Dataflow.use_counts body in
  (* temps defined once and consumed once, by some element-wise expr *)
  let cands = Hashtbl.create 8 in
  Ir.iter_insts
    (fun i ->
      match candidate_kind i with
      | Some (t, kind)
        when Dataflow.uses defs t = 1 && Dataflow.uses uses t = 1 ->
          Hashtbl.replace cands t kind
      | _ -> ())
    body;
  if Hashtbl.length cands = 0 then body
  else begin
    let folded = Hashtbl.create 8 in
    let rec rewrite (b : Ir.block) : Ir.block =
      List.concat_map
        (fun (i : Ir.inst) ->
          match i with
          | Ir.Ielem ({ model; expr; _ } as e) ->
              let expr' =
                Hashtbl.fold
                  (fun t kind acc ->
                    if
                      t <> model
                      && List.mem t (Ir.eexpr_uses [] acc)
                      && not (kind = Ir.Ceye && tensor model)
                    then begin
                      Hashtbl.replace folded t ();
                      stats.folded <- stats.folded + 1;
                      subst_eexpr t (replacement kind) acc
                    end
                    else acc)
                  cands expr
              in
              [ Ir.Ielem { e with expr = expr' } ]
          | Ir.Iif (branches, els) ->
              [
                Ir.Iif
                  ( List.map (fun (c, blk) -> (c, rewrite blk)) branches,
                    rewrite els );
              ]
          | Ir.Iwhile (c, blk) -> [ Ir.Iwhile (c, rewrite blk) ]
          | Ir.Ifor (v, a, st, b2, blk) -> [ Ir.Ifor (v, a, st, b2, rewrite blk) ]
          | _ -> [ i ])
        b
    in
    let b' = rewrite body in
    (* drop the now-unconsumed constructors *)
    let rec sweep (b : Ir.block) : Ir.block =
      List.concat_map
        (fun (i : Ir.inst) ->
          match i with
          | Ir.Iconstruct { dst; _ } when Hashtbl.mem folded dst -> []
          | Ir.Iif (branches, els) ->
              [
                Ir.Iif
                  (List.map (fun (c, blk) -> (c, sweep blk)) branches, sweep els);
              ]
          | Ir.Iwhile (c, blk) -> [ Ir.Iwhile (c, sweep blk) ]
          | Ir.Ifor (v, a, st, b2, blk) -> [ Ir.Ifor (v, a, st, b2, sweep blk) ]
          | _ -> [ i ])
        b
    in
    sweep b'
  end

let run (p : Ir.prog) : Ir.prog * (string * int) list =
  let stats = { folded = 0 } in
  let body = fold_body stats p.Ir.p_vars p.Ir.p_body in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        { f with Ir.f_body = fold_body stats f.Ir.f_vars f.f_body })
      p.Ir.p_funcs
  in
  ({ p with Ir.p_body = body; p_funcs = funcs }, [ ("folded", stats.folded) ])
