(* Loop-invariant communication motion.

   A broadcast, constructor, literal or pure reduction whose operands
   are not redefined anywhere in a while/for body recomputes the same
   value on every trip, and -- because the IR is loosely synchronous,
   with every rank executing the same control flow -- hoisting it to a
   preheader preserves collectivity: all ranks still execute the call
   together, just once.

   Safety rules:
   - only instructions in the early-exit-free prefix of the body move:
     anything at or after a (possibly nested) break/continue/return/
     error is conditionally executed;
   - operands must be invariant: not defined anywhere in the body
     (destinations of instructions already selected for hoisting count
     as invariant -- they move out first);
   - the destination must have exactly one definition site in the body
     and must not be read by an earlier, non-hoisted prefix
     instruction (which would otherwise see the previous iteration's
     value on trips after the first);
   - rand/randn never move: their draws are sequence-numbered;
   - a loop that may run zero times gets its hoisted code wrapped in a
     guard reproducing the back ends' exact trip test, so a variable
     that would have stayed undefined stays undefined. *)

module VSet = Dataflow.VSet

let hoistable (i : Ir.inst) : bool =
  match i with
  | Ir.Ibcast _ | Ir.Iliteral _ -> true
  | Ir.Iconstruct { kind = Ir.Crand | Ir.Crandn; _ } -> false
  | Ir.Iconstruct _ -> true
  | Ir.Ilib { fn; _ } -> (
      match fn with Ir.Lmatmul | Ir.Lmatmul_t -> false | _ -> true)
  | _ -> false

(* Does the loop provably run at least once -- and if not, under which
   condition does the first trip happen?  The guard must reproduce the
   VM's and the C emitter's trip test bit for bit (including the 1e-12
   tolerance), or a hoisted definition could leak out of a loop the
   back ends never enter. *)
type trip = Always | Guarded of Ir.sexpr | Never

let trip_test (loop : Ir.inst) : trip =
  match loop with
  | Ir.Iwhile (Ir.Sconst c, _) -> if c <> 0. then Always else Never
  | Ir.Iwhile (c, _) -> Guarded c
  | Ir.Ifor (_, a, st, b, _) -> (
      let enters start step stop =
        if step >= 0. then start <= stop +. 1e-12 else start >= stop -. 1e-12
      in
      let step_e = Option.value ~default:(Ir.Sconst 1.) st in
      match (a, step_e, b) with
      | Ir.Sconst a', Ir.Sconst s', Ir.Sconst b' ->
          if enters a' s' b' then Always else Never
      | _ ->
          let open Mlang.Ast in
          Guarded
            (Ir.Sbin
               ( Or,
                 Ir.Sbin
                   ( And,
                     Ir.Sbin (Ge, step_e, Ir.Sconst 0.),
                     Ir.Sbin (Le, a, Ir.Sbin (Add, b, Ir.Sconst 1e-12)) ),
                 Ir.Sbin
                   ( And,
                     Ir.Sbin (Lt, step_e, Ir.Sconst 0.),
                     Ir.Sbin (Ge, a, Ir.Sbin (Sub, b, Ir.Sconst 1e-12)) ) )))
  | _ -> assert false

(* Split [body] into instructions selected for hoisting (in order) and
   the remaining body. *)
let select (loop_var : string option) (body : Ir.block) : Ir.block * Ir.block =
  let all_defs = Dataflow.block_defs body in
  let all_defs =
    match loop_var with Some v -> VSet.add v all_defs | None -> all_defs
  in
  let def_counts = Dataflow.def_counts body in
  (* prefix before any (nested) early exit *)
  let rec split_prefix acc = function
    | i :: rest when not (Dataflow.has_early_exit i) ->
        split_prefix (i :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let prefix, suffix = split_prefix [] body in
  let selected = ref [] in
  let sel_dsts = ref VSet.empty in
  let earlier_uses = ref VSet.empty in
  let kept_prefix =
    List.filter
      (fun (i : Ir.inst) ->
        let uses = VSet.of_list (Ir.inst_uses i) in
        let defs = Ir.inst_defs i in
        let invariant =
          VSet.is_empty (VSet.inter uses (VSet.diff all_defs !sel_dsts))
        in
        let dst_ok =
          List.for_all
            (fun d ->
              Dataflow.uses def_counts d = 1
              && (not (VSet.mem d !earlier_uses))
              && Some d <> loop_var)
            defs
        in
        if hoistable i && invariant && dst_ok then begin
          selected := i :: !selected;
          sel_dsts := VSet.union !sel_dsts (VSet.of_list defs);
          false
        end
        else begin
          earlier_uses := VSet.union !earlier_uses (Dataflow.inst_uses_rec i);
          true
        end)
      prefix
  in
  (List.rev !selected, kept_prefix @ suffix)

type stats = { mutable hoisted : int }

let rec opt_block stats (b : Ir.block) : Ir.block =
  List.concat_map
    (fun (i : Ir.inst) ->
      match i with
      | Ir.Iif (branches, els) ->
          [
            Ir.Iif
              ( List.map (fun (c, blk) -> (c, opt_block stats blk)) branches,
                opt_block stats els );
          ]
      | Ir.Iwhile (c, body) ->
          let body = opt_block stats body in
          hoist stats (Ir.Iwhile (c, body))
      | Ir.Ifor (v, a, st, b2, body) ->
          let body = opt_block stats body in
          hoist stats (Ir.Ifor (v, a, st, b2, body))
      | _ -> [ i ])
    b

(* Hoist from one loop whose nested loops are already optimized; an
   instruction freed from an inner loop lands in the outer body and can
   keep moving outward on the same run. *)
and hoist stats (loop : Ir.inst) : Ir.block =
  let loop_var, body =
    match loop with
    | Ir.Iwhile (_, body) -> (None, body)
    | Ir.Ifor (v, _, _, _, body) -> (Some v, body)
    | _ -> assert false
  in
  match trip_test loop with
  | Never -> [ loop ]
  | trip -> (
      let hoisted, body' = select loop_var body in
      if hoisted = [] then [ loop ]
      else begin
        stats.hoisted <- stats.hoisted + List.length hoisted;
        let loop' =
          match loop with
          | Ir.Iwhile (c, _) -> Ir.Iwhile (c, body')
          | Ir.Ifor (v, a, st, b, _) -> Ir.Ifor (v, a, st, b, body')
          | _ -> assert false
        in
        match trip with
        | Always -> hoisted @ [ loop' ]
        | Guarded g -> [ Ir.Iif ([ (g, hoisted) ], []); loop' ]
        | Never -> assert false
      end)

let run (p : Ir.prog) : Ir.prog * (string * int) list =
  let stats = { hoisted = 0 } in
  let body = opt_block stats p.Ir.p_body in
  let funcs =
    List.map
      (fun (f : Ir.func) -> { f with Ir.f_body = opt_block stats f.f_body })
      p.Ir.p_funcs
  in
  ({ p with Ir.p_body = body; p_funcs = funcs }, [ ("hoisted", stats.hoisted) ])
