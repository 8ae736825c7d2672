(* Expression-rewriting tests (paper passes 4 and 5): communication
   lifting, element-wise fusion, owner guards, broadcasts. *)

module Ir = Spmd.Ir

let t name f = Alcotest.test_case name `Quick f

let lower src =
  let c = Otter.compile src in
  c.Otter.prog

(* Unoptimized lowering (before peephole), for pass-4 shape checks. *)
let lower_raw src =
  let p = Analysis.Resolve.run (Mlang.Parser.parse_program src) in
  let info = Analysis.Infer.program p in
  Spmd.Lower.lower_program info p

let rec flatten (b : Ir.block) : Ir.inst list =
  List.concat_map
    (fun i ->
      i
      ::
      (match i with
      | Ir.Iif (branches, els) ->
          List.concat_map (fun (_, blk) -> flatten blk) branches @ flatten els
      | Ir.Iwhile (_, blk) -> flatten blk
      | Ir.Ifor (_, _, _, _, blk) -> flatten blk
      | _ -> []))
    b

let count pred prog =
  List.length (List.filter pred (flatten prog.Ir.p_body))

let lib_calls fn = count (function Ir.Ilib l -> l.fn = fn | _ -> false)

let test_elementwise_fusion () =
  (* a + b .* c - d: one fused loop, no library calls *)
  let prog =
    lower
      "a = ones(4, 1); b = ones(4, 1); c = ones(4, 1); d = ones(4, 1);\n\
       x = a + b .* c - d;"
  in
  Alcotest.(check int) "one element-wise loop" 1
    (count (function Ir.Ielem _ -> true | _ -> false) prog);
  Alcotest.(check int) "no matmul" 0
    (lib_calls Ir.Lmatmul prog)

let test_scalar_broadcast_in_fusion () =
  let prog = lower "v = ones(4, 1); s = 2;\nx = s .* v + 1;" in
  match
    List.find_opt
      (function Ir.Ielem _ -> true | _ -> false)
      (flatten prog.Ir.p_body)
  with
  | Some (Ir.Ielem { expr; _ }) ->
      (* the scalar appears as a hoisted Escalar, not a matrix operand *)
      let rec scalars = function
        | Ir.Escalar _ -> 1
        | Ir.Emat _ | Ir.Eeye -> 0
        | Ir.Ebin (_, a, b) | Ir.Ecall2 (_, a, b) -> scalars a + scalars b
        | Ir.Eneg a | Ir.Enot a | Ir.Ecall1 (_, a) -> scalars a
      in
      Alcotest.(check bool) "has hoisted scalars" true (scalars expr >= 2)
  | _ -> Alcotest.fail "expected a fused loop"

let test_communication_lifting () =
  (* The paper's example: a = b * c + d(i, j) becomes a matmul call, an
     element broadcast, and one element-wise loop. *)
  let prog =
    lower
      "n = 4;\nb = ones(n, n); c = ones(n, n); d = ones(n, n);\ni = 2; j = 3;\n\
       a = b * c + d(i, j);"
  in
  Alcotest.(check int) "one matmul" 1
    (lib_calls Ir.Lmatmul prog);
  Alcotest.(check int) "one broadcast" 1
    (count (function Ir.Ibcast _ -> true | _ -> false) prog);
  Alcotest.(check int) "one fused loop" 1
    (count (function Ir.Ielem _ -> true | _ -> false) prog)

let test_owner_guard () =
  (* Paper pass 5: a(i,j) = a(i,j) / b(j,i) -> broadcast + guarded store *)
  let prog =
    lower
      "a = ones(3, 3); b = ones(3, 3); i = 1; j = 2;\na(i, j) = a(i, j) / b(j, i);"
  in
  (* at -O2 the comm pass may coalesce the two broadcasts into one
     batched collective; count broadcast elements, not instructions *)
  let broadcast_elems =
    List.fold_left
      (fun n i ->
        match i with
        | Ir.Ibcast _ -> n + 1
        | Ir.Ibcast_batch (items, _) -> n + List.length items
        | _ -> n)
      0
      (flatten prog.Ir.p_body)
  in
  Alcotest.(check int) "two broadcasts" 2 broadcast_elems;
  Alcotest.(check int) "one guarded store" 1
    (count (function Ir.Isetelem _ -> true | _ -> false) prog)

let test_dot_recognition () =
  let prog = lower "r = ones(9, 1);\nrho = r' * r;" in
  Alcotest.(check int) "dot, not matmul" 1
    (lib_calls Ir.Ldot prog);
  Alcotest.(check int) "no transpose call" 0
    (lib_calls Ir.Ltranspose prog)

let test_outer_recognition () =
  let prog = lower "u = ones(3, 1); v = ones(5, 1);\nA = u * v';" in
  Alcotest.(check int) "outer product call" 1
    (lib_calls Ir.Louter prog)

let test_reduction_dispatch () =
  let prog = lower "v = ones(6, 1);\ns = sum(v);" in
  Alcotest.(check int) "vector reduce to scalar" 1
    (lib_calls (Ir.Lreduce_all Ir.Rsum) prog);
  let prog = lower "A = ones(4, 6);\ns = sum(A);" in
  Alcotest.(check int) "matrix reduce to row vector" 1
    (lib_calls (Ir.Lreduce_cols Ir.Rsum) prog)

let test_sections () =
  let prog = lower "A = ones(4, 6);\nB = A(2:3, :);" in
  Alcotest.(check int) "section call" 1
    (count (function Ir.Isection _ -> true | _ -> false) prog)

let test_size_becomes_header_read () =
  (* size() should not communicate: it reads the replicated header. *)
  let prog = lower "A = ones(4, 6);\n[r, c] = size(A);\nB = zeros(r, c);" in
  Alcotest.(check int) "no section/broadcast for size" 0
    (count
       (function Ir.Ibcast _ | Ir.Isection _ -> true | _ -> false)
       prog)

let test_while_condition_with_reduction () =
  (* A reduction inside a while condition must be re-evaluated each
     iteration: the loop is rewritten with a guarded break. *)
  let prog =
    lower "v = ones(4, 1);\nwhile sum(v) > 1\n  v = v ./ 2;\nend"
  in
  let has_reduce_inside_loop =
    List.exists
      (function
        | Ir.Iwhile (_, body) ->
            List.exists
              (function Ir.Ilib { fn = Ir.Lreduce_all _; _ } -> true | _ -> false)
              (flatten body)
        | _ -> false)
      prog.Ir.p_body
  in
  Alcotest.(check bool) "reduction re-evaluated inside loop" true
    has_reduce_inside_loop

let test_display_prints () =
  let prog = lower "x = 3" in
  Alcotest.(check int) "display emits print" 1
    (count (function Ir.Iprint _ -> true | _ -> false) prog);
  let prog = lower "x = 3;" in
  Alcotest.(check int) "semicolon suppresses print" 0
    (count (function Ir.Iprint _ -> true | _ -> false) prog)

let test_raw_copy_before_peephole () =
  (* Before peephole, library results land in temporaries then copy. *)
  let prog = lower_raw "A = ones(3, 3);\nB = A';" in
  Alcotest.(check bool) "raw has copies" true
    (count (function Ir.Icopy _ -> true | _ -> false) prog >= 1);
  (* ... and the peephole pass removes them all on this program *)
  let prog = lower "A = ones(3, 3);\nB = A';" in
  Alcotest.(check int) "optimized has none" 0
    (count (function Ir.Icopy _ -> true | _ -> false) prog)

let test_concat_and_setsection_lowering () =
  let prog = lower "v = ones(3, 1); w = ones(3, 1);\nM = [v, w];" in
  Alcotest.(check int) "concat instruction" 1
    (count (function Ir.Iconcat _ -> true | _ -> false) prog);
  let prog = lower "a = ones(6, 1);\na(1:3) = ones(3, 1);" in
  Alcotest.(check int) "section store" 1
    (count (function Ir.Isetsection _ -> true | _ -> false) prog);
  let prog = lower "a = ones(6, 1);\na(2:4) = 7;" in
  Alcotest.(check int) "scalar fill store" 1
    (count (function Ir.Isetsection _ -> true | _ -> false) prog)

let test_matrix_condition_and_vector_for () =
  (* matrix condition compiles to an all-reduction *)
  let prog = lower "v = ones(3, 1);\nif v\n  x = 1;\nend" in
  Alcotest.(check int) "all-reduce for matrix condition" 1
    (lib_calls (Ir.Lreduce_all Ir.Rall) prog);
  (* for over a vector becomes an index loop with an element broadcast *)
  let prog = lower "v = (1:5)';\ns = 0;\nfor x = v\n  s = s + x;\nend" in
  let bcast_in_loop =
    List.exists
      (function
        | Ir.Ifor (_, _, _, _, body) ->
            List.exists (function Ir.Ibcast _ -> true | _ -> false) body
        | _ -> false)
      prog.Ir.p_body
  in
  Alcotest.(check bool) "broadcast inside hidden loop" true bcast_in_loop

let test_unsupported_constructs () =
  let expect src =
    match lower src with
    | exception (Spmd.Lower.Unsupported _ | Mlang.Source.Error _) -> ()
    | _ -> Alcotest.failf "expected a compile-time rejection of %S" src
  in
  expect "A = ones(2, 2); B = ones(2, 2);\nC = A / B;";
  expect "A = ones(3, 3);\nfor col = A\n  y = col;\nend"

(* --- frame broadcasts ------------------------------------------------------ *)

let logistic_src =
  "p = 8; m = 3; iters = 5;\n\
   r = 3.5 + 0.5 .* rand(m, m);\n\
   x = rand(p, m, m);\n\
   for it = 1:iters\n\
  \  x = r .* x .* (1 - x);\n\
   end\n\
   s = mean(x);"

let is_replicate = function
  | Ir.Ilib { fn = Ir.Lreplicate; _ } -> true
  | _ -> false

(* Does [i] communicate?  Everything but scalar arithmetic, element
   loops and copies does, or may. *)
let communicates = function
  | Ir.Iscalar _ | Ir.Ielem _ | Ir.Icopy _ -> false
  | _ -> true

let the_loop (b : Ir.block) =
  match List.filter (function Ir.Ifor _ -> true | _ -> false) b with
  | [ Ir.Ifor (_, _, _, _, body) ] -> body
  | l -> Alcotest.failf "expected one top-level loop, found %d" (List.length l)

(* A matrix operand of a tensor element loop (the cell of a frame
   broadcast) is bound to a replicate call right before the loop, and
   at O2 licm moves that call out of logistic's sweep: exactly one
   replicate, above the loop, whose body no longer communicates. *)
let test_frame_broadcast_replicate () =
  let raw = lower_raw logistic_src in
  (match the_loop raw.Ir.p_body with
  | Ir.Ilib { dst; fn = Ir.Lreplicate; args = [ "r" ] } :: Ir.Ielem { model = "x"; expr; _ } :: _
    ->
      Alcotest.(check bool) "the loop reads the replica" true
        (List.mem dst (Ir.eexpr_uses [] expr) && not (List.mem "r" (Ir.eexpr_uses [] expr)))
  | _ -> Alcotest.fail "expected replicate(r) then the element loop in the sweep");
  let o1 = Otter.compile ~opt:Spmd.Pass.O1 logistic_src in
  Alcotest.(check int) "O1 keeps the replicate in the sweep" 1
    (List.length (List.filter is_replicate (the_loop o1.Otter.prog.Ir.p_body)));
  let prog = lower ((Option.get (Apps.Scripts.find "logistic")).source 50) in
  Alcotest.(check int) "one replicate in logistic at O2" 1 (count is_replicate prog);
  Alcotest.(check bool) "above the loop, unguarded (iters is a constant)" true
    (List.exists is_replicate prog.Ir.p_body);
  Alcotest.(check (list string)) "nothing in the sweep communicates" []
    (List.filter_map
       (fun i -> if communicates i then Some (Fmt.str "%a" (Spmd.Ir_pp.inst ~indent:0) i) else None)
       (flatten (the_loop prog.Ir.p_body)));
  (* a cell used twice in one statement is replicated once, and a
     matrix loop lowers as before *)
  let prog =
    lower_raw "x = rand(4, 3, 3); r = rand(3, 3);\ny = r .* x + r;\nz = r + r;"
  in
  Alcotest.(check int) "one replicate per cell per statement" 1 (count is_replicate prog)

(* A cell the sweep reassigns is not invariant: its replicate stays in
   the loop, after the reassignment. *)
let test_reassigned_cell_stays () =
  let prog =
    lower
      "p = 8; m = 3;\nr = rand(m, m);\nx = rand(p, m, m);\n\
       for it = 1:4\n\
      \  r = 0.5 .* r + 1.5;\n\
      \  x = r .* x .* (1 - x);\n\
       end\n\
       s = mean(x);"
  in
  Alcotest.(check bool) "no replicate above the loop" false
    (List.exists is_replicate prog.Ir.p_body);
  Alcotest.(check int) "one replicate in the sweep" 1
    (List.length (List.filter is_replicate (the_loop prog.Ir.p_body)))

(* A sweep that may run zero times gets its hoisted replicate under the
   trip guard, so a loop that does not run defines no replica (and
   gathers nothing): the program still verifies. *)
let test_zero_trip_replica () =
  let src =
    "p = 8; m = 3;\nr = rand(m, m);\nx = rand(p, m, m);\n\
     n = numel(r) - 9;\n\
     for it = 1:n\n\
    \  x = r .* x;\n\
     end\n\
     s = mean(x);"
  in
  let c = Otter.compile src in
  (match
     List.find_opt (function Ir.Iif _ -> true | _ -> false) c.Otter.prog.Ir.p_body
   with
  | Some (Ir.Iif ([ (_, [ i ]) ], [])) when is_replicate i -> ()
  | _ -> Alcotest.fail "expected the replicate alone under the trip guard");
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ~capture:[ "s" ] ())
         c)
  in
  Alcotest.(check int) "no allgather: only the final sum's allreduce moves" 8
    o.Exec.State.report.Mpisim.Sim.messages;
  match Otter.verify (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:4 ()) c with
  | Otter.Verified -> ()
  | _ -> Alcotest.fail "the zero-trip program does not verify"

let suite =
  [
    t "element-wise fusion" test_elementwise_fusion;
    t "scalar broadcast in fusion" test_scalar_broadcast_in_fusion;
    t "communication lifting (paper example)" test_communication_lifting;
    t "owner guard (paper pass 5 example)" test_owner_guard;
    t "dot recognition" test_dot_recognition;
    t "outer-product recognition" test_outer_recognition;
    t "reduction dispatch" test_reduction_dispatch;
    t "sections" test_sections;
    t "size reads the header" test_size_becomes_header_read;
    t "while with reduction in condition" test_while_condition_with_reduction;
    t "display flag" test_display_prints;
    t "temporaries before peephole" test_raw_copy_before_peephole;
    t "concat and section-store lowering" test_concat_and_setsection_lowering;
    t "matrix conditions and vector for" test_matrix_condition_and_vector_for;
    t "unsupported constructs rejected" test_unsupported_constructs;
    t "frame broadcast cells are replicated once" test_frame_broadcast_replicate;
    t "a reassigned cell keeps its replicate in the loop" test_reassigned_cell_stays;
    t "a zero-trip loop leaves the replica undefined" test_zero_trip_replica;
  ]
