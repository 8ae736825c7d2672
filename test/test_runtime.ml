(* Distributed run-time library tests: block distribution arithmetic,
   MATRIX geometry, and every communication-bearing operation checked
   against dense references across processor counts -- unit cases plus
   qcheck properties. *)

module Sim = Mpisim.Sim
module Dmat = Runtime.Dmat
module Ops = Runtime.Ops
module Dist = Runtime.Dist

let t name f = Alcotest.test_case name `Quick f
let machine = Mpisim.Machine.meiko_cs2

(* Run one rank body on p CPUs and check all ranks return [expected]. *)
let run_all ~p body = fst (Sim.run ~machine ~nprocs:p body)

let dense_of ~p body expected msg =
  Array.iter
    (fun v -> Testutil.check_array_close msg expected v)
    (run_all ~p body)

let test_dist_arithmetic () =
  List.iter
    (fun (n, p) ->
      (* blocks partition [0, n) in order with sizes differing <= 1 *)
      let total = ref 0 in
      for r = 0 to p - 1 do
        let lo = Dist.low ~rank:r ~nprocs:p ~n in
        let hi = Dist.high ~rank:r ~nprocs:p ~n in
        Alcotest.(check bool) "contiguous" true (lo = !total);
        total := hi
      done;
      Alcotest.(check int) "covers all" n !total;
      for i = 0 to n - 1 do
        let o = Dist.owner ~nprocs:p ~n i in
        Alcotest.(check bool)
          (Printf.sprintf "owner n=%d p=%d i=%d" n p i)
          true
          (Dist.low ~rank:o ~nprocs:p ~n <= i
          && i < Dist.high ~rank:o ~nprocs:p ~n)
      done)
    [ (10, 3); (16, 16); (5, 8); (1, 4); (0, 3); (100, 7) ]

let test_matrix_geometry () =
  let results =
    run_all ~p:4 (fun rank ->
        let m = Dmat.create ~rows:10 ~cols:3 in
        let v = Dmat.create ~rows:1 ~cols:10 in
        ( rank,
          m.Dmat.axis = Dmat.By_rows,
          Dmat.local_els m,
          v.Dmat.axis = Dmat.By_cols,
          Dmat.local_els v ))
  in
  Array.iter
    (fun (rank, m_rows, m_els, v_cols, v_els) ->
      Alcotest.(check bool) "matrix by rows" true m_rows;
      Alcotest.(check bool) "row vector by cols" true v_cols;
      let expect_rows = Dist.size ~rank ~nprocs:4 ~n:10 in
      Alcotest.(check int) "local elements" (expect_rows * 3) m_els;
      Alcotest.(check int) "vector block" expect_rows v_els)
    results

let test_owner_partition () =
  (* every element of a matrix is owned by exactly one rank *)
  let results =
    run_all ~p:5 (fun _ ->
        let m = Dmat.create ~rows:7 ~cols:4 in
        let owned = ref [] in
        for i = 0 to 6 do
          for j = 0 to 3 do
            if Dmat.owner m ~i ~j then owned := (i, j) :: !owned
          done
        done;
        !owned)
  in
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every element owned once" (7 * 4) (List.length all);
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "no duplicates" (7 * 4) (List.length sorted)

let test_to_dense_of_dense_roundtrip () =
  List.iter
    (fun p ->
      let data = Array.init 35 (fun i -> float_of_int (i * i mod 13)) in
      dense_of ~p
        (fun _ ->
          Dmat.to_dense (Dmat.of_dense ~rows:7 ~cols:5 data))
        data
        (Printf.sprintf "roundtrip p=%d" p))
    [ 1; 2; 4; 8; 16 ]

let ref_matmul m k n a b =
  Array.init (m * n) (fun g ->
      let i = g / n and j = g mod n in
      let acc = ref 0. in
      for kk = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + kk) *. b.((kk * n) + j))
      done;
      !acc)

let test_matmul_shapes () =
  List.iter
    (fun (m, k, n, p) ->
      let a = Array.init (m * k) (fun i -> float_of_int ((i * 7 mod 23) - 11)) in
      let b = Array.init (k * n) (fun i -> float_of_int ((i * 5 mod 17) - 8)) in
      dense_of ~p
        (fun _ ->
          let da = Dmat.of_dense ~rows:m ~cols:k a in
          let db = Dmat.of_dense ~rows:k ~cols:n b in
          Dmat.to_dense (Ops.matmul da db))
        (ref_matmul m k n a b)
        (Printf.sprintf "matmul %dx%d*%dx%d p=%d" m k k n p))
    [ (4, 4, 4, 2); (7, 3, 5, 4); (1, 6, 4, 3); (5, 5, 1, 8); (2, 9, 3, 16); (1, 4, 1, 2) ]

let test_matmul_dimension_check () =
  match
    Sim.run ~machine ~nprocs:2 (fun _ ->
        let a = Dmat.create ~rows:3 ~cols:4 in
        let b = Dmat.create ~rows:5 ~cols:2 in
        ignore (Ops.matmul a b))
  with
  | exception Sim.Rank_failure { exn = Failure _; _ } -> ()
  | _ -> Alcotest.fail "dimension mismatch must fail"

let test_dot () =
  List.iter
    (fun p ->
      let u = Array.init 11 (fun i -> float_of_int i -. 5.) in
      let expected = Array.fold_left (fun a x -> a +. (x *. x)) 0. u in
      let results =
        run_all ~p (fun _ ->
            let du = Dmat.of_dense ~rows:11 ~cols:1 u in
            Ops.dot du du)
      in
      Array.iter (fun v -> Testutil.check_close ~tol:1e-12 "dot" expected v) results)
    [ 1; 3; 16 ]

let test_transpose () =
  List.iter
    (fun (m, n, p) ->
      let a = Array.init (m * n) (fun i -> float_of_int (i * 3 mod 19)) in
      let expected =
        Array.init (n * m) (fun g ->
            let i = g / m and j = g mod m in
            a.((j * n) + i))
      in
      dense_of ~p
        (fun _ -> Dmat.to_dense (Ops.transpose (Dmat.of_dense ~rows:m ~cols:n a)))
        expected
        (Printf.sprintf "transpose %dx%d p=%d" m n p))
    [ (5, 7, 3); (8, 8, 8); (16, 2, 16); (2, 16, 4); (9, 1, 3); (1, 9, 3) ]

let test_vector_transpose_is_local () =
  (* n x 1 <-> 1 x n transposes must not communicate *)
  let _, r =
    Sim.run ~machine ~nprocs:8 (fun _ ->
        let v = Dmat.init ~rows:32 ~cols:1 (fun g -> float_of_int g) in
        ignore (Ops.transpose v))
  in
  Alcotest.(check int) "no messages" 0 r.Sim.messages

let test_outer () =
  let u = Array.init 5 (fun i -> float_of_int (i + 1)) in
  let v = Array.init 4 (fun i -> float_of_int ((i * 2) + 1)) in
  let expected = Array.init 20 (fun g -> u.(g / 4) *. v.(g mod 4)) in
  dense_of ~p:3
    (fun _ ->
      let du = Dmat.of_dense ~rows:5 ~cols:1 u in
      let dv = Dmat.of_dense ~rows:4 ~cols:1 v in
      Dmat.to_dense (Ops.outer du dv))
    expected "outer"

let test_reductions () =
  let v = [| 3.; -1.; 4.; 1.; -5.; 9.; 2.; 6. |] in
  let cases =
    [
      (Ops.Rsum, 19.);
      (Ops.Rprod, 3. *. -1. *. 4. *. 1. *. -5. *. 9. *. 2. *. 6.);
      (Ops.Rmin, -5.);
      (Ops.Rmax, 9.);
      (Ops.Rany, 1.);
      (Ops.Rall, 1.);
    ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun (op, expected) ->
          let results =
            run_all ~p (fun _ ->
                Ops.reduce_all op (Dmat.of_dense ~rows:8 ~cols:1 v))
          in
          Array.iter
            (fun got -> Testutil.check_close ~tol:1e-12 "reduce" expected got)
            results)
        cases)
    [ 1; 2; 5; 8 ];
  (* any/all with zeros *)
  let z = [| 0.; 0.; 1. |] in
  let results =
    run_all ~p:2 (fun _ ->
        let d = Dmat.of_dense ~rows:3 ~cols:1 z in
        (Ops.reduce_all Ops.Rany d, Ops.reduce_all Ops.Rall d))
  in
  Array.iter
    (fun (any_v, all_v) ->
      Testutil.check_close "any" 1. any_v;
      Testutil.check_close "all" 0. all_v)
    results

let test_col_reductions () =
  let a = Array.init 12 (fun i -> float_of_int (i + 1)) in
  (* 4x3: columns sums = 1+4+7+10, 2+5+8+11, 3+6+9+12 *)
  dense_of ~p:3
    (fun _ -> Dmat.to_dense (Ops.reduce_cols Ops.Rsum (Dmat.of_dense ~rows:4 ~cols:3 a)))
    [| 22.; 26.; 30. |] "col sums";
  dense_of ~p:3
    (fun _ -> Dmat.to_dense (Ops.mean_cols (Dmat.of_dense ~rows:4 ~cols:3 a)))
    [| 5.5; 6.5; 7.5 |] "col means"

let test_mean_and_norm () =
  let v = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let results =
    run_all ~p:4 (fun _ ->
        let d = Dmat.of_dense ~rows:10 ~cols:1 v in
        (Ops.mean_all d, Ops.norm2 d))
  in
  Array.iter
    (fun (m, n2) ->
      Testutil.check_close "mean" 5.5 m;
      Testutil.check_close ~tol:1e-12 "norm" (sqrt 385.) n2)
    results

let test_bcast_then_set_elem () =
  List.iter
    (fun p ->
      let results =
        run_all ~p (fun _ ->
            let m = Dmat.init_rc ~rows:6 ~cols:5 (fun i j -> float_of_int ((i * 10) + j)) in
            let v = Ops.bcast_elem m ~i:4 ~j:3 in
            Ops.set_elem m ~i:2 ~j:2 99.;
            let w = Ops.bcast_elem m ~i:2 ~j:2 in
            (v, w))
      in
      Array.iter
        (fun (v, w) ->
          Testutil.check_close "read" 43. v;
          Testutil.check_close "read after guarded write" 99. w)
        results)
    [ 1; 2; 4; 8 ]

let test_elem_bounds () =
  match
    Sim.run ~machine ~nprocs:2 (fun _ ->
        let m = Dmat.create ~rows:3 ~cols:3 in
        ignore (Ops.bcast_elem m ~i:5 ~j:0))
  with
  | exception Sim.Rank_failure { exn = Failure _; _ } -> ()
  | _ -> Alcotest.fail "out-of-bounds broadcast must fail"

let test_trapz () =
  (* integral of x^2 over [0, 1] with 101 samples *)
  let n = 101 in
  let xs = Array.init n (fun i -> float_of_int i /. 100.) in
  let ys = Array.map (fun x -> x *. x) xs in
  List.iter
    (fun p ->
      let results =
        run_all ~p (fun _ ->
            let dx = Dmat.of_dense ~rows:n ~cols:1 xs in
            let dy = Dmat.of_dense ~rows:n ~cols:1 ys in
            (Ops.trapz ~x:dx dy, Ops.trapz dy))
      in
      Array.iter
        (fun (with_x, unit_dx) ->
          Testutil.check_close ~tol:1e-4 "trapz(x, y)" (1. /. 3.) with_x;
          Testutil.check_close ~tol:1e-6 "trapz(y)"
            (Interp.Dense.trapz
               { Interp.Dense.dims = [| n; 1 |]; data = ys })
            unit_dx)
        results)
    [ 1; 2; 7; 16 ]

let test_sections () =
  let a = Array.init 30 (fun i -> float_of_int i) in
  (* rows 1 and 3, columns 0, 2, 4 of a 5x6 matrix *)
  dense_of ~p:4
    (fun _ ->
      let d = Dmat.of_dense ~rows:5 ~cols:6 a in
      Dmat.to_dense (Ops.section d [| [| 1; 3 |]; [| 0; 2; 4 |] |]))
    [| 6.; 8.; 10.; 18.; 20.; 22. |]
    "2d section";
  dense_of ~p:4
    (fun _ ->
      let v = Dmat.of_dense ~rows:8 ~cols:1 (Array.init 8 (fun i -> float_of_int (i * i))) in
      Dmat.to_dense (Ops.section_linear v [| 7; 0; 3 |] ~rows:3 ~cols:1))
    [| 49.; 0.; 9. |]
    "linear section"

(* The exact traffic of three sections of a 24 x 16 x 16 grid [T],
   whose rows (leading slices, 256 floats, 2,048 B each) are block
   distributed.  A section moves a row only when the row's owner in
   the source differs from its owner in the destination, and each rank
   sends each peer one message.  Rank r owns rows
   [floor(24r/P), floor(24(r+1)/P)) of [T] and
   [floor(22r/P), floor(22(r+1)/P)) of a 22-row array [A].

   - [A = T(1:22, :, :)]: row k of [A] is row k of [T].
     P = 4: [T] blocks start 0 6 12 18, [A] blocks 0 5 11 16.  Row 5
     goes 0 -> 1, row 11 goes 1 -> 2, rows 16-17 go 2 -> 3: 3 messages,
     4 rows.
     P = 16: [T] blocks start 0 1 3 4 6 7 9 10 12 13 15 16 18 19 21 22,
     [A] blocks 0 1 2 4 5 6 8 9 11 12 13 15 16 17 19 20.  The moves are
     1->2, 3->4, 4->5, 5->6, 6->7, 7->8, 8->9, 9->10 (rows 13-14),
     10->11, 11->12, 11->13, 12->13, 13->14, 13->15 and 14->15: 15
     messages, 16 rows.
   - [T(:, 2:16, :)]: an in-page shift keeps every row on its owner: no
     message.
   - [T(2:23, :, :) = A]: row j of [A] lands in row j + 1 of [T].
     P = 4: only row 16 (on rank 3) lands on rank 2: 1 message, 1 row.
     P = 16: rows 0, 3, 13, 16, 17, 19 and 20 of [A] land on another
     rank, as 0->1, 2->3, 10->9, 12->11, 13->12, 14->13 and 15->14: 7
     messages, 7 rows.

   Each case also checks every element a rank holds afterwards. *)
let test_section_traffic () =
  let n = 24 and m = 16 in
  let row = m * m in
  let traffic ~p body =
    let _, r = Sim.run ~machine ~nprocs:p body in
    (r.Sim.messages, r.Sim.bytes)
  in
  let grid () = Dmat.init_dims [| n; m; m |] float_of_int in
  let all k = Array.init k (fun i -> i) in
  let from a k = Array.init k (fun i -> a + i) in
  (* every local element of [x] holds [f] of its global index *)
  let holds what (x : Dmat.t) f =
    for i = 0 to Dmat.local_len x - 1 do
      let g = Dmat.global_of_local x i in
      if x.Dmat.data.(i) <> f g then
        Alcotest.failf "%s: element %d holds %g, not %g" what g x.Dmat.data.(i) (f g)
    done
  in
  let check what ~p expected body =
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s at P = %d: messages, bytes" what p)
      expected (traffic ~p body)
  in
  List.iter
    (fun (p, shift, store) ->
      check "T(1:22,:,:)" ~p shift (fun _ ->
          let a = Ops.section (grid ()) [| all (n - 2); all m; all m |] in
          holds "T(1:22,:,:)" a float_of_int);
      check "T(:,2:16,:)" ~p (0, 0) (fun _ ->
          let b = Ops.section (grid ()) [| all n; from 1 (m - 1); all m |] in
          holds "T(:,2:16,:)" b (fun g ->
              let i = g / ((m - 1) * m) and rest = g mod ((m - 1) * m) in
              float_of_int ((i * row) + rest + m)));
      check "T(2:23,:,:) = A" ~p store (fun _ ->
          let t = grid () in
          let a = Dmat.init_dims [| n - 2; m; m |] (fun g -> -.float_of_int g) in
          Ops.set_section t [| from 1 (n - 2); all m; all m |] (Ops.Elems a);
          holds "T(2:23,:,:) = A" t (fun g ->
              let i = g / row in
              if i >= 1 && i <= n - 2 then -.float_of_int (g - row) else float_of_int g)))
    [
      (4, (3, 4 * 8 * row), (1, 8 * row));
      (16, (15, 16 * 8 * row), (7, 7 * 8 * row));
    ]

(* A section store charges each rank one flop per element it stores:
   the compute ledger, summed over the ranks, is the P = 1 charge, for
   an array source and for a scalar one. *)
let test_section_store_ledger () =
  let n = 24 and m = 16 in
  let from a k = Array.init k (fun i -> a + i) in
  let sels = [| from 1 (n - 2); from 0 m; from 2 (m - 4) |] in
  let compute ~p src =
    let _, r =
      Sim.run ~machine ~nprocs:p (fun _ ->
          let t = Dmat.create_dims [| n; m; m |] in
          let src =
            match src with
            | `Elems -> Ops.Elems (Dmat.create_dims [| n - 2; m; m - 4 |])
            | `Const -> Ops.Const 1.
          in
          Ops.set_section t sels src)
    in
    Array.fold_left (fun acc row -> acc +. row.(0)) 0. r.Sim.ledger
  in
  List.iter
    (fun src ->
      let one = compute ~p:1 src in
      Testutil.check_close "P = 1 charges the selection"
        (float_of_int ((n - 2) * m * (m - 4)) *. machine.Mpisim.Machine.flop_time) one;
      List.iter
        (fun p ->
          Testutil.check_close ~tol:1e-12
            (Printf.sprintf "P = %d: summed compute" p) one (compute ~p src))
        [ 4; 16 ])
    [ `Elems; `Const ]

(* Fuzz corpus scripts that verify against the interpreter at P = 1, 3,
   7 and 16, under block and cyclic:2. *)
let corpus_verifies names () =
  List.iter
    (fun name ->
      match Testutil.find_up ("test/corpus/fuzz/" ^ name ^ ".m") with
      | None -> () (* sandboxed without sources: nothing to check *)
      | Some path ->
          let c = Otter.compile (Testutil.read_file path) in
          List.iter
            (fun layout ->
              List.iter
                (fun nprocs ->
                  let layout = Otter.Config.layout_of_string layout in
                  match Otter.verify (Otter.config ?layout ~machine ~nprocs ()) c with
                  | Otter.Verified -> ()
                  | _ ->
                      Alcotest.failf "%s does not verify at P = %d" name nprocs)
                [ 1; 3; 7; 16 ])
            [ "block"; "cyclic:2" ])
    names

(* The section scripts: ranks without rows, reversed and repeated
   selectors, empty selections, repeated store targets, matrix sources
   in tensor sections. *)
let test_section_corpus =
  corpus_verifies
    [
      "section_few_rows";
      "section_reverse_repeat";
      "section_empty";
      "section_store_repeat";
      "section_matrix_source";
    ]

(* Tensor section assignment walks only the owned leading-axis
   selections; with selectors that repeat and descend, the last writer
   of every element must still be the interpreter's. *)
let test_tensor_section_order () =
  match Testutil.find_up "test/corpus/fuzz/tensor_section_repeat.m" with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some path ->
      let c = Otter.compile (Testutil.read_file path) in
      let capture = [ "T"; "s" ] in
      let run engine nprocs =
        (Otter.outcome_exn
           (Otter.run (Otter.config ~capture ?engine ~machine ~nprocs ()) c))
          .Exec.State.captures
      in
      let bits = function
        | Runtime.Captured.Cscalar x -> [| Int64.bits_of_float x |]
        | Runtime.Captured.Cmat (_, _, d) | Runtime.Captured.Cnd (_, d) ->
            Array.map Int64.bits_of_float d
      in
      let reference = run (Some Otter.Config.Einterp) 1 in
      List.iter
        (fun p ->
          let got = run None p in
          List.iter
            (fun name ->
              let want = List.assoc name reference
              and have = List.assoc name got in
              Alcotest.(check bool)
                (Printf.sprintf "%s at P=%d: same shape and bits" name p)
                true
                (Exec.State.captured_equal want have && bits want = bits have))
            capture)
        [ 1; 3; 5 ]

(* The read side: a tensor section decodes its first local element once
   and steps an odometer over the selectors.  Descending, repeated and
   vector selectors, singleton axes, and results whose leading extent
   leaves some ranks without a slice must all read the interpreter's
   elements, bit for bit. *)
let test_tensor_section_read () =
  Testutil.check_bits_vs_interp ~machine
    ~capture:[ "U1"; "U2"; "U3"; "U4"; "U5"; "U6"; "U7"; "U8" ]
    ~procs:[ 1; 3; 5 ] "tensor section reads"
    "T = rand(4, 5, 6);\n\
     U1 = T(2:3, [5, 1, 1], 6:-2:1);\n\
     U2 = T(4:-1:1, 2, [3, 3, 6, 1]);\n\
     U3 = T([1, 1, 4], :, 5);\n\
     U4 = T(3, 5:-1:1, 2:4);\n\
     U5 = T([4, 4, 4, 1, 2], [2, 5], [6, 1]);\n\
     S = rand(11, 9, 7) - 0.5;\n\
     U6 = S(11:-1:1, [9, 1, 1, 5, 2, 2, 8], 7:-3:1);\n\
     U7 = S([3, 10, 3, 10, 6], 2:9, [1, 7, 7]);\n\
     U8 = S(:, 9:-2:1, :);\n"

(* --- qcheck properties -------------------------------------------------- *)

let gen_pvn =
  QCheck.make
    ~print:(fun (p, n, s) -> Printf.sprintf "p=%d n=%d shift=%d" p n s)
    QCheck.Gen.(
      triple (int_range 1 16) (int_range 1 40) (int_range (-50) 50))

let circshift_prop (p, n, s) =
  let v = Array.init n (fun i -> float_of_int i) in
  let expected = Array.init n (fun i -> v.(((i - s) mod n + n) mod n)) in
  let results =
    run_all ~p:(min p 16) (fun _ ->
        Dmat.to_dense (Ops.circshift (Dmat.of_dense ~rows:n ~cols:1 v) s))
  in
  Array.for_all (fun got -> got = expected) results

let gen_mm =
  QCheck.make
    ~print:(fun (p, m, k, n) -> Printf.sprintf "p=%d %dx%d*%dx%d" p m k k n)
    QCheck.Gen.(
      quad (int_range 1 16) (int_range 1 9) (int_range 1 9) (int_range 1 9))

let matmul_prop (p, m, k, n) =
  let a = Array.init (m * k) (fun i -> float_of_int ((i * 13 mod 7) - 3)) in
  let b = Array.init (k * n) (fun i -> float_of_int ((i * 11 mod 9) - 4)) in
  let expected = ref_matmul m k n a b in
  let results =
    run_all ~p (fun _ ->
        let da = Dmat.of_dense ~rows:m ~cols:k a in
        let db = Dmat.of_dense ~rows:k ~cols:n b in
        Dmat.to_dense (Ops.matmul da db))
  in
  Array.for_all
    (fun got -> Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) got expected)
    results

(* --- exact kernels ---------------------------------------------------- *)

(* The dense multiply kernel reorders memory traffic (i-k-j, four-row
   matrix-vector passes, skipped zero terms) but must compute every
   element with the textbook operations in the textbook order, so it
   agrees with the naive i-j-k loop bit for bit (NaN matches NaN):
   signed zeros, 0 * Inf = NaN, overflow to Inf, subnormals and
   cancellation (1e16 + 1 - 1e16) all included. *)
let special_vals =
  [| 0.; -0.; 1.; -1.; 0.5; 3.; infinity; neg_infinity; nan; 1e308; 1e-310 |]

let same_bits x y =
  Int64.bits_of_float x = Int64.bits_of_float y
  || (Float.is_nan x && Float.is_nan y)

type exact_layout = Block | Cyclic2 | Replicated

let gen_exact =
  QCheck.Gen.(
    oneofl [ 1; 2; 3; 4; 7 ] >>= fun p ->
    oneofl [ Block; Cyclic2; Replicated ] >>= fun layout ->
    (* local row counts 1..9 under the block layout, so the four-row
       matrix-vector passes run with every tail length *)
    int_range 1 8 >>= fun r ->
    int_range 0 (p - 1) >>= fun e ->
    (* a distributed row-vector A takes the partial-sum path, whose
       rank partials an allreduce combines: not this kernel *)
    (if layout = Replicated then
       frequency [ (1, return 1); (9, return ((p * r) + e)) ]
     else return (max 2 ((p * r) + e)))
    >>= fun m ->
    int_range 0 6 >>= fun k ->
    frequency [ (1, return 1); (1, int_range 2 6) ] >>= fun n ->
    let entry =
      oneof
        [
          oneofa special_vals;
          (* sparse 0/1, as transitive closure squares *)
          frequency [ (3, return 0.); (1, return 1.) ];
          (* one accumulator per row: a split sum would round 1 away *)
          oneofl [ 1e16; 1.; -1e16; 0. ];
        ]
    in
    array_size (return (m * k)) entry >>= fun a ->
    array_size (return (k * n)) entry >>= fun b ->
    return (p, layout, m, k, n, a, b))

let print_exact (p, layout, m, k, n, a, b) =
  let show v =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") v))
  in
  let name =
    match layout with
    | Block -> "block"
    | Cyclic2 -> "cyclic:2"
    | Replicated -> "replicated"
  in
  Printf.sprintf "p=%d %s %dx%d*%dx%d\nA=[%s]\nB=[%s]" p name m k k n (show a)
    (show b)

let matmul_exact_prop (p, layout, m, k, n, a, b) =
  let expected = ref_matmul m k n a b in
  let saved = !Dmat.default_layout in
  (Dmat.default_layout :=
     match layout with
     | Cyclic2 -> Dmat.Lcyclic 2
     | Block | Replicated -> Dmat.Lblock);
  let mk rows cols d =
    if layout = Replicated then Dmat.of_full ~rows ~cols d
    else Dmat.of_dense ~rows ~cols d
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Dmat.default_layout := saved)
      (fun () ->
        run_all ~p (fun _ ->
            Dmat.to_dense (Ops.matmul (mk m k a) (mk k n b))))
  in
  Array.for_all (fun got -> Array.for_all2 same_bits got expected) results

let gen_tr =
  QCheck.make
    ~print:(fun (p, m, n) -> Printf.sprintf "p=%d %dx%d" p m n)
    QCheck.Gen.(triple (int_range 1 16) (int_range 1 12) (int_range 1 12))

let transpose_prop (p, m, n) =
  let a = Array.init (m * n) (fun i -> float_of_int i) in
  let expected =
    Array.init (n * m) (fun g -> a.(((g mod m) * n) + (g / m)))
  in
  let results =
    run_all ~p (fun _ ->
        Dmat.to_dense (Ops.transpose (Dmat.of_dense ~rows:m ~cols:n a)))
  in
  Array.for_all (fun got -> got = expected) results

let cumsum_prop (p, n, _) =
  let v = Array.init n (fun i -> Mpisim.Rng.uniform ~seed:5 i -. 0.5) in
  let expected =
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      v
  in
  let results =
    run_all ~p (fun _ ->
        Dmat.to_dense (Ops.cumulative Ops.Cumsum (Dmat.of_dense ~rows:n ~cols:1 v)))
  in
  Array.for_all
    (fun got -> Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) got expected)
    results

let reduction_invariant_prop (p, n, _) =
  (* distributed sum equals dense sum regardless of the partition *)
  let v = Array.init n (fun i -> Mpisim.Rng.uniform ~seed:7 i -. 0.5) in
  let expected = Array.fold_left ( +. ) 0. v in
  let results =
    run_all ~p (fun _ -> Ops.reduce_all Ops.Rsum (Dmat.of_dense ~rows:n ~cols:1 v))
  in
  Array.for_all (fun got -> Float.abs (got -. expected) < 1e-9) results

let test_cumulative () =
  let v = [| 1.; 2.; 3.; 4.; 5. |] in
  List.iter
    (fun p ->
      dense_of ~p
        (fun _ -> Dmat.to_dense (Ops.cumulative Ops.Cumsum (Dmat.of_dense ~rows:5 ~cols:1 v)))
        [| 1.; 3.; 6.; 10.; 15. |]
        (Printf.sprintf "cumsum p=%d" p);
      dense_of ~p
        (fun _ -> Dmat.to_dense (Ops.cumulative Ops.Cumprod (Dmat.of_dense ~rows:5 ~cols:1 v)))
        [| 1.; 2.; 6.; 24.; 120. |]
        (Printf.sprintf "cumprod p=%d" p))
    [ 1; 2; 3; 5; 8; 16 ]

let test_reduce_with_index () =
  let v = [| 4.; -1.; 7.; -1.; 7. |] in
  List.iter
    (fun p ->
      let results =
        run_all ~p (fun _ ->
            let d = Dmat.of_dense ~rows:5 ~cols:1 v in
            (Ops.reduce_with_index Ops.Rmin d, Ops.reduce_with_index Ops.Rmax d))
      in
      Array.iter
        (fun ((mn, mni), (mx, mxi)) ->
          Testutil.check_close "min value" (-1.) mn;
          Alcotest.(check int) "min first index" 2 mni;
          Testutil.check_close "max value" 7. mx;
          Alcotest.(check int) "max first index" 3 mxi)
        results)
    [ 1; 2; 4; 16 ]

let test_rng_deterministic () =
  Testutil.check_close "same seed same value"
    (Mpisim.Rng.uniform ~seed:3 17)
    (Mpisim.Rng.uniform ~seed:3 17);
  Alcotest.(check bool) "different index different value" true
    (Mpisim.Rng.uniform ~seed:3 17 <> Mpisim.Rng.uniform ~seed:3 18);
  Alcotest.(check bool) "in [0,1)" true
    (List.for_all
       (fun i ->
         let u = Mpisim.Rng.uniform ~seed:11 i in
         u >= 0. && u < 1.)
       (List.init 1000 (fun i -> i)))

let suite =
  [
    t "block distribution arithmetic" test_dist_arithmetic;
    t "matrix geometry" test_matrix_geometry;
    t "owner partition" test_owner_partition;
    t "to_dense/of_dense round trip" test_to_dense_of_dense_roundtrip;
    t "matmul shapes" test_matmul_shapes;
    t "matmul dimension check" test_matmul_dimension_check;
    t "dot product" test_dot;
    t "transpose" test_transpose;
    t "vector transpose is local" test_vector_transpose_is_local;
    t "outer product" test_outer;
    t "scalar reductions" test_reductions;
    t "column reductions" test_col_reductions;
    t "mean and norm" test_mean_and_norm;
    t "broadcast + guarded element write" test_bcast_then_set_elem;
    t "element bounds checking" test_elem_bounds;
    t "trapz" test_trapz;
    t "sections" test_sections;
    t "section traffic on a 24 x 16 x 16 grid" test_section_traffic;
    t "section corpus verifies under block and cyclic" test_section_corpus;
    t "tensor section assignment order" test_tensor_section_order;
    t "tensor section reads" test_tensor_section_read;
    t "cumulative scans" test_cumulative;
    t "reductions with index" test_reduce_with_index;
    t "rng determinism" test_rng_deterministic;
    Testutil.qtest ~count:150 "circshift == dense rotation" gen_pvn circshift_prop;
    Testutil.qtest ~count:100 "matmul == dense reference" gen_mm matmul_prop;
    Testutil.qtest ~count:300 "matmul kernels bit-identical to i-j-k"
      (QCheck.make ~print:print_exact gen_exact)
      matmul_exact_prop;
    Testutil.qtest ~count:100 "transpose == dense reference" gen_tr transpose_prop;
    Testutil.qtest ~count:60 "reductions partition-independent" gen_pvn
      reduction_invariant_prop;
    Testutil.qtest ~count:80 "cumsum == sequential prefix" gen_pvn cumsum_prop;
    t "a section store charges only the elements stored" test_section_store_ledger;
    (* frame-broadcast cells: used twice in one statement, reassigned
       mid-loop, in nested loops with a zero-trip inner loop, and an
       eye cell (which must not fold into the loop) *)
    t "frame broadcast corpus verifies under block and cyclic"
      (corpus_verifies
         [ "frame_cell_twice"; "frame_cell_reassigned"; "frame_cell_nested"; "frame_cell_eye" ]);
  ]
