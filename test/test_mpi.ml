(* Explicit message passing: the MatlabMPI-style builtins
   (MPI_Comm_rank/size, MPI_Send/Recv, MPI_Bcast, MPI_Probe) on the
   SPMD executor and the reference interpreter, and the job scheduler
   that space-shares ranks between tenants. *)

open Testutil

let t name f = Alcotest.test_case name `Quick f

let run_spmd ~nprocs src =
  Otter.outcome_exn (Otter.run (Otter.config ~nprocs ()) (compile src))

(* Output and traffic of [o] against a golden (output, messages, bytes). *)
let check_golden ~where (o : Exec.State.outcome) (output, messages, bytes) =
  check Alcotest.string (where ^ " output") output o.Exec.State.output;
  check Alcotest.int (where ^ " messages") messages
    o.Exec.State.report.Mpisim.Sim.messages;
  check Alcotest.int (where ^ " bytes") bytes
    o.Exec.State.report.Mpisim.Sim.bytes

(* --- pingpong: pinned output and traffic at P in {2,4,8} ---------------- *)

let pingpong_src =
  {|r = MPI_Comm_rank();
p = MPI_Comm_size();
total = 0;
if p > 1
  for k = 1:8
    if r == 0
      MPI_Send(1, 10, k);
      total = total + MPI_Recv(1, 11);
    end
    if r == 1
      v = MPI_Recv(0, 10);
      MPI_Send(0, 11, 2 * v);
    end
  end
else
  for k = 1:8
    MPI_Send(0, 10, k);
    total = total + 2 * MPI_Recv(0, 10);
  end
end
total = MPI_Bcast(0, total);
fprintf('pingpong total = %d\n', total);
|}

(* 8 round trips between ranks 0 and 1, then a linear broadcast of
   the total to the other P-1 ranks. *)
let pingpong_golden =
  [
    (2, ("pingpong total = 72\n", 17, 272));
    (4, ("pingpong total = 72\n", 19, 304));
    (8, ("pingpong total = 72\n", 23, 368));
  ]

let test_pingpong_pinned () =
  List.iter
    (fun (nprocs, golden) ->
      check_golden
        ~where:(Printf.sprintf "pingpong P=%d" nprocs)
        (run_spmd ~nprocs pingpong_src)
        golden)
    pingpong_golden

(* --- self-send: a rank's loopback queue ---------------------------------- *)

let test_self_send () =
  let src =
    {|r = MPI_Comm_rank();
MPI_Send(r, 5, 41);
MPI_Send(r, 5, 1);
a = MPI_Recv(r, 5);
b = MPI_Recv(r, 5);
fprintf('%d\n', a + b);
|}
  in
  List.iter
    (fun nprocs ->
      let o = run_spmd ~nprocs src in
      check Alcotest.string
        (Printf.sprintf "FIFO self-send P=%d" nprocs)
        "42\n" o.Exec.State.output)
    [ 1; 4 ];
  (* the interpreter is the one-rank machine: same queues, same answer *)
  let out, _ = run_interp src in
  check Alcotest.string "interpreter self-send" "42\n" out;
  (* a message is a value: a store into the sent array after the send
     does not reach the queued message *)
  let src =
    {|r = MPI_Comm_rank();
v = MPI_Bcast(0, [1, 2, 3]);
MPI_Send(r, 7, v);
v(1) = 99;
w = MPI_Recv(r, 7);
fprintf('%d %d\n', w(1), v(1));
|}
  in
  List.iter
    (fun nprocs ->
      let o = run_spmd ~nprocs src in
      check Alcotest.string
        (Printf.sprintf "send by value P=%d" nprocs)
        "1 99\n" o.Exec.State.output)
    [ 1; 4 ];
  let out, _ = run_interp src in
  check Alcotest.string "interpreter send by value" "1 99\n" out

(* --- deadlock: both ranks receive first ---------------------------------- *)

let test_deadlock () =
  let src =
    {|r = MPI_Comm_rank();
a = MPI_Recv(1 - r, 3);
MPI_Send(1 - r, 3, r + 1);
|}
  in
  (* both ranks receive before anyone sends: circular wait *)
  let c = compile src in
  (match
     Otter.run (Otter.config ~nprocs:2 ()) c |> Otter.outcome_exn
   with
  | exception Mpisim.Sim.Deadlock msg ->
      Alcotest.(check bool) "deadlock names a waiting rank" true
        (contains msg "waits for")
  | _ -> Alcotest.fail "expected a deadlock");
  (* one rank, no partner: the interpreter rejects the phantom peer,
     and a self-receive with nothing queued is flagged as the
     one-rank image of this deadlock *)
  (match run_interp src with
  | exception Interp.Eval.Runtime_error msg ->
      Alcotest.(check bool) "interp flags the phantom peer" true
        (contains msg "source rank 1 is outside 0..0")
  | _ -> Alcotest.fail "expected an interpreter error");
  match run_interp "r = MPI_Comm_rank();\nx = MPI_Recv(r, 3);\nMPI_Send(r, 3, 1);\n" with
  | exception Interp.Eval.Runtime_error msg ->
      Alcotest.(check bool) "interp flags pending-free recv" true
        (contains msg "no message pending")
  | _ -> Alcotest.fail "expected an interpreter error"

(* --- wildcard source: MPI_Recv(-1, tag) / MPI_Probe(-1, tag) ------------- *)

let anysrc_src =
  {|r = MPI_Comm_rank();
p = MPI_Comm_size();
n = 64;
chunk = n / p;
lo = r * chunk + 1;
hi = lo + chunk - 1;
part = (hi * (hi + 1) - (lo - 1) * lo) / 2;
total = part;
if r == 0
  for k = 2:p
    total = total + MPI_Recv(-1, 9);
  end
else
  MPI_Send(0, 9, part);
end
leftover = MPI_Probe(-1, 9);
total = MPI_Bcast(0, total);
fprintf('any-source gather: total = %d leftover = %d\n', total, leftover);
|}

let test_any_source_gather () =
  let expected = "any-source gather: total = 2080 leftover = 0\n" in
  List.iter
    (fun nprocs ->
      check Alcotest.string
        (Printf.sprintf "any-source gather P=%d" nprocs)
        expected (run_spmd ~nprocs anysrc_src).Exec.State.output)
    [ 1; 2; 4; 8 ];
  let out, _ = run_interp anysrc_src in
  check Alcotest.string "interpreter (any source = source 0)" expected out

let test_any_source_deadlock_diagnosed () =
  (* A wildcard receive nobody satisfies: the deadlock diagnostic must
     name the wildcard wait, not a phantom source rank. *)
  let src =
    {|r = MPI_Comm_rank();
if r > 100
  MPI_Send(0, 3, 1);
end
x = MPI_Recv(-1, 3);
|}
  in
  let c = compile src in
  match Otter.run (Otter.config ~nprocs:2 ()) c |> Otter.outcome_exn with
  | exception Mpisim.Sim.Deadlock msg ->
      Alcotest.(check bool) "wildcard named in diagnosis" true
        (contains msg "waits for (src=any, tag=2000003)")
  | _ -> Alcotest.fail "expected a deadlock"

let test_any_source_bad_rank () =
  let src = "MPI_Send(0, 1, 7);\nx = MPI_Recv(-2, 1);\n" in
  let c = compile src in
  match Otter.run (Otter.config ~nprocs:4 ()) c |> Otter.outcome_exn with
  | exception Exec.State.Runtime_error msg ->
      Alcotest.(check bool) "wildcard hinted" true
        (contains msg "source rank -2 is outside 0..3 (use -1 for any source)")
  | _ -> Alcotest.fail "expected a runtime error"

(* --- tag mismatch: receiving a tag nothing sends is rejected ------------- *)

let test_tag_mismatch () =
  let src = "x = MPI_Recv(0, 77);\n" in
  match compile src with
  | exception Mlang.Source.Error (_, msg) ->
      Alcotest.(check bool) "never-sent tag named" true
        (contains msg "no MPI_Send in the program sends tag 77")
  | _ -> Alcotest.fail "expected a compile-time error"

(* --- a tensor is not a message ------------------------------------------ *)

let test_tensor_message_rejected () =
  List.iter
    (fun (op, src) ->
      match compile src with
      | exception Mlang.Source.Error (pos, msg) ->
          Alcotest.(check string)
            (op ^ " of a tensor names the fix")
            (op ^ ": cannot send a tensor; slice it into matrices or scalars \
                   first")
            msg;
          Alcotest.(check int) (op ^ " line") 2 pos.Mlang.Source.line
      | _ -> Alcotest.failf "%s of a tensor compiled" op)
    [
      ("MPI_Send", "x = ones(2, 2, 2);\nMPI_Send(1, 7, x);\ny = MPI_Recv(0, 7);\n");
      ("MPI_Bcast", "x = ones(2, 2, 2);\ny = MPI_Bcast(0, x);\n");
    ]

(* [Otter.verify] compares printed output as well as variables.  A
   script that prints the rank count and assigns nothing has no
   variable to disagree on, yet its output differs at P > 1: verify
   reports it as [<stdout>], naming both tokens. *)
let test_verify_compares_stdout () =
  let c = compile {|fprintf('ranks %d\n', MPI_Comm_size());|} in
  let verdict p = Otter.verify (Otter.config ~nprocs:p ()) c in
  (match verdict 1 with
  | Otter.Verified -> ()
  | _ -> Alcotest.fail "P=1 output should verify");
  match verdict 4 with
  | Otter.Mismatched [ { Otter.variable = "<stdout>"; detail } ] ->
      Alcotest.(check string) "detail" "output token 1 vs 4" detail
  | Otter.Mismatched ms ->
      Alcotest.failf "unexpected mismatches: %s"
        (String.concat "; " (List.map (fun m -> m.Otter.variable) ms))
  | Otter.Verified -> Alcotest.fail "a P-dependent output verified"
  | Otter.Aborted { detail; _ } -> Alcotest.failf "aborted: %s" detail

let test_rank_bounds () =
  let src = "MPI_Send(99, 1, 0);\nx = MPI_Recv(99, 1);\n" in
  let c = compile src in
  match Otter.run (Otter.config ~nprocs:4 ()) c |> Otter.outcome_exn with
  | exception Exec.State.Runtime_error msg ->
      Alcotest.(check bool) "out-of-range rank named" true
        (contains msg "destination rank 99 is outside 0..3")
  | _ -> Alcotest.fail "expected a runtime error"

(* --- MPI_Bcast of a distributed matrix: every replica is its own ------- *)

(* At P=65 on the fat-tree, replicating a distributed matrix runs the
   doubling allgather, whose result is read-only: peers may still read
   windows of it after a rank has returned.  The replica MPI_Bcast
   hands back must be a copy.  Rank 3 overwrites its whole replica at
   once; every other rank's replica must still sum to the distributed
   matrix's sum (integers, so exactly), and rank 3's must not. *)
let test_bcast_replicas_independent () =
  let src =
    {|r = MPI_Comm_rank();
p = MPI_Comm_size();
a = floor(rand(130, 4) * 100);
e = sum(sum(a));
w = 0;
if r == 3
  for k = 1:2000
    w = w + k;
  end
end
c = MPI_Bcast(0, a);
if r == 3
  for i = 1:130
    for j = 1:4
      c(i, j) = -1;
    end
  end
end
MPI_Send(0, 7, sum(sum(c)) ~= e);
if r == 0
  for s = 0:p-1
    b = MPI_Recv(s, 7);
    if b
      fprintf('rank %d changed\n', s);
    end
  end
end
|}
  in
  let o =
    Otter.outcome_exn
      (Otter.run
         (Otter.config ~machine:Mpisim.Machine.fattree_default ~nprocs:65 ())
         (compile src))
  in
  check Alcotest.string "only rank 3's replica changed" "rank 3 changed\n"
    o.Exec.State.output

(* A window is a collective's payload: one that reaches a user-level
   receive is a typed protocol error (otterc exit 6), not a program
   error or a match failure. *)
let test_window_at_user_receive () =
  let tag = 5 in
  match
    Mpisim.Sim.run ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:2 (fun rank ->
        if rank = 0 then
          Mpisim.Sim.send ~dst:1 ~tag:(Exec.State.mpi_user_tag tag)
            (Mpisim.Sim.Window ([| 1.; 2. |], 0, 2, 0))
        else ignore (Exec.State.mpi_recv ~src:0 ~tag ~is_matrix:true))
  with
  | exception
      Mpisim.Sim.Rank_failure
        { rank = 1; exn = Mpisim.Sim.Protocol_error { src = 0; detail; _ } as e }
    ->
      check Alcotest.bool "classified as a protocol error" true
        (Exec.State.classify_failure e = Exec.State.Fprotocol);
      check Alcotest.bool "detail names the window" true
        (contains detail "MPI_Recv: a collective's window payload")
  | _ -> Alcotest.fail "expected a protocol error on rank 1"

(* --- mixed explicit + implicit on the app x machine matrix --------------- *)

(* Four small apps that each mix whole-array (implicitly parallel)
   operations with explicit messaging, verified against the reference
   interpreter on three machine models.  All four print rank-invariant
   results, so interpreter output and captures must match exactly. *)
(* Each app lists the variables to compare: only rank-invariant ones —
   block shapes and MPI_Comm_size() legitimately differ between the
   one-rank interpreter and a P=4 run. *)
let mixed_apps =
  [
    ( "filter",
      [ "s" ],
      {|r = MPI_Comm_rank();
p = MPI_Comm_size();
n = 16;
img = rand(n, n);
img = MPI_Bcast(0, img);
rows = n / p;
lo = r * rows + 1;
mine = img(lo:lo+rows-1, :);
MPI_Send(0, 8, mine);
s = 0;
if r == 0
  for src = 0:p-1
    g = MPI_Recv(src, 8);
    s = s + sum(sum(g));
  end
end
s = MPI_Bcast(0, s);
fprintf('%.9f\n', s);
|} );
    ( "dot+roundtrip",
      [ "t"; "u" ],
      {|a = rand(6, 6);
b = a * a';
t = sum(sum(b));
r = MPI_Comm_rank();
MPI_Send(r, 5, t);
u = MPI_Recv(r, 5);
fprintf('%.9f\n', u);
|} );
    ( "bcast-matrix",
      [ "c"; "d" ],
      {|a = rand(4, 8);
c = MPI_Bcast(0, a);
d = c .* 2 + 1;
fprintf('%.9f\n', sum(sum(d)));
|} );
    ( "probe-drained",
      [ "w"; "q" ],
      {|r = MPI_Comm_rank();
v = norm(rand(5, 1));
MPI_Send(r, 9, v);
w = MPI_Recv(r, 9);
q = MPI_Probe(r, 9);
fprintf('%.9f %g\n', w, q);
|} );
  ]

let mixed_machines =
  [
    Mpisim.Machine.meiko_cs2;
    Mpisim.Machine.enterprise_smp;
    Mpisim.Machine.sparc20_cluster;
  ]

let test_mixed_matrix () =
  List.iter
    (fun (name, capture, src) ->
      let c = compile src in
      List.iter
        (fun machine ->
          match Otter.verify (Otter.config ~machine ~nprocs:4 ~capture ()) c with
          | Otter.Verified -> ()
          | Otter.Mismatched (m :: _) ->
              Alcotest.failf "%s on %s: %s: %s" name
                machine.Mpisim.Machine.name m.Otter.variable m.Otter.detail
          | Otter.Mismatched [] -> assert false
          | Otter.Aborted { detail; _ } ->
              Alcotest.failf "%s on %s aborted: %s" name
                machine.Mpisim.Machine.name detail)
        mixed_machines)
    mixed_apps

(* --- example apps: pinned output and traffic at P in {2,4,8} ----------- *)

let examples_golden =
  [
    (* the program of [pingpong_src], plus comments *)
    ("pingpong.m", pingpong_golden);
    ( "mpi_filter.m",
      [
        (2, ("mpi filter checksum = 2054.901935\n", 5, 65600));
        (4, ("mpi filter checksum = 2054.901935\n", 19, 131216));
        (8, ("mpi filter checksum = 2054.901935\n", 71, 262448));
      ] );
    ( "mpi_anysrc.m",
      [
        (2, ("any-source gather: total = 2080 leftover = 0\n", 2, 32));
        (4, ("any-source gather: total = 2080 leftover = 0\n", 6, 96));
        (8, ("any-source gather: total = 2080 leftover = 0\n", 14, 224));
      ] );
  ]

let test_examples_pinned () =
  match find_up "examples/matlab" with
  | None -> () (* sandboxed without sources *)
  | Some dir ->
      List.iter
        (fun (file, goldens) ->
          let src = read_file (Filename.concat dir file) in
          List.iter
            (fun (nprocs, golden) ->
              check_golden
                ~where:(Printf.sprintf "%s P=%d" file nprocs)
                (run_spmd ~nprocs src) golden)
            goldens)
        examples_golden

(* --- bandwidth is monotone in message size ------------------------------- *)

let pingpong_sized ~n ~trips =
  Printf.sprintf
    {|r = MPI_Comm_rank();
a = rand(%d, %d);
a = MPI_Bcast(0, a);
for k = 1:%d
  if r == 0
    MPI_Send(1, 1, a);
    a = MPI_Recv(1, 2);
  end
  if r == 1
    b = MPI_Recv(0, 1);
    MPI_Send(0, 2, b);
  end
end
|}
    n n trips

let test_bandwidth_monotone () =
  List.iter
    (fun machine ->
      let bandwidth n =
        let time trips =
          let c = compile (pingpong_sized ~n ~trips) in
          (Otter.outcome_exn (Otter.run (Otter.config ~machine ~nprocs:2 ()) c))
            .Exec.State.report.Mpisim.Sim.makespan
        in
        let dt = time 2 -. time 0 in
        float_of_int (n * n) /. dt
      in
      let b1 = bandwidth 4 and b2 = bandwidth 16 and b3 = bandwidth 64 in
      Alcotest.(check bool)
        (Printf.sprintf "bandwidth monotone on %s" machine.Mpisim.Machine.name)
        true
        (b1 < b2 && b2 < b3))
    mixed_machines

(* --- the job scheduler --------------------------------------------------- *)

let sched_job name procs c =
  {
    Otter.Sched.j_name = name;
    j_procs = procs;
    j_run =
      (fun ~nprocs ->
        (Otter.outcome_exn (Otter.run (Otter.config ~nprocs ()) c))
          .Exec.State.report);
  }

let test_scheduler () =
  let c = compile pingpong_src in
  let jobs = List.init 4 (fun i -> sched_job (Printf.sprintf "pp[%d]" i) 4 c) in
  let s =
    Otter.Sched.run ~machine:Mpisim.Machine.meiko_cs2 ~procs:8 jobs
  in
  (* 4 four-rank jobs on 8 ranks: two waves of two tenants *)
  check Alcotest.int "all jobs placed" 4
    (List.length s.Otter.Sched.s_placements);
  let bases =
    List.map (fun p -> (p.Otter.Sched.p_first_rank, p.Otter.Sched.p_start))
      s.Otter.Sched.s_placements
  in
  (match bases with
  | [ (0, t0); (4, t1); (0, t2); (4, t3) ] ->
      checkf "wave 1 starts at 0 (a)" 0. t0;
      checkf "wave 1 starts at 0 (b)" 0. t1;
      Alcotest.(check bool) "wave 2 queued behind wave 1" true
        (t2 > 0. && t3 > 0.)
  | _ -> Alcotest.fail "unexpected placement");
  Alcotest.(check bool) "throughput positive" true
    (s.Otter.Sched.s_throughput > 0.);
  (* identical job lists schedule identically (determinism) *)
  let s2 =
    Otter.Sched.run ~machine:Mpisim.Machine.meiko_cs2 ~procs:8 jobs
  in
  checkf "deterministic makespan" s.Otter.Sched.s_makespan
    s2.Otter.Sched.s_makespan

let test_scheduler_rejects () =
  let c = compile "x = 1;\n" in
  let job = sched_job "big" 32 c in
  (match
     Otter.Sched.run ~machine:Mpisim.Machine.meiko_cs2 ~procs:16 [ job ]
   with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "oversized job named" true
        (contains msg "wants 32 of 16 ranks")
  | _ -> Alcotest.fail "expected Invalid_argument");
  match
    Otter.Sched.run ~machine:Mpisim.Machine.meiko_cs2 ~procs:64 []
  with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "overscaled machine named" true
        (contains msg "has at most 16 processors")
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  [
    t "pingpong matches goldens at P=2,4,8" test_pingpong_pinned;
    t "self-send queue is FIFO" test_self_send;
    t "circular receives deadlock" test_deadlock;
    t "any-source gather verifies across P" test_any_source_gather;
    t "unsatisfied any-source recv names the wildcard"
      test_any_source_deadlock_diagnosed;
    t "bad source rank hints the wildcard" test_any_source_bad_rank;
    t "receiving a never-sent tag is rejected" test_tag_mismatch;
    t "out-of-range ranks are diagnosed" test_rank_bounds;
    t "mixed explicit+implicit verifies on 4 apps x 3 machines"
      test_mixed_matrix;
    t "example apps match recorded goldens" test_examples_pinned;
    t "bandwidth monotone in message size" test_bandwidth_monotone;
    t "scheduler space-shares and accounts tenants" test_scheduler;
    t "scheduler rejects oversized requests" test_scheduler_rejects;
    t "MPI_Bcast replicas are independent at P=65"
      test_bcast_replicas_independent;
    t "a window at a user receive is a protocol error"
      test_window_at_user_receive;
    t "sending a tensor is a compile error" test_tensor_message_rejected;
    t "verify compares printed output" test_verify_compares_stdout;
  ]
