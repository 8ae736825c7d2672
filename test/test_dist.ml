(* Distribution-arithmetic tests: QCheck properties of the block and
   block-cyclic owner/low/count algebra, the edge cases
   (n = 0, n < p, p = 1, block > n), and end-to-end verification of
   the paper applications under the non-block layouts. *)

open Runtime

let t name f = Alcotest.test_case name `Quick f
let qt = QCheck_alcotest.to_alcotest

(* --- 1-D block ----------------------------------------------------------- *)

let gen_pn = QCheck.(pair (int_range 1 32) (int_range 0 200))

let block_partition =
  QCheck.Test.make ~count:500 ~name:"block: ranges partition [0,n)" gen_pn
    (fun (p, n) ->
      let counts = Dist.counts ~nprocs:p ~n in
      Array.length counts = p
      && Array.fold_left ( + ) 0 counts = n
      && Array.for_all (fun c -> c >= 0) counts
      &&
      (* consecutive non-empty blocks tile [0,n) in rank order; [high]
         is the exclusive upper bound of the half-open range *)
      let next = ref 0 and ok = ref true in
      for r = 0 to p - 1 do
        let lo = Dist.low ~rank:r ~nprocs:p ~n in
        let sz = Dist.size ~rank:r ~nprocs:p ~n in
        if sz <> counts.(r) then ok := false;
        if sz > 0 && lo <> !next then ok := false;
        if Dist.high ~rank:r ~nprocs:p ~n <> lo + sz then ok := false;
        next := !next + sz
      done;
      !ok && !next = n)

let block_owner_inverse =
  QCheck.Test.make ~count:500 ~name:"block: owner inverse of low/high" gen_pn
    (fun (p, n) ->
      let ok = ref true in
      for i = 0 to n - 1 do
        let r = Dist.owner ~nprocs:p ~n i in
        if r < 0 || r >= p then ok := false
        else if
          i < Dist.low ~rank:r ~nprocs:p ~n
          || i >= Dist.high ~rank:r ~nprocs:p ~n
        then ok := false
      done;
      !ok)

let block_balance =
  QCheck.Test.make ~count:500 ~name:"block: sizes differ by at most one"
    gen_pn (fun (p, n) ->
      let counts = Dist.counts ~nprocs:p ~n in
      let mn = Array.fold_left min max_int counts in
      let mx = Array.fold_left max 0 counts in
      mx - mn <= 1)

(* --- block-cyclic -------------------------------------------------------- *)

let gen_pbn =
  QCheck.(triple (int_range 1 16) (int_range 1 10) (int_range 0 200))

let cyclic_counts_sum =
  QCheck.Test.make ~count:500 ~name:"cyclic: counts sum to n" gen_pbn
    (fun (p, b, n) ->
      let counts = Dist.Cyclic.counts ~nprocs:p ~b ~n in
      Array.length counts = p
      && Array.fold_left ( + ) 0 counts = n
      && Array.for_all (fun c -> c >= 0) counts
      && Array.to_list counts
         = List.init p (fun r -> Dist.Cyclic.count ~rank:r ~nprocs:p ~b ~n))

let cyclic_inverse =
  QCheck.Test.make ~count:500
    ~name:"cyclic: global_of_local inverse of local_of_global" gen_pbn
    (fun (p, b, n) ->
      let ok = ref true in
      for i = 0 to n - 1 do
        let r = Dist.Cyclic.owner ~nprocs:p ~b i in
        let l = Dist.Cyclic.local_of_global ~nprocs:p ~b i in
        if r < 0 || r >= p then ok := false;
        if l < 0 || l >= Dist.Cyclic.count ~rank:r ~nprocs:p ~b ~n then
          ok := false;
        if Dist.Cyclic.global_of_local ~rank:r ~nprocs:p ~b l <> i then
          ok := false
      done;
      !ok)

let cyclic_partition =
  QCheck.Test.make ~count:300
    ~name:"cyclic: per-rank locals partition [0,n) ascending" gen_pbn
    (fun (p, b, n) ->
      let seen = Array.make (max n 1) 0 in
      let ok = ref true in
      for r = 0 to p - 1 do
        let c = Dist.Cyclic.count ~rank:r ~nprocs:p ~b ~n in
        let prev = ref (-1) in
        for l = 0 to c - 1 do
          let g = Dist.Cyclic.global_of_local ~rank:r ~nprocs:p ~b l in
          if g < 0 || g >= n then ok := false
          else begin
            seen.(g) <- seen.(g) + 1;
            if Dist.Cyclic.owner ~nprocs:p ~b g <> r then ok := false;
            if g <= !prev then ok := false;
            prev := g
          end
        done
      done;
      !ok && (n = 0 || Array.for_all (fun c -> c = 1) seen))

(* --- edge cases ---------------------------------------------------------- *)

let test_edges () =
  (* n = 0: everyone owns nothing *)
  Alcotest.(check (array int))
    "block n=0" [| 0; 0; 0; 0; 0 |]
    (Dist.counts ~nprocs:5 ~n:0);
  Alcotest.(check (array int))
    "cyclic n=0" [| 0; 0; 0 |]
    (Dist.Cyclic.counts ~nprocs:3 ~b:2 ~n:0);
  (* n < p: n ranks own one item each under the r*n/p formula *)
  Alcotest.(check (array int))
    "block n<p" [| 0; 1; 0; 1; 1 |]
    (Dist.counts ~nprocs:5 ~n:3);
  (* p = 1: rank 0 owns everything, identity local numbering *)
  Alcotest.(check int) "block p=1" 7 (Dist.size ~rank:0 ~nprocs:1 ~n:7);
  for i = 0 to 6 do
    Alcotest.(check int) "cyclic p=1 owner" 0
      (Dist.Cyclic.owner ~nprocs:1 ~b:2 i);
    Alcotest.(check int) "cyclic p=1 local" i
      (Dist.Cyclic.local_of_global ~nprocs:1 ~b:2 i)
  done;
  (* block size larger than n: rank 0 owns the single short block *)
  Alcotest.(check (array int))
    "cyclic b>n" [| 5; 0; 0 |]
    (Dist.Cyclic.counts ~nprocs:3 ~b:7 ~n:5)

(* --- layout plumbing ----------------------------------------------------- *)

let test_layout_names () =
  List.iter
    (fun (s, l) ->
      (match Otter.Config.layout_of_string s with
      | Some got when got = l -> ()
      | Some _ -> Alcotest.failf "layout_of_string %S: wrong layout" s
      | None -> Alcotest.failf "layout_of_string %S: parse failed" s);
      Alcotest.(check string)
        ("round-trip " ^ s) s
        (Otter.Config.layout_name l))
    [
      ("block", Dmat.Lblock);
      ("cyclic:1", Dmat.Lcyclic 1);
      ("cyclic:4", Dmat.Lcyclic 4);
    ];
  Alcotest.(check bool)
    "bare cyclic" true
    (Otter.Config.layout_of_string "cyclic" = Some (Dmat.Lcyclic 1));
  List.iter
    (fun s ->
      if Otter.Config.layout_of_string s <> None then
        Alcotest.failf "layout_of_string %S: expected None" s)
    [
      "";
      "cyclic:0";
      "cyclic:x";
      "grid:2x2";
      "grid:1x8";
      "grid:2";
      "grid:0x2";
      "grid:2x";
      "banana";
    ]

(* --- end-to-end: apps under non-block layouts ---------------------------- *)

let verify_layout key ~layout ~nprocs =
  let app = Option.get (Apps.Scripts.find key) in
  let c = Otter.compile (app.Apps.Scripts.source 8) in
  let mm =
    Otter.verify_list
      (Otter.config ~tol:1e-6 ~nprocs ~layout
         ~capture:app.Apps.Scripts.capture ())
      c
  in
  if mm <> [] then
    Alcotest.failf "%s P=%d %s: %s" key nprocs
      (Otter.Config.layout_name layout)
      (String.concat "; "
         (List.map (fun m -> m.Otter.variable ^ ": " ^ m.Otter.detail) mm))

let test_apps_cyclic () =
  List.iter
    (fun key ->
      verify_layout key ~layout:(Dmat.Lcyclic 1) ~nprocs:4;
      verify_layout key ~layout:(Dmat.Lcyclic 3) ~nprocs:4)
    [ "cg"; "ocean"; "tc" ]

let suite =
  [
    qt block_partition;
    qt block_owner_inverse;
    qt block_balance;
    qt cyclic_counts_sum;
    qt cyclic_inverse;
    qt cyclic_partition;
    t "edge cases" test_edges;
    t "layout parse/print" test_layout_names;
    t "apps verify under cyclic layouts" test_apps_cyclic;
  ]
