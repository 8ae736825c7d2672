(* Every script in examples/matlab must compile and verify between the
   interpreter and an 8-CPU simulated run (exact output agreement). *)

let t name f = Alcotest.test_case name `Quick f

let corpus_dir = lazy (Testutil.find_up "examples/matlab")

let test_corpus () =
  match Lazy.force corpus_dir with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".m")
        |> List.sort compare
      in
      Alcotest.(check bool) "corpus nonempty" true (List.length files >= 5);
      List.iter
        (fun f ->
          let src = Testutil.read_file (Filename.concat dir f) in
          let c = Otter.compile src in
          let oi =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~engine:Otter.Config.Einterp
                    ~machine:Mpisim.Machine.workstation ~nprocs:1 ())
                 c)
          in
          let op =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~machine:Mpisim.Machine.meiko_cs2 ~nprocs:8 ())
                 c)
          in
          Alcotest.(check string)
            (f ^ ": identical output on 8 CPUs")
            oi.Exec.State.output op.Exec.State.output)
        files

let suite = [ t "examples/matlab corpus" test_corpus ]
