(* Smoke test of the benchmark harness, run by `dune runtest`.

     smoke.exe OTTERBENCH.exe BENCHMARK.json

   1. The compare rule on synthetic samples.
   2. `otterbench run --quick`: every end-to-end metric BENCHMARK.json
      names is reported, with its unit, for every workload it names,
      and no operation failed.
   3. `otterbench trace --quick`: the same for the per-layer metrics,
      and the Chrome trace it writes parses. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* --- the compare rule -------------------------------------------------------- *)

let test_compare () =
  let judge ?(better = Compare.Lower) ?(bound = 0.1) ?(exact = false) p c =
    (Compare.judge ~better ~bound ~exact p c).Compare.verdict
  in
  let around x = List.init 10 (fun i -> x +. (0.001 *. float_of_int (i mod 3))) in
  check "faster on every pair is improved"
    (judge (around 1.0) (around 0.8) = Compare.Improved);
  check "the same sample is unchanged" (judge (around 1.0) (around 1.0) = Compare.Unchanged);
  check "20% slower is regressed" (judge (around 1.0) (around 1.2) = Compare.Regressed);
  check "5% slower stays within a 10% bound"
    (judge (around 1.0) (around 1.05) = Compare.Unchanged);
  check "higher-is-better flips the sign"
    (judge ~better:Compare.Higher (around 1.0) (around 1.2) = Compare.Improved);
  let wide = [ 1.; 2.; 1.; 2.; 1.; 2.; 1.; 2.; 1.; 2. ] in
  check "a parent spread wider than the bound is unresolved"
    (judge wide (List.map (fun x -> x *. 1.01) wide) = Compare.Unresolved);
  check "8 wins of 10 is not a gain"
    (judge
       [ 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1. ]
       [ 0.9; 0.9; 0.9; 0.9; 0.9; 0.9; 0.9; 0.9; 1.; 1. ]
    <> Compare.Improved);
  check "a median gap inside the parent's spread is not a gain"
    (judge ~bound:0.2
       [ 1.; 1.1; 1.; 1.1; 1.; 1.1; 1.; 1.1; 1.; 1.1 ]
       [ 0.99; 1.09; 0.99; 1.09; 0.99; 1.09; 0.99; 1.09; 0.99; 1.09 ]
    = Compare.Unchanged);
  check "exact metrics: equal is unchanged"
    (judge ~exact:true (List.init 10 (fun _ -> 5.)) (List.init 10 (fun _ -> 5.))
    = Compare.Unchanged);
  check "exact metrics: one more message is regressed"
    (judge ~exact:true (List.init 10 (fun _ -> 5.)) (List.init 10 (fun _ -> 6.))
    = Compare.Regressed);
  check "quartiles match Python's statistics.quantiles"
    (Stats.quantiles ~n:4 [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]
    = [| 2.75; 5.5; 8.25 |])

(* --- the harness end to end --------------------------------------------------- *)

let run exe args ~stdout =
  let cmd = Filename.quote_command exe args ~stdout in
  let code = Sys.command cmd in
  check (Printf.sprintf "%s exits 0 (got %d)" cmd code) (code = 0)

let last_line file =
  let ic = open_in file in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> close_in ic);
  !last

let names_units section spec =
  List.map
    (fun m ->
      (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member section spec))

(* Every metric of [expected] is in the workload's [section] with the
   same unit. *)
let covers ~section ~expected w =
  let name = Json.to_str (Json.member "workload" w) in
  let got = Json.to_obj (Json.member section w) in
  List.iter
    (fun (m, unit) ->
      match List.assoc_opt m got with
      | Some v ->
          check
            (Printf.sprintf "%s %s has unit %s" name m unit)
            (Json.to_str (Json.member "unit" v) = unit)
      | None -> check (Printf.sprintf "%s reports %s" name m) false)
    expected

let test_harness exe spec_file =
  let spec = Json.read_file spec_file in
  let workloads =
    List.map
      (fun w -> Json.to_str (Json.member "name" w))
      (Json.to_list (Json.member "workloads" spec))
  in
  (* run --quick *)
  run exe [ "run"; "--quick"; "--json"; "run.json" ] ~stdout:"run.out";
  let result = Json.of_string (last_line "run.out") in
  check "run: correct" (Json.member "correct" result = Json.Bool true);
  check "run: failed = 0" (Json.to_num (Json.member "failed" result) = 0.);
  let records = Json.to_list (Json.member "workloads" (Json.read_file "run.json")) in
  check "run: one record per workload in BENCHMARK.json"
    (List.map (fun w -> Json.to_str (Json.member "workload" w)) records = workloads);
  List.iter
    (fun w ->
      covers ~section:"end_to_end" ~expected:(names_units "end_to_end" spec) w;
      check "run: failed_frac = 0"
        (Json.to_num (Json.member "value" (Json.member "failed_frac" (Json.member "end_to_end" w)))
        = 0.))
    records;
  (* trace --quick *)
  run exe
    [ "trace"; "--quick"; "--json"; "trace-run.json"; "--out"; "trace.json" ]
    ~stdout:"trace.out";
  let result = Json.of_string (last_line "trace.out") in
  check "trace: correct" (Json.member "correct" result = Json.Bool true);
  List.iter
    (covers ~section:"layer" ~expected:(names_units "per_layer" spec))
    (Json.to_list (Json.member "workloads" (Json.read_file "trace-run.json")));
  let events = Json.to_list (Json.member "traceEvents" (Json.read_file "trace.json")) in
  check "trace: has complete events"
    (List.exists (fun e -> Json.member "ph" e = Json.Str "X") events)

let () =
  match Sys.argv with
  | [| _; exe; spec |] ->
      let exe =
        if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe
        else exe
      in
      test_compare ();
      test_harness exe spec;
      if !failures > 0 then begin
        Printf.printf "%d check(s) failed\n" !failures;
        exit 1
      end
      else print_endline "otterbench smoke: ok"
  | _ ->
      prerr_endline "usage: smoke.exe OTTERBENCH.exe BENCHMARK.json";
      exit 2
