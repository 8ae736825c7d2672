(* Multi-tenant space-sharing scheduler.

   The machine is a row of P rank slots; a job is a script plus a rank
   count.  Jobs are placed in submission order into the earliest
   contiguous block that fits (lowest base rank on ties) — the
   space-shared partitioning of the MPP era, which keeps every tenant's
   ranks adjacent and the placement a pure function of the job list.

   Each job simulates on its own private ranks ([Sim.run] nested per
   job), so tenants cannot exchange messages; what they share is the
   machine's capacity, modeled by the block's availability time. *)

module Sim = Mpisim.Sim
module Machine = Mpisim.Machine

type job = {
  j_name : string;
  j_procs : int;
  j_run : nprocs:int -> Sim.report;
}

type placement = {
  p_name : string;
  p_first_rank : int;
  p_procs : int;
  p_start : float;
  p_finish : float;
  p_report : Sim.report;
}

type schedule = {
  s_placements : placement list;
  s_makespan : float;
  s_throughput : float;
}

let run ~machine ~procs (jobs : job list) : schedule =
  if procs < 1 then invalid_arg "Sched.run: need at least one rank";
  if procs > machine.Machine.max_procs then
    invalid_arg
      (Printf.sprintf "Sched.run: %s has at most %d processors"
         machine.Machine.name machine.Machine.max_procs);
  let free = Array.make procs 0. in
  let place (j : job) : placement =
    if j.j_procs < 1 then
      invalid_arg
        (Printf.sprintf "Sched.run: job '%s' asks for no ranks" j.j_name);
    if j.j_procs > procs then
      invalid_arg
        (Printf.sprintf "Sched.run: job '%s' wants %d of %d ranks" j.j_name
           j.j_procs procs);
    (* Earliest contiguous block; strict improvement keeps the lowest
       base on ties, so placement is deterministic. *)
    let best_base = ref 0 and best_start = ref infinity in
    for base = 0 to procs - j.j_procs do
      let start = ref 0. in
      for r = base to base + j.j_procs - 1 do
        if free.(r) > !start then start := free.(r)
      done;
      if !start < !best_start then begin
        best_start := !start;
        best_base := base
      end
    done;
    let base = !best_base and start = !best_start in
    let report = j.j_run ~nprocs:j.j_procs in
    let finish = start +. report.Sim.makespan in
    for r = base to base + j.j_procs - 1 do
      free.(r) <- finish
    done;
    {
      p_name = j.j_name;
      p_first_rank = base;
      p_procs = j.j_procs;
      p_start = start;
      p_finish = finish;
      p_report = report;
    }
  in
  let placements = List.map place jobs in
  let makespan = Array.fold_left Float.max 0. free in
  let throughput =
    if makespan > 0. then float_of_int (List.length jobs) /. makespan else 0.
  in
  {
    s_placements = placements;
    s_makespan = makespan;
    s_throughput = throughput;
  }

let table (s : schedule) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "  %-24s %-7s %10s %10s %9s %10s\n" "job" "ranks"
       "start" "finish" "messages" "bytes");
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "  %-24s %3d-%-3d %10.4f %10.4f %9d %10d\n" p.p_name
           p.p_first_rank
           (p.p_first_rank + p.p_procs - 1)
           p.p_start p.p_finish p.p_report.Sim.messages
           p.p_report.Sim.bytes))
    s.s_placements;
  Buffer.add_string b
    (Printf.sprintf "  %d jobs in %.4f s: %.1f jobs/s\n"
       (List.length s.s_placements)
       s.s_makespan s.s_throughput);
  Buffer.contents b
