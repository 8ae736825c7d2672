(** Multi-tenant job scheduler: space-share the ranks of one simulated
    machine across many concurrent scripts.

    Each job asks for a block of ranks; the scheduler assigns the
    earliest-available contiguous block (FIFO submission order, lowest
    base rank on ties), runs the job's script on its own ranks, and
    accounts the tenancy — who ran where, when, and what traffic it
    generated — in one {!placement} per job, each carrying the job's own
    {!Mpisim.Sim.report}.  Deterministic: the same job list on the same
    machine always produces the same schedule. *)

type job = {
  j_name : string;
  j_procs : int;  (** ranks requested; must fit the machine *)
  j_run : nprocs:int -> Mpisim.Sim.report;
      (** execute the job's script on [nprocs] ranks and report; the
          caller closes over its compiled program and run config *)
}

type placement = {
  p_name : string;
  p_first_rank : int;  (** base of the assigned contiguous block *)
  p_procs : int;
  p_start : float;  (** virtual time the block became available *)
  p_finish : float;  (** [p_start] + the job's makespan *)
  p_report : Mpisim.Sim.report;  (** the job's own run report *)
}

type schedule = {
  s_placements : placement list;  (** submission order *)
  s_makespan : float;  (** when the last job finished *)
  s_throughput : float;  (** jobs per simulated second *)
}

val run : machine:Mpisim.Machine.t -> procs:int -> job list -> schedule
(** Space-share [procs] ranks of [machine] over the job list.  Raises
    [Invalid_argument] if [procs] exceeds the machine or a job asks
    for more ranks than the machine has. *)

val table : schedule -> string
(** The schedule as a human-readable table (one row per tenant plus a
    throughput summary line), shared by [otterc serve] and the bench. *)
