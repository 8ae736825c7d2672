% A rank that has returned cannot die.  Under `--faults
% kill_rank=1,kill_time=0.0001` at P = 2, rank 1 returns at once and
% its death time passes while rank 0 still computes; the run must end
% normally, rank 0 taking its own message.  A death scheduled anyway
% once stopped the run with rank 0's message untaken.
r = MPI_Comm_rank();
x = 0;
if r == 0
  for i = 1:2000
    x = x + sin(i);
  end
  MPI_Send(0, 1, x);
  x = MPI_Recv(0, 1);
end
fprintf('%.17g\n', x);
