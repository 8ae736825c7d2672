% Ping-pong (MatlabMPI style): ranks 0 and 1 bounce a counter back and
% forth with explicit MPI_Send / MPI_Recv; every other rank sits idle.
% The broadcast at the end ships rank 0's total to everyone so the
% printed line is identical on every rank.
r = MPI_Comm_rank();
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
  % one rank: the loopback path (self-sends queue up like any other)
  for k = 1:8
    MPI_Send(0, 10, k);
    total = total + 2 * MPI_Recv(0, 10);
  end
end
total = MPI_Bcast(0, total);
fprintf('pingpong total = %d\n', total);
