% expect: compile-error MPI_Send: cannot send a tensor
% A message carries a scalar or a matrix.  Inference knows x is a
% rank-3 tensor, so the send is a compile error with a source position
% instead of a run-time failure on rank 0.
x = ones(2, 2, 2);
if MPI_Comm_rank() == 0
  MPI_Send(1, 7, x);
end
