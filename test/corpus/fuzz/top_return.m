% A top-level return ends the script: every back end prints 1 and
% exits normally.  The SPMD executor once raised the return as an
% exception out of the rank, aborting the run.
x = 1;
disp(x);
if x > 0, return; end
disp(2)
