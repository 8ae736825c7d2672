% Ensemble of logistic maps over a rank-3 state: pages of independent
% m x m parameter grids.  The growth-rate grid r broadcasts across the
% distributed page axis (frame broadcast): one allgather of r, hoisted
% out of the loop, then pure element-wise work until the final
% statistics.
p = 12; m = 8;
r = 3.5 + 0.5 .* rand(m, m);
x = rand(p, m, m);
for it = 1:50
  x = r .* x .* (1 - x);
end
xm = mean(x);
xlo = min(x);
xhi = max(x);
x1 = x(1, 1, 1);
fprintf('logistic: mean=%.6f min=%.6f max=%.6f x1=%.6f\n', xm, xlo, xhi, x1);
