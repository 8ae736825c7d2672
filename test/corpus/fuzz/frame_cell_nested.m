% Frame-broadcast cells in nested loops: q is invariant in both loops
% and r only in the inner one.  The inner loop runs zero times on the
% first outer trip, so the gathers hoisted out of it sit under its trip
% guard inside the outer loop.
p = 9;
m = 3;
q = 0.25 .* ones(m, m);
r = 3.6 + 0.1 .* rand(m, m);
x = rand(p, m, m);
for k = 1:3
  for it = 1:k - 1
    x = r .* x .* (1 - x);
    x = x + q .* x .* (1 - x);
  end
  r = r + 0.1;
end
fprintf('%.17g %.17g\n', max(x), min(x));
fprintf('%.17g %.17g\n', x(1, 1, 1), x(9, 3, 3));
