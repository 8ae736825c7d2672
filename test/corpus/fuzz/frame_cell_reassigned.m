% A frame-broadcast cell reassigned in the middle of a loop is not loop
% invariant: each statement reading it replicates the value it sees,
% inside the loop, before and after the reassignment.
p = 6;
m = 4;
r = 3.5 + 0.5 .* rand(m, m);
x = rand(p, m, m);
for it = 1:5
  x = r .* x .* (1 - x);
  r = r - 0.05;
  x = 0.5 .* (x + r .* x .* (1 - x));
end
fprintf('%.17g %.17g\n', max(x), min(x));
fprintf('%.17g %.17g\n', x(1, 1, 1), x(6, 4, 3));
