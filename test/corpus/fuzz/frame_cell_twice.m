% A frame-broadcast cell used twice in one element-wise statement of a
% loop: it is replicated once per statement, and the replica is hoisted
% out of the loop, so the sweep reads it in place.
p = 7;
m = 3;
r = zeros(m, m);
for i = 1:m
  for j = 1:m
    r(i, j) = 0.1 * i + 0.01 * j;
  end
end
x = ones(p, m, m);
for i = 1:p
  x(i, 2, 3) = i;
end
for it = 1:4
  x = r .* x + r - 0.5 .* x;
end
fprintf('%.17g %.17g\n', max(x), min(x));
fprintf('%.17g %.17g %.17g\n', x(1, 1, 1), x(7, 3, 2), x(4, 2, 3));
