% Tensor section assignment with leading-axis selectors that repeat and
% descend: every rank stores only the slices it owns, in selection
% order, so a repeated slice keeps the last selection's value.
T = zeros(5, 3, 2);
X = zeros(3, 3, 2);
Y = zeros(5, 1, 2);
for i = 1:3
  for j = 1:3
    for k = 1:2
      X(i, j, k) = 100 * i + 10 * j + k;
    end
  end
end
for i = 1:5
  for k = 1:2
    Y(i, 1, k) = -(10 * i + k);
  end
end
T([2, 2, 1], :, :) = X;
T(end:-1:1, 2, :) = Y;
T([5, 3, 5], [3, 1], 2) = 7;
s = sum(T);
fprintf('%.17g\n', s);
fprintf('%.17g %.17g %.17g\n', T(1, 1, 1), T(2, 3, 2), T(2, 2, 1));
fprintf('%.17g %.17g %.17g\n', T(5, 1, 2), T(5, 2, 2), T(3, 3, 2));
fprintf('%.17g %.17g\n', T(4, 2, 1), T(1, 2, 2));
