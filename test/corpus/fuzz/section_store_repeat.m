% Section stores whose targets repeat: each rank writes the selected
% elements it owns in selection order, so the last selection of a
% target wins, as in a sequential walk.
T = zeros(6, 2, 2);
X = zeros(4, 2, 2);
for i = 1:4
  for j = 1:2
    for k = 1:2
      X(i, j, k) = 100 * i + 10 * j + k;
    end
  end
end
T([5, 2, 5, 2], :, :) = X;
T([6, 6], [2, 1, 2], 1) = X(1:2, [1, 2, 2], 2);
M = zeros(5, 3);
Y = zeros(3, 3);
for i = 1:3
  Y(i, :) = (1:3) * i;
end
M([4, 4, 1], :) = Y;
M(:, [3, 3]) = M(:, [1, 2]);
fprintf('%.17g %.17g\n', sum(T), sum(sum(M)));
fprintf('%.17g %.17g %.17g %.17g\n', T(5, 1, 1), T(2, 2, 2), T(6, 2, 1), T(6, 1, 1));
fprintf('%.17g %.17g %.17g\n', M(4, 1), M(1, 3), M(4, 3));
