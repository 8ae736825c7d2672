% Sections of arrays with fewer leading rows than ranks: above P = 3 some
% ranks own no row of T, above P = 2 none of U, and the 2-row matrix M
% leaves most ranks empty too.
T = zeros(3, 4, 5);
for i = 1:3
  for j = 1:4
    for k = 1:5
      T(i, j, k) = 100 * i + 10 * j + k;
    end
  end
end
U = T(2:3, :, 2:4);
V = T(3:-1:1, 4:-1:1, :);
T(1:2, :, :) = U(:, :, [1, 1, 2, 2, 3]);
W = T(3, 2:3, :);
M = zeros(2, 6);
M(1, :) = 1:6;
M(2, :) = 7:12;
N = M(2:-1:1, [6, 1, 3]);
r = M(2, 2:5);
fprintf('%.17g %.17g %.17g\n', sum(T), sum(U), sum(V));
fprintf('%.17g %.17g %.17g\n', sum(W), sum(sum(N)), sum(r));
fprintf('%.17g %.17g %.17g\n', T(1, 4, 5), V(1, 1, 2), N(2, 3));
