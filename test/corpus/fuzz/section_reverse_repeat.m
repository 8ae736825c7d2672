% Reversed and repeated leading selectors: every result row comes from
% its selected row's owner, however often or in whatever order it is
% selected.
n = 7;
T = zeros(n, 3, 2);
for i = 1:n
  for j = 1:3
    for k = 1:2
      T(i, j, k) = 100 * i + 10 * j + k;
    end
  end
end
R = T(n:-1:1, :, :);
Q = T([3, 1, 3], :, :);
S = T([n, 1, n, 1], [3, 3, 1], 2);
P = T(n:-2:1, 2, :);
M = zeros(n, 4);
for i = 1:n
  M(i, :) = (1:4) + 10 * i;
end
MR = M(n:-1:1, [4, 4, 1]);
fprintf('%.17g %.17g %.17g %.17g\n', sum(R), sum(Q), sum(S), sum(P));
fprintf('%.17g %.17g %.17g\n', R(1, 3, 2), Q(3, 2, 1), S(3, 1, 1));
fprintf('%.17g %.17g\n', sum(sum(MR)), MR(1, 3));
