% Matrix and vector sources stored into tensor sections: the source's
% rows need not be as wide as the selection's, so the elements travel
% in runs that stay within one row of each side.
m = 6;
T = zeros(4, m, m);
T(1, 1:m, 1:m) = ones(m, m);
B = zeros(m, m);
for i = 1:m
  for j = 1:m
    B(i, j) = 10 * i + j;
  end
end
T(3, :, :) = B;
T(2:3, 2, :) = B(1:2, :);
T(4, 2:3, 2:4) = B(2:4, 1:2);
T(1, 1, :) = 1:m;
T(:, 1, 1) = (1:4)';
fprintf('%.17g\n', sum(T));
fprintf('%.17g %.17g %.17g\n', T(3, 2, 5), T(4, 3, 4), T(2, 1, 1));
fprintf('%.17g %.17g\n', T(1, 1, 6), T(4, 2, 3));
