% Empty selections: a read of no rows or no columns, and stores to no
% element from a scalar and from an empty array, change nothing and
% move nothing.
T = ones(5, 3, 2);
E1 = T(2:1, :, :);
E2 = T(:, 3:2, :);
T(4:3, :, :) = 7;
T(2:1, :, :) = E1;
T(:, 3:2, :) = E2;
M = ones(4, 4);
M2 = M(3:2, :);
M(:, 2:1) = 5;
M(3:2, :) = M2;
fprintf('%.17g %.17g\n', sum(T), sum(sum(M)));
