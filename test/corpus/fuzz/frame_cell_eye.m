% eye as the cell of a frame broadcast, over a tensor whose frame extent
% is known and over one whose extent is only known at run time: the
% identity repeats on every page, so it must not fold into the loop as
% the tensor's own diagonal.
x = ones(3, 2, 2);
y = eye(2) .* x;
n = 1;
for i = 1:3
  n = n + 1;
end
z = 2 .* ones(n, 3, 3);
w = z - eye(3);
fprintf('%.17g %.17g\n', sum(y), sum(w));
fprintf('%.17g %.17g %.17g\n', y(3, 2, 2), y(1, 1, 2), w(4, 3, 3));
