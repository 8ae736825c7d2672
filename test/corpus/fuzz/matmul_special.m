% Matrix products over 0, -0, Inf and NaN.  0 * Inf is NaN, so a zero
% entry of A may be skipped only against an all-finite row of B; a -0
% term never turns a sum that starts at +0 negative; a matrix-vector
% product whose row count is not a multiple of 4 runs the kernel's
% tail rows; and a sparse 0/1 matrix squares exactly.
z = -0;
pinf = 1 / 0;
qnan = 0 / 0;
A = [1, 0, z; 0, 2, 0; z, 0, 0; 3, pinf, 0; 0, 0, qnan; z, z, z; 0.5, -1, 3; 1, 2, 3];
B = [0, 1, z; 1, 0, pinf; z, z, 0];
C = A * B;
v = [z; 0; 1];
w = A * v;
u = [z; z; z];
x = A * u;
G = zeros(9, 9);
for i = 1:9
  G(i, mod(2 * i, 9) + 1) = 1;
  G(i, mod(i + 4, 9) + 1) = 1;
end
G2 = G * G;
fprintf('%.17g\n', sum(sum(G2)));
fprintf('%.17g %.17g %.17g\n', C(1, 1), C(1, 3), C(2, 3));
fprintf('%.17g %.17g %.17g\n', C(3, 1), C(4, 1), C(5, 2));
fprintf('%.17g %.17g %.17g\n', C(6, 1), C(6, 3), C(7, 2));
fprintf('%.17g %.17g %.17g %.17g\n', w(1), w(3), w(4), w(5));
fprintf('%.17g %.17g %.17g\n', w(6), w(7), w(8));
fprintf('%.17g %.17g %.17g %.17g\n', z, x(1), x(7), x(8));
fprintf('%.17g %.17g\n', G2(1, 1), G2(4, 7));
