% round and two-argument min/max at their edges.  round takes ties
% away from zero and must not add 0.5 first: that rounds the double
% just below 0.5 up to 1 and 2^52 + 1 up to 2^52 + 2.  min/max give
% NaN when either argument is NaN, and order -0 below +0; the
% reciprocals print the sign of a zero.
v = [0.49999999999999994, 4503599627370497, -0.49999999999999994];
w = round(v);
fprintf('%.17g %.17g %.17g\n', w(1), w(2), w(3));
z = -0;
qnan = 0 / 0;
a = [qnan, 1, z, 0, z];
b = [1, qnan, 0, z, z];
lo = min(a, b);
hi = max(a, b);
fprintf('%.17g %.17g %.17g %.17g %.17g\n', lo(1), lo(2), 1 / lo(3), 1 / lo(4), 1 / lo(5));
fprintf('%.17g %.17g %.17g %.17g %.17g\n', hi(1), hi(2), 1 / hi(3), 1 / hi(4), 1 / hi(5));
for k = 1:5
  s = min(a(k), b(k));
  t = max(a(k), b(k));
  fprintf('%.17g %.17g %.17g %.17g\n', s, t, 1 / s, 1 / t);
end
