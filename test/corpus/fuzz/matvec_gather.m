% Power iteration: every product A * v gathers v onto every rank.
n = 10;
A = ones(n, n) + n * eye(n);
v = (1:n)';
for it = 1:20
  v = A * v;
  v = v ./ norm(v);
end
disp(v)
