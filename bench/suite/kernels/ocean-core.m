t = 0.0;
f = 0.0;
k = 0;
while k < 100000
  k = k + 1;
  t = t + 0.01;
  if mod(k, 3) == 0
    f = f + sin(t);
  else
    f = f - 0.25 * cos(t);
  end
end
disp(f)
