ax = 0.0;
for s = 1:500
  for j = 1:200
    d = j * 0.5 + s;
    ax = ax + 1.0 / (d * d + 0.05);
  end
end
disp(ax)
