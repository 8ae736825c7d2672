rho = 1.0;
alpha = 0.0;
beta = 0.0;
for i = 1:100000
  alpha = rho / (2.3 + i);
  beta = alpha * rho + 0.5;
  rho = rho + beta * 0.001 - alpha;
end
disp(rho)
