reach = 0;
for i = 1:100000
  e = mod(i * 7, 11);
  reach = reach + (e > 4 & e < 9);
end
disp(reach)
