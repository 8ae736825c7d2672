% The source patterns of three peephole rules (paper pass 6) that no
% app, kernel or example exercises: a transpose of a transpose
% collapses to a copy, a shift of a shift becomes one shift by the
% summed offset, and two broadcasts of the same element share one
% communication.
A = rand(3, 4);
B = (A')';
v = [1, 2, 3, 4, 5];
w = circshift(circshift(v, 2), 3);
s = A(2,3) + A(2,3);
disp(B);
disp(w);
fprintf('%.17g\n', s);
