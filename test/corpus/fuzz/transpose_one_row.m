% Two 65 x 65 transposes.  On the fat-tree at P = 65 every rank owns
% one row, so each transpose is a Bruck all-to-all among the 65
% owners; at P <= 4 it is the pairwise block exchange.
n = 65;
A = (1:n)' * ones(1, n) + 100 * ones(n, 1) * (1:n);
S = A + A';
B = A - 3 * eye(n);
T = B';
C = S * T;
disp(sum(sum(C)))
disp(C(2, 3) - C(3, 2))
disp(T(1, 2) - T(2, 1))
