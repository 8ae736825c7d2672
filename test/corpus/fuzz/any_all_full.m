% any and all of a full matrix reduce over every element to one
% scalar, as the registry types them.  Lowering used to emit the
% column-wise form into the scalar, so tcode read column 1 only
% (any gave 0 here) and the emitted C did not compile.
a = [0.5, 0.9; 0.2, 0.1];
y = any(a > 0.7);
n = all(a < 0.7);
fprintf('%.17g\n', y);
fprintf('%.17g\n', n);
fprintf('%.17g\n', any(a > 2.5) + all(a > 0.05));
