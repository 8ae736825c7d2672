% circshift ships runs of each rank's block to the owners of the
% shifted positions.  Under --faults without --reliable a dropped run
% lets a later one, of another length, arrive in its place: that must
% be a protocol error (exit 6), not an assertion escaping the library.
v = (1:40) * 1.5;
for k = 1:12, v = circshift(v, k) + 1; end
fprintf('%.17g\n', sum(v));
