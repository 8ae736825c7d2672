(* The paper's four benchmark applications (section 5) as MATLAB
   sources, parameterized by problem size.

   - conjugate gradient: positive definite system, matrix-vector
     multiplies and dot products dominate (paper: n = 2048);
   - ocean engineering: nonlinear wave excitation force on a submerged
     sphere via the Morrison equation -- vector shifts, outer products
     and trapz, all O(n) operations with small grain;
   - n-body: mean-field simulation of 5000 particles; uses mean() and
     exercises the run-time library's broadcast;
   - transitive closure: ceil(log2 n) boolean matrix multiplications,
     O(n^3) work, the best candidate for parallel execution.

   Problem generators are deterministic (counter-hash rand), so every
   back end computes identical data. *)

let paper_cg_n = 2048
let paper_ocean_n = 20000
let paper_nbody_n = 5000
let paper_tc_n = 512

(* Solve A x = b (A symmetric positive definite by construction) with a
   fixed number of CG iterations. *)
let cg ?(n = paper_cg_n) ?(iters = 50) () =
  Printf.sprintf
    {|%% conjugate gradient solver for a dense SPD system
n = %d;
maxit = %d;
A = rand(n, n);
A = A + A' + n * eye(n);
b = rand(n, 1);
x = zeros(n, 1);
r = b;
p = r;
rho = r' * r;
for it = 1:maxit
  q = A * p;
  alpha = rho / (p' * q);
  x = x + alpha .* p;
  r = r - alpha .* q;
  rho_new = r' * r;
  p = r + (rho_new / rho) .* p;
  rho = rho_new;
end
resid = norm(b - A * x);
xsum = sum(x);
fprintf('cg: n=%%d iters=%%d residual=%%e sum(x)=%%.8f\n', n, maxit, resid, xsum);
|}
    n iters

(* Nonlinear wave excitation force on a submerged sphere (Morrison
   equation).  The sea state is a superposition of harmonic components:
   the phase matrix is an outer product, the surface elevation a
   row-vector times matrix product; the time derivative of velocity is
   formed with vector shifts and the impulse with trapz. *)
let ocean ?(n = paper_ocean_n) () =
  Printf.sprintf
    {|%% ocean engineering: Morrison-equation wave force on a submerged sphere
n = %d;
g = 9.81;
rho = 1025;
D = 2.0;
Cm = 2.0;
Cd = 1.0;
Asec = pi * (D / 2)^2;
V = (4 / 3) * pi * (D / 2)^3;
t = linspace(0, 600, n);
dt = t(2) - t(1);
omega = (0.2:0.2:1.0)';
amp = (1.2:-0.2:0.4)';
phase = omega * t;
eta = amp' * cos(phase);
u = (g / 20) .* eta;
up = circshift(u, -1);
um = circshift(u, 1);
dudt = (up - um) ./ (2 * dt);
F = rho * Cm * V .* dudt + 0.5 * rho * Cd * Asec .* u .* abs(u);
impulse = trapz(t, F);
Fmax = max(abs(F));
Frms = sqrt(mean(F .* F));
fprintf('ocean: n=%%d impulse=%%.6e Fmax=%%.6e Frms=%%.6e\n', n, impulse, Fmax, Frms);
|}
    n

(* Mean-field n-body step: every particle is attracted toward the
   center of mass.  All operations are O(n); mean() and element
   broadcasts (tracking particle 1) match the paper's description. *)
let nbody ?(n = paper_nbody_n) ?(steps = 20) () =
  Printf.sprintf
    {|%% n-body simulation (mean-field approximation)
n = %d;
steps = %d;
dt = 0.001;
G2 = 0.8;
eps2 = 0.01;
px = rand(n, 1); py = rand(n, 1); pz = rand(n, 1);
vx = zeros(n, 1); vy = zeros(n, 1); vz = zeros(n, 1);
m = 1 + rand(n, 1);
M = sum(m);
for s = 1:steps
  cx = sum(px .* m) / M;
  cy = sum(py .* m) / M;
  cz = sum(pz .* m) / M;
  dx = cx - px; dy = cy - py; dz = cz - pz;
  r2 = dx .* dx + dy .* dy + dz .* dz + eps2;
  w = G2 ./ (r2 .* sqrt(r2));
  vx = vx + dt .* (w .* dx);
  vy = vy + dt .* (w .* dy);
  vz = vz + dt .* (w .* dz);
  px = px + dt .* vx;
  py = py + dt .* vy;
  pz = pz + dt .* vz;
end
mx = mean(px); my = mean(py); mz = mean(pz);
p1 = sqrt(px(1)^2 + py(1)^2 + pz(1)^2);
ke = 0.5 * sum(m .* (vx .* vx + vy .* vy + vz .* vz));
fprintf('nbody: n=%%d steps=%%d mean=(%%.6f,%%.6f,%%.6f) p1=%%.6f ke=%%.6e\n', n, steps, mx, my, mz, p1, ke);
|}
    n steps

(* Transitive closure of a sparse random digraph by repeated boolean
   matrix multiplication (log2 n squarings). *)
let transitive_closure ?(n = paper_tc_n) ?(density = 0.004) () =
  Printf.sprintf
    {|%% transitive closure via repeated matrix multiplication
n = %d;
B = double(rand(n, n) < %g | eye(n) > 0);
k = ceil(log2(n));
for s = 1:k
  B = double((B * B) > 0);
end
reach = sum(sum(B));
fprintf('tc: n=%%d squarings=%%d reachable=%%d\n', n, k, reach);
|}
    n density

(* --- rank-N tensor applications (beyond the paper's four) -------------- *)

let paper_heat_n = 48
let paper_heat_m = 32
let paper_lm_pages = 64
let paper_lm_m = 24

(* Jacobi relaxation of the 3-D heat equation.  The grid is a rank-3
   tensor block-distributed over the leading (page) axis: the two
   stencil shifts along it exercise neighbor communication, the four
   in-page shifts stay local. *)
let heat3d ?(n = paper_heat_n) ?(m = paper_heat_m) ?(iters = 30) () =
  Printf.sprintf
    {|%% 3-D heat equation: Jacobi relaxation on an n x m x m tensor grid
n = %d;
m = %d;
iters = %d;
T = zeros(n, m, m);
T(1, 1:m, 1:m) = ones(m, m);
for it = 1:iters
  up = T(1:n-2, 2:m-1, 2:m-1);
  dn = T(3:n,   2:m-1, 2:m-1);
  no = T(2:n-1, 1:m-2, 2:m-1);
  so = T(2:n-1, 3:m,   2:m-1);
  we = T(2:n-1, 2:m-1, 1:m-2);
  ea = T(2:n-1, 2:m-1, 3:m);
  T(2:n-1, 2:m-1, 2:m-1) = (up + dn + no + so + we + ea) ./ 6;
end
heat = sum(T);
peak = max(T);
core = T(2, 2, 2);
fprintf('heat3d: n=%%d m=%%d total=%%.6f peak=%%.6f core=%%.6f\n', n, m, heat, peak, core);
|}
    n m iters

(* Ensemble of logistic maps over a rank-3 state: pages of independent
   m x m parameter grids.  The growth-rate matrix broadcasts across the
   distributed page axis (frame broadcast): every rank needs it whole,
   which takes one allgather, and at O2 that gather is hoisted out of
   the sweep, so the iteration is pure element-wise work until the
   final statistics. *)
let logistic ?(pages = paper_lm_pages) ?(m = paper_lm_m) ?(iters = 100) () =
  Printf.sprintf
    {|%% ensemble of logistic maps over a rank-3 state
p = %d;
m = %d;
iters = %d;
r = 3.5 + 0.5 .* rand(m, m);
x = rand(p, m, m);
for it = 1:iters
  x = r .* x .* (1 - x);
end
xm = mean(x);
xlo = min(x);
xhi = max(x);
x1 = x(1, 1, 1);
fprintf('logistic: p=%%d m=%%d mean=%%.6f min=%%.6f max=%%.6f x1=%%.6f\n', p, m, xm, xlo, xhi, x1);
|}
    pages m iters

type app = {
  name : string;
  key : string;
  source : int -> string; (* scaled source: scale in percent of paper size *)
  capture : string list; (* variables for verification *)
  grain : string; (* short description used in reports *)
}

let scale_dim pct full = max 8 (full * pct / 100)

let apps =
  [
    {
      name = "Conjugate Gradient";
      key = "cg";
      source =
        (fun pct -> cg ~n:(scale_dim pct paper_cg_n) ~iters:50 ());
      capture = [ "x"; "resid"; "rho" ];
      grain = "O(n^2) matvec per iteration";
    };
    {
      name = "Ocean Engineering";
      key = "ocean";
      source = (fun pct -> ocean ~n:(scale_dim pct paper_ocean_n) ());
      capture = [ "F"; "impulse"; "Fmax"; "Frms" ];
      grain = "O(n) shifts/trapz, small grain";
    };
    {
      name = "N-body Problem";
      key = "nbody";
      source =
        (fun pct -> nbody ~n:(scale_dim pct paper_nbody_n) ~steps:20 ());
      capture = [ "px"; "ke"; "p1" ];
      grain = "O(n) per step, mean + broadcast";
    };
    {
      name = "Transitive Closure";
      key = "tc";
      source =
        (fun pct ->
          transitive_closure ~n:(scale_dim pct paper_tc_n) ());
      capture = [ "B"; "reach" ];
      grain = "O(n^3) matmul, log n squarings";
    };
  ]

(* Rank-N tensor applications.  Kept out of [apps] so the paper-shape
   figures and tables keep reproducing the paper's four benchmarks;
   [all] adds them to verification and the speedup bench. *)
let tensor_apps =
  [
    {
      name = "3-D Heat Equation";
      key = "heat3d";
      source =
        (fun pct ->
          heat3d
            ~n:(scale_dim pct paper_heat_n)
            ~m:(scale_dim pct paper_heat_m)
            ~iters:30 ());
      capture = [ "T"; "heat"; "peak"; "core" ];
      grain = "rank-3 stencil, page-axis shifts communicate";
    };
    {
      name = "Logistic-map Ensemble";
      key = "logistic";
      source =
        (fun pct ->
          logistic
            ~pages:(scale_dim pct paper_lm_pages)
            ~m:(scale_dim pct paper_lm_m)
            ~iters:100 ());
      capture = [ "x"; "xm"; "xhi"; "x1" ];
      grain = "rank-3 element-wise, frame broadcast gathered once";
    };
  ]

let all = apps @ tensor_apps
let find key = List.find_opt (fun a -> a.key = key) all
