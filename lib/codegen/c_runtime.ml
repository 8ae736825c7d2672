(* The C run-time library shipped with generated programs.

   [header] declares the MATRIX structure and the ML_* API used by the
   emitted code (paper section 4).  [impl] is the distributed-memory
   implementation over MPI, mirroring the simulator's OCaml run time
   operation for operation: row-contiguous matrix blocks, column blocks
   for row vectors, replicated scalars, owner-computes, collectives.
   Without an MPI installation it links against {!Mpi_shim}, which runs
   the program as OTTER_NP processes on one machine; that is what the
   tests and the fuzz oracle execute.

   The rand() generator is the same splitmix64 counter hash as the
   OCaml run time, so compiled C programs, simulated parallel runs and
   the reference interpreter all compute identical data. *)

let header =
  {|/* otter_rt.h -- run-time library interface for Otter-generated code. */
#ifndef OTTER_RT_H
#define OTTER_RT_H

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <stdint.h>

/* A distributed matrix or vector.  Every process holds the global
   header plus its local block: matrices with more than one row are
   distributed by contiguous row blocks, row vectors by column blocks;
   with one process the block is the whole matrix. */
typedef struct {
  int rows, cols;
  int axis;   /* 0: distributed by rows; 1: by columns (row vectors) */
  int low;    /* first owned row (axis 0) or column (axis 1) */
  int count;  /* owned rows / columns */
  double *data; /* axis 0: count*cols, row-major; axis 1: count */
} MATRIX;

typedef enum { ML_SUM, ML_PROD, ML_MIN, ML_MAX, ML_MEAN, ML_ANY, ML_ALL } ML_RED;

/* Slot kinds for ML_reduce_fused: every kind combines with a plain sum,
   so one vector allreduce carries the whole batch. */
typedef enum { ML_FUSE_SUM, ML_FUSE_MEAN, ML_FUSE_DOT, ML_FUSE_NORM } ML_FUSE;

typedef struct {
  int kind;      /* 0: all, 1: scalar, 2: range, 3: vector */
  double lo, step, hi; /* range/scalar (1-based, inclusive) */
  const MATRIX *vec;   /* kind 3 */
} ML_SEL;

void ML_init(int *argc, char ***argv);
void ML_finalize(void);

void ML_reshape(MATRIX **m, int rows, int cols);
void ML_free(MATRIX **m);
int  ML_local_els(const MATRIX *m);
void ML_copy(MATRIX **dst, const MATRIX *src);
/* 1.0 when local element i of m lies on m's global main diagonal
   (used by element-wise loops with a folded eye() operand). */
double ML_eye_at(const MATRIX *m, int i);

void ML_zeros(MATRIX **dst, int rows, int cols);
void ML_ones(MATRIX **dst, int rows, int cols);
void ML_eye(MATRIX **dst, int rows, int cols);
void ML_rand(MATRIX **dst, int rows, int cols);
void ML_randn(MATRIX **dst, int rows, int cols);
void ML_linspace(MATRIX **dst, double a, double b, int n);
void ML_range(MATRIX **dst, double lo, double step, double hi);
void ML_literal(MATRIX **dst, int rows, int cols, const double *elems);
void ML_load(MATRIX **dst, const char *path);

void   ML_matrix_multiply(const MATRIX *a, const MATRIX *b, MATRIX **dst);
/* C = A' * B without materializing the transpose: partial products over
   the owned rows of A and B, finished with one allreduce. */
void   ML_matmul_t(const MATRIX *a, const MATRIX *b, MATRIX **dst);
double ML_dot(const MATRIX *a, const MATRIX *b);
void   ML_transpose(const MATRIX *a, MATRIX **dst);
void   ML_diag(const MATRIX *a, MATRIX **dst);
void   ML_outer(const MATRIX *u, const MATRIX *v, MATRIX **dst);
double ML_reduce_all(ML_RED op, const MATRIX *m);
void   ML_reduce_cols(ML_RED op, const MATRIX *m, MATRIX **dst);
double ML_norm(const MATRIX *m);
void   ML_cumulative(int is_prod, const MATRIX *v, MATRIX **dst);
double ML_reduce_index(ML_RED op, const MATRIX *v, double *index_out);
void   ML_sort(const MATRIX *v, MATRIX **sorted, MATRIX **perm);
double ML_trapz(const MATRIX *x, const MATRIX *y); /* x may be NULL */
void   ML_circshift(const MATRIX *m, int k, MATRIX **dst);
void   ML_section(const MATRIX *src, ML_SEL s1, ML_SEL s2, int nsel,
                  MATRIX **dst);
void   ML_set_section(MATRIX *dst, ML_SEL s1, ML_SEL s2, int nsel,
                      const MATRIX *src, double fill);
void   ML_concat(MATRIX **dst, int grid_rows, int grid_cols,
                 const MATRIX **parts);

/* Element access (indices are 0-based here; the compiler subtracts 1). */
double  ML_broadcast(const MATRIX *m, int i, int j);
double  ML_broadcast_linear(const MATRIX *m, int g); /* column-major */
/* Batched ML_broadcast: n elements of one matrix replicated with a
   single collective.  ri[k] = -1 marks a linear (column-major) index
   carried in ci[k]; otherwise (ri[k], ci[k]) is a 0-based pair. */
void    ML_broadcast_batch(const MATRIX *m, int n, const int *ri,
                           const int *ci, double *out);
/* Batched sum-combining reductions: one vector allreduce evaluates
   every slot.  mb[k] is the second operand for ML_FUSE_DOT, NULL
   otherwise. */
void    ML_reduce_fused(int n, const int *kind, const MATRIX **ma,
                        const MATRIX **mb, double *out);
int     ML_owner(const MATRIX *m, int i, int j);
int     ML_owner_linear(const MATRIX *m, int g);
double *ML_realaddr2(MATRIX *m, int i, int j);
double *ML_realaddr1(MATRIX *m, int g);

double ML_numel(const MATRIX *m);
double ML_length(const MATRIX *m);

void ML_print_scalar(const char *name, double v);
void ML_print_matrix(const char *name, const MATRIX *m);
void ML_print_str(const char *name, const char *s);
void ML_printf(const char *fmt, int nargs, ...); /* double varargs */
void ML_error(const char *msg);

double ML_mod(double a, double b);
double ML_rem(double a, double b);
double ML_sign(double x);
double ML_fix(double x);
double ML_log2(double x);
double ML_round(double x);
double ML_min2(double a, double b);
double ML_max2(double a, double b);

ML_SEL ML_sel_all(void);
ML_SEL ML_sel_scalar(double i);
ML_SEL ML_sel_range(double lo, double step, double hi);
ML_SEL ML_sel_vec(const MATRIX *v);

#endif /* OTTER_RT_H */
|}

let impl =
  {|/* otter_rt.c -- the Otter run-time library over MPI (paper section 4).

     mpicc -O2 -o prog prog.c otter_rt.c -lm
     cc -O2 -I. -o prog prog.c otter_rt.c otter_mpi_shim.c -lm

   The second build runs on one machine without MPI: otter_mpi_shim.c
   forks OTTER_NP processes.  <mpi.h> is included in angle brackets so
   that mpicc, without -I., never picks up the shim's mpi.h. */
#include "otter_rt.h"
#include <mpi.h>
#include <stdarg.h>

static int ml_rank_ = 0, ml_procs_ = 1;

void ML_init(int *argc, char ***argv) {
  MPI_Init(argc, argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &ml_rank_);
  MPI_Comm_size(MPI_COMM_WORLD, &ml_procs_);
}

static MPI_Op ml_op_min_nan_ = MPI_OP_NULL, ml_op_max_nan_ = MPI_OP_NULL;

void ML_finalize(void) {
  if (ml_op_min_nan_ != MPI_OP_NULL) MPI_Op_free(&ml_op_min_nan_);
  if (ml_op_max_nan_ != MPI_OP_NULL) MPI_Op_free(&ml_op_max_nan_);
  MPI_Finalize();
}

static uint64_t ml_splitmix64(uint64_t z) {
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return z ^ (z >> 33);
}

static int ml_rand_counter = 0;
static const int ml_seed = 42;

static int ml_next_rand_seed(void) { ml_rand_counter++; return ml_seed + ml_rand_counter; }

static double ml_uniform_elem(int seed, long i) {
  uint64_t h = ml_splitmix64((uint64_t)i +
                             (uint64_t)(seed + 1) * 0x9e3779b97f4a7c15ULL);
  return (double)(h >> 11) * 0x1p-53;
}

static double ml_normal_elem(int seed, long i) {
  double u1 = ml_uniform_elem(seed, i), u2 = ml_uniform_elem(seed + 77731, i);
  if (u1 <= 0) u1 = 1e-300;
  return sqrt(-2.0 * log(u1)) * cos(2.0 * 3.14159265358979323846 * u2);
}

double ML_mod(double a, double b) { return b == 0 ? a : a - b * floor(a / b); }
double ML_rem(double a, double b) { return b == 0 ? a : fmod(a, b); }
double ML_sign(double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); }
double ML_fix(double x) { return trunc(x); }
double ML_log2(double x) { return log(x) / log(2.0); }
double ML_round(double x) { return round(x); }
/* OCaml's Float.min/Float.max: NaN if either argument is NaN, and
   -0 < +0. */
double ML_min2(double a, double b) {
  if (b > a || (!signbit(b) && signbit(a))) return isnan(b) ? b : a;
  return isnan(a) ? a : b;
}
double ML_max2(double a, double b) {
  if (b > a || (!signbit(b) && signbit(a))) return isnan(a) ? a : b;
  return isnan(b) ? b : a;
}

double ML_numel(const MATRIX *m) { return (double)m->rows * m->cols; }
double ML_length(const MATRIX *m) {
  return (double)(m->rows > m->cols ? m->rows : m->cols);
}

ML_SEL ML_sel_all(void) { ML_SEL s = {0, 0, 0, 0, NULL}; return s; }
ML_SEL ML_sel_scalar(double i) { ML_SEL s = {1, i, 1, i, NULL}; return s; }
ML_SEL ML_sel_range(double lo, double step, double hi) {
  ML_SEL s = {2, lo, step, hi, NULL}; return s;
}
ML_SEL ML_sel_vec(const MATRIX *v) { ML_SEL s = {3, 0, 0, 0, v}; return s; }

/* Interpret the MATLAB-style format at run time: \n, \t escapes and
   the conversions %d %i %f %g %e (all arguments are doubles). */
void ML_printf(const char *fmt, int nargs, ...) {
  va_list ap;
  double args[64];
  int i, n = 0;
  va_start(ap, nargs);
  for (i = 0; i < nargs && i < 64; i++) args[n++] = va_arg(ap, double);
  va_end(ap);
  if (ml_rank_ != 0) return;
  {
    const char *p = fmt;
    int a = 0;
    while (*p) {
      if (p[0] == '\\' && p[1]) {
        if (p[1] == 'n') putchar('\n');
        else if (p[1] == 't') putchar('\t');
        else putchar(p[1]);
        p += 2;
      } else if (p[0] == '%' && p[1]) {
        char spec[32];
        int k = 0;
        spec[k++] = '%';
        p++;
        while (*p && k < 30 &&
               (*p == '.' || *p == '-' || *p == '+' || *p == ' ' ||
                (*p >= '0' && *p <= '9')))
          spec[k++] = *p++;
        if (*p == '%') { putchar('%'); p++; continue; }
        if (*p == 'd' || *p == 'i') {
          spec[k++] = 'd'; spec[k] = 0;
          printf(spec, (int)(a < n ? args[a] : 0)); a++;
        } else if (*p == 'f' || *p == 'g' || *p == 'e') {
          spec[k++] = *p; spec[k] = 0;
          printf(spec, a < n ? args[a] : 0.0); a++;
        } else {
          putchar(*p);
        }
        p++;
      } else {
        putchar(*p++);
      }
    }
  }
}

/* Read a whitespace-separated numeric matrix (one row per line).
   Every process reads the file. */
static double *ml_read_datafile(const char *path, int *rows, int *cols) {
  FILE *f = fopen(path, "r");
  double *data = NULL;
  size_t cap = 0, n = 0;
  int r = 0, c = 0, line_c = 0, ti = 0, ch;
  char tok[64];
  if (!f) { ML_error("load: cannot open data file"); return NULL; }
  do { /* end of file ends the last token and the last line */
    ch = fgetc(f);
    if (ch == EOF || ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
      if (ti > 0) {
        tok[ti] = 0;
        if (n == cap) {
          cap = cap ? cap * 2 : 64;
          data = (double *)realloc(data, cap * sizeof(double));
        }
        data[n++] = atof(tok);
        line_c++;
        ti = 0;
      }
      if ((ch == '\n' || ch == EOF) && line_c > 0) {
        if (r == 0) c = line_c;
        else if (line_c != c) ML_error("load: ragged data file");
        r++;
        line_c = 0;
      }
    } else if (ti < 63) {
      tok[ti++] = (char)ch;
    }
  } while (ch != EOF);
  fclose(f);
  *rows = r;
  *cols = c;
  return data;
}

void ML_print_scalar(const char *name, double v) {
  if (ml_rank_ != 0) return;
  if (name && name[0]) printf("%s = %g\n", name, v);
  else printf("%g\n", v);
}

void ML_print_str(const char *name, const char *s) {
  if (ml_rank_ != 0) return;
  if (name && name[0]) printf("%s = %s\n", name, s);
  else printf("%s\n", s);
}

void ML_error(const char *msg) {
  if (ml_rank_ == 0) fprintf(stderr, "error: %s\n", msg);
  ML_finalize();
  exit(1);
}

/* --- block distribution (BLOCK_LOW / BLOCK_HIGH) --------------------- */

static int ml_low(int r, int p, int n) { return (int)((long)r * n / p); }
static int ml_high(int r, int p, int n) { return (int)((long)(r + 1) * n / p); }

static int ml_owner_of(int p, int n, int i) {
  int r;
  if (n == 0) return 0;
  r = (int)(((long)(i + 1) * p - 1) / n);
  if (r > p - 1) r = p - 1;
  while (ml_low(r, p, n) > i) r--;
  while (ml_high(r, p, n) <= i) r++;
  return r;
}

/* --- MATRIX allocation ------------------------------------------------ */

void ML_reshape(MATRIX **m, int rows, int cols) {
  int axis = rows == 1 ? 1 : 0;
  int n = axis == 0 ? rows : cols;
  int low = ml_low(ml_rank_, ml_procs_, n);
  int count = ml_high(ml_rank_, ml_procs_, n) - low;
  long local = axis == 0 ? (long)count * cols : count;
  if (*m && (*m)->rows == rows && (*m)->cols == cols) return;
  if (*m) { free((*m)->data); free(*m); }
  *m = (MATRIX *)malloc(sizeof(MATRIX));
  (*m)->rows = rows; (*m)->cols = cols;
  (*m)->axis = axis; (*m)->low = low; (*m)->count = count;
  (*m)->data = (double *)calloc(local > 0 ? local : 1, sizeof(double));
}

void ML_free(MATRIX **m) {
  if (*m) { free((*m)->data); free(*m); *m = NULL; }
}

int ML_local_els(const MATRIX *m) {
  return m->axis == 0 ? m->count * m->cols : m->count;
}

void ML_copy(MATRIX **dst, const MATRIX *src) {
  ML_reshape(dst, src->rows, src->cols);
  memcpy((*dst)->data, src->data,
         sizeof(double) * (size_t)ML_local_els(src));
}

/* Global row-major linear index of local element i. */
static long ml_global_of_local(const MATRIX *m, long i) {
  return m->axis == 0 ? (long)m->low * m->cols + i : m->low + i;
}

double ML_eye_at(const MATRIX *m, int i) {
  long g = ml_global_of_local(m, i);
  return g / m->cols == g % m->cols ? 1.0 : 0.0;
}

/* Gather the whole matrix (row-major) on every process. */
static double *ml_to_dense(const MATRIX *m) {
  int p = ml_procs_, r;
  int n = m->axis == 0 ? m->rows : m->cols;
  int unit = m->axis == 0 ? m->cols : 1;
  int *counts = (int *)malloc(sizeof(int) * p);
  int *displs = (int *)malloc(sizeof(int) * p);
  double *full = (double *)malloc(sizeof(double) *
                                  ((size_t)m->rows * m->cols + 1));
  for (r = 0; r < p; r++) {
    counts[r] = (ml_high(r, p, n) - ml_low(r, p, n)) * unit;
    displs[r] = ml_low(r, p, n) * unit;
  }
  MPI_Allgatherv(m->data, ML_local_els(m), MPI_DOUBLE, full, counts, displs,
                 MPI_DOUBLE, MPI_COMM_WORLD);
  free(counts);
  free(displs);
  return full;
}

/* --- constructors ------------------------------------------------------ */

static void ml_fill(MATRIX *m, double (*f)(int, long), int seed) {
  long i;
  for (i = 0; i < ML_local_els(m); i++)
    m->data[i] = f(seed, ml_global_of_local(m, i));
}

static double ml_zero_at(int s, long i) { (void)s; (void)i; return 0.0; }
static double ml_one_at(int s, long i) { (void)s; (void)i; return 1.0; }

void ML_zeros(MATRIX **dst, int rows, int cols) {
  ML_reshape(dst, rows, cols);
  ml_fill(*dst, ml_zero_at, 0);
}

void ML_ones(MATRIX **dst, int rows, int cols) {
  ML_reshape(dst, rows, cols);
  ml_fill(*dst, ml_one_at, 0);
}

void ML_eye(MATRIX **dst, int rows, int cols) {
  long i;
  ML_zeros(dst, rows, cols);
  for (i = 0; i < ML_local_els(*dst); i++) {
    long g = ml_global_of_local(*dst, i);
    if (g / cols == g % cols) (*dst)->data[i] = 1.0;
  }
}

void ML_rand(MATRIX **dst, int rows, int cols) {
  int seed = ml_next_rand_seed();
  ML_reshape(dst, rows, cols);
  ml_fill(*dst, ml_uniform_elem, seed);
}

void ML_randn(MATRIX **dst, int rows, int cols) {
  int seed = ml_next_rand_seed();
  ML_reshape(dst, rows, cols);
  ml_fill(*dst, ml_normal_elem, seed);
}

void ML_linspace(MATRIX **dst, double a, double b, int n) {
  long i;
  double d = n > 1 ? (b - a) / (n - 1) : 0.0;
  ML_reshape(dst, 1, n);
  for (i = 0; i < ML_local_els(*dst); i++)
    (*dst)->data[i] = a + ml_global_of_local(*dst, i) * d;
}

static int ml_range_len(double lo, double step, double hi) {
  double raw;
  if (step == 0) return 0;
  raw = (hi - lo) / step + 1e-9;
  return raw < 0 ? 0 : (int)floor(raw) + 1;
}

void ML_range(MATRIX **dst, double lo, double step, double hi) {
  long i;
  int n = ml_range_len(lo, step, hi);
  ML_reshape(dst, 1, n);
  for (i = 0; i < ML_local_els(*dst); i++)
    (*dst)->data[i] = lo + ml_global_of_local(*dst, i) * step;
}

void ML_literal(MATRIX **dst, int rows, int cols, const double *elems) {
  long i;
  ML_reshape(dst, rows, cols);
  for (i = 0; i < ML_local_els(*dst); i++)
    (*dst)->data[i] = elems[ml_global_of_local(*dst, i)];
}

/* --- linear algebra ---------------------------------------------------- */

void ML_load(MATRIX **dst, const char *path) {
  int rows, cols;
  long i;
  double *data = ml_read_datafile(path, &rows, &cols);
  ML_reshape(dst, rows, cols);
  for (i = 0; i < ML_local_els(*dst); i++)
    (*dst)->data[i] = data[ml_global_of_local(*dst, i)];
  free(data);
}

void ML_matrix_multiply(const MATRIX *a, const MATRIX *b, MATRIX **dst) {
  int m = a->rows, k = a->cols, n = b->cols;
  MATRIX *c = NULL;
  if (a->cols != b->rows) ML_error("matmul: inner dimensions disagree");
  if (m > 1) {
    double *bf = ml_to_dense(b);
    int li, j, kk;
    ML_reshape(&c, m, n);
    for (li = 0; li < c->count; li++)
      for (j = 0; j < n; j++) {
        double acc = 0.0;
        for (kk = 0; kk < k; kk++)
          acc += a->data[(long)li * k + kk] * bf[(long)kk * n + j];
        c->data[(long)li * n + j] = acc;
      }
    free(bf);
  } else {
    /* (1 x k) * (k x n): partial sums over B's owned rows. */
    double *af = ml_to_dense(a);
    double *partial = (double *)calloc(n > 0 ? n : 1, sizeof(double));
    double *full = (double *)malloc(sizeof(double) * (n > 0 ? n : 1));
    int lr, j;
    if (b->axis == 0) {
      for (lr = 0; lr < b->count; lr++)
        for (j = 0; j < n; j++)
          partial[j] += af[b->low + lr] * b->data[(long)lr * n + j];
    } else {
      for (j = 0; j < b->count; j++)
        partial[b->low + j] = af[0] * b->data[j];
    }
    MPI_Allreduce(partial, full, n, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    ML_reshape(&c, 1, n);
    for (j = 0; j < c->count; j++) c->data[j] = full[c->low + j];
    free(af); free(partial); free(full);
  }
  ML_free(dst);
  *dst = c;
}

void ML_matmul_t(const MATRIX *a, const MATRIX *b, MATRIX **dst) {
  if (a->rows != b->rows) ML_error("matmul_t: common dimensions disagree");
  if (a->rows == 1) {
    /* row-vector A: the transpose is local, fall back to matmul */
    MATRIX *at = NULL;
    ML_transpose(a, &at);
    ML_matrix_multiply(at, b, dst);
    ML_free(&at);
  } else {
    /* A and B share the row distribution over the common dimension, so
       each rank forms a full m x k partial product from its owned rows
       and one allreduce finishes -- no redistribution, no gather. */
    int m = a->cols, k = b->cols, lr, ja, jb;
    long mk = (long)m * k, i;
    double *partial = (double *)calloc(mk > 0 ? mk : 1, sizeof(double));
    double *full = (double *)malloc(sizeof(double) * (mk > 0 ? mk : 1));
    MATRIX *c = NULL;
    for (lr = 0; lr < a->count; lr++)
      for (ja = 0; ja < m; ja++) {
        double av = a->data[(long)lr * m + ja];
        for (jb = 0; jb < k; jb++)
          partial[(long)ja * k + jb] += av * b->data[(long)lr * k + jb];
      }
    MPI_Allreduce(partial, full, (int)mk, MPI_DOUBLE, MPI_SUM,
                  MPI_COMM_WORLD);
    ML_reshape(&c, m, k);
    for (i = 0; i < ML_local_els(c); i++)
      c->data[i] = full[ml_global_of_local(c, i)];
    free(partial); free(full);
    ML_free(dst);
    *dst = c;
  }
}

double ML_dot(const MATRIX *a, const MATRIX *b) {
  long i;
  double local = 0.0, global = 0.0;
  if ((long)a->rows * a->cols != (long)b->rows * b->cols)
    ML_error("dot: length mismatch");
  for (i = 0; i < ML_local_els(a); i++) local += a->data[i] * b->data[i];
  MPI_Allreduce(&local, &global, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
  return global;
}

void ML_transpose(const MATRIX *a, MATRIX **dst) {
  MATRIX *c = NULL;
  if (a->rows == 1 || a->cols == 1) {
    /* vector transpose: identical element blocks, no communication */
    ML_reshape(&c, a->cols, a->rows);
    memcpy(c->data, a->data, sizeof(double) * (size_t)ML_local_els(a));
  } else {
    /* all-to-all block exchange (O(rows*cols/P) per process) */
    double *dense = ml_to_dense(a); /* simple, correct fallback */
    long i;
    ML_reshape(&c, a->cols, a->rows);
    for (i = 0; i < ML_local_els(c); i++) {
      long g = ml_global_of_local(c, i); /* row-major in the transpose */
      long ti = g / a->rows, tj = g % a->rows;
      c->data[i] = dense[tj * a->cols + ti];
    }
    free(dense);
  }
  ML_free(dst);
  *dst = c;
}

void ML_diag(const MATRIX *a, MATRIX **dst) {
  /* both directions redistribute: gather the source, fill locally */
  double *dense = ml_to_dense(a);
  MATRIX *c = NULL;
  long i;
  if (a->rows == 1 || a->cols == 1) {
    int n = a->rows * a->cols;
    ML_reshape(&c, n, n);
    for (i = 0; i < ML_local_els(c); i++) {
      long g = ml_global_of_local(c, i);
      long gi = g / n, gj = g % n;
      c->data[i] = (gi == gj) ? dense[gi] : 0.0;
    }
  } else {
    int n = a->rows < a->cols ? a->rows : a->cols;
    ML_reshape(&c, n, 1);
    for (i = 0; i < ML_local_els(c); i++) {
      long g = ml_global_of_local(c, i);
      c->data[i] = dense[g * a->cols + g];
    }
  }
  free(dense);
  ML_free(dst);
  *dst = c;
}

/* The result is row-distributed for m > 1 but column-distributed when
   m = 1 (and u's element may then live on another rank), so fill
   through global indices from replicated operands. */
void ML_outer(const MATRIX *u, const MATRIX *v, MATRIX **dst) {
  int m = u->rows * u->cols, n = v->rows * v->cols;
  double *uf = ml_to_dense(u);
  double *vf = ml_to_dense(v);
  MATRIX *c = NULL;
  long k, nl;
  ML_reshape(&c, m, n);
  nl = ML_local_els(c);
  for (k = 0; k < nl; k++) {
    long g = ml_global_of_local(c, k);
    c->data[k] = uf[g / n] * vf[g % n];
  }
  free(uf);
  free(vf);
  ML_free(dst);
  *dst = c;
}

/* --- reductions --------------------------------------------------------- */

static double ml_red_init(ML_RED op) {
  switch (op) {
  case ML_PROD: case ML_ALL: return 1.0;
  case ML_MIN: case ML_MAX: return NAN;
  default: return 0.0;
  }
}

/* Both the local pass and the cross-rank combine skip NaNs (MATLAB
   min/max semantics), starting from a NaN identity: a rank that owns
   no non-NaN element contributes NaN, and min/max of an all-NaN
   distributed vector is NaN -- exactly what the interpreter and the
   simulator compute.  The cross-rank
   combine therefore cannot be the builtin MPI_MIN/MPI_MAX (neither is
   NaN-aware); ml_mpi_op creates a custom commutative MPI_Op wrapping
   ml_red_comb instead. */
static double ml_red_comb(ML_RED op, double a, double b) {
  switch (op) {
  case ML_SUM: case ML_MEAN: return a + b;
  case ML_PROD: return a * b;
  case ML_MIN:
    if (isnan(b)) return a;
    if (isnan(a)) return b;
    return a < b ? a : b;
  case ML_MAX:
    if (isnan(b)) return a;
    if (isnan(a)) return b;
    return a > b ? a : b;
  case ML_ANY: return (a != 0 || b != 0) ? 1.0 : 0.0;
  case ML_ALL: return (a != 0 && b != 0) ? 1.0 : 0.0;
  }
  return 0.0;
}

static void ml_op_min_fn(void *in, void *inout, int *len, MPI_Datatype *dt) {
  int i;
  (void)dt;
  for (i = 0; i < *len; i++)
    ((double *)inout)[i] =
        ml_red_comb(ML_MIN, ((double *)inout)[i], ((double *)in)[i]);
}

static void ml_op_max_fn(void *in, void *inout, int *len, MPI_Datatype *dt) {
  int i;
  (void)dt;
  for (i = 0; i < *len; i++)
    ((double *)inout)[i] =
        ml_red_comb(ML_MAX, ((double *)inout)[i], ((double *)in)[i]);
}

static MPI_Op ml_mpi_op(ML_RED op) {
  switch (op) {
  case ML_SUM: case ML_MEAN: return MPI_SUM;
  case ML_PROD: return MPI_PROD;
  case ML_MIN:
    if (ml_op_min_nan_ == MPI_OP_NULL)
      MPI_Op_create(ml_op_min_fn, 1, &ml_op_min_nan_);
    return ml_op_min_nan_;
  case ML_MAX:
    if (ml_op_max_nan_ == MPI_OP_NULL)
      MPI_Op_create(ml_op_max_fn, 1, &ml_op_max_nan_);
    return ml_op_max_nan_;
  /* ANY/ALL only ever combine 0/1 values; the builtins are exact. */
  case ML_ALL: return MPI_MIN;
  case ML_ANY: return MPI_MAX;
  }
  return MPI_SUM;
}

double ML_reduce_all(ML_RED op, const MATRIX *m) {
  long i;
  double local = ml_red_init(op), global;
  for (i = 0; i < ML_local_els(m); i++)
    local = ml_red_comb(op, local, m->data[i]);
  MPI_Allreduce(&local, &global, 1, MPI_DOUBLE, ml_mpi_op(op), MPI_COMM_WORLD);
  if (op == ML_MEAN) global /= (double)m->rows * m->cols;
  return global;
}

void ML_reduce_cols(ML_RED op, const MATRIX *m, MATRIX **dst) {
  int n = m->cols, li, j;
  double *partial = (double *)malloc(sizeof(double) * (n > 0 ? n : 1));
  double *full = (double *)malloc(sizeof(double) * (n > 0 ? n : 1));
  MATRIX *c = NULL;
  for (j = 0; j < n; j++) partial[j] = ml_red_init(op);
  for (li = 0; li < m->count; li++)
    for (j = 0; j < n; j++)
      partial[j] = ml_red_comb(op, partial[j], m->data[(long)li * n + j]);
  MPI_Allreduce(partial, full, n, MPI_DOUBLE, ml_mpi_op(op), MPI_COMM_WORLD);
  ML_reshape(&c, 1, n);
  for (j = 0; j < c->count; j++) {
    c->data[j] = full[c->low + j];
    if (op == ML_MEAN) c->data[j] /= (double)m->rows;
  }
  free(partial); free(full);
  ML_free(dst);
  *dst = c;
}

double ML_norm(const MATRIX *m) { return sqrt(ML_dot(m, m)); }

/* Every slot is sum-combining, so the local partials travel in a single
   vector allreduce; mean's divide and norm's sqrt are replicated local
   arithmetic after the combine.  Slot values are bit-identical to the
   unfused operations. */
void ML_reduce_fused(int n, const int *kind, const MATRIX **ma,
                     const MATRIX **mb, double *out) {
  double *partial = (double *)calloc(n > 0 ? n : 1, sizeof(double));
  long i;
  int k;
  for (k = 0; k < n; k++) {
    const MATRIX *m = ma[k];
    double acc = 0.0;
    switch ((ML_FUSE)kind[k]) {
    case ML_FUSE_SUM: case ML_FUSE_MEAN:
      for (i = 0; i < ML_local_els(m); i++) acc += m->data[i];
      break;
    case ML_FUSE_DOT:
      if ((long)m->rows * m->cols != (long)mb[k]->rows * mb[k]->cols)
        ML_error("dot: length mismatch");
      for (i = 0; i < ML_local_els(m); i++)
        acc += m->data[i] * mb[k]->data[i];
      break;
    case ML_FUSE_NORM:
      for (i = 0; i < ML_local_els(m); i++) acc += m->data[i] * m->data[i];
      break;
    }
    partial[k] = acc;
  }
  MPI_Allreduce(partial, out, n, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
  for (k = 0; k < n; k++) {
    if (kind[k] == ML_FUSE_MEAN)
      out[k] /= (double)ma[k]->rows * ma[k]->cols;
    else if (kind[k] == ML_FUSE_NORM)
      out[k] = sqrt(out[k]);
  }
  free(partial);
}

void ML_cumulative(int is_prod, const MATRIX *v, MATRIX **dst) {
  long i, n = ML_local_els(v);
  double local = is_prod ? 1.0 : 0.0, offset = is_prod ? 1.0 : 0.0;
  double acc;
  MATRIX *c = NULL;
  if (v->rows > 1 && v->cols > 1)
    ML_error("cumsum/cumprod of a full matrix is not supported");
  ML_reshape(&c, v->rows, v->cols);
  for (i = 0; i < n; i++)
    local = is_prod ? local * v->data[i] : local + v->data[i];
  MPI_Exscan(&local, &offset, 1, MPI_DOUBLE, is_prod ? MPI_PROD : MPI_SUM,
             MPI_COMM_WORLD);
  if (ml_rank_ == 0) offset = is_prod ? 1.0 : 0.0;
  acc = offset;
  for (i = 0; i < n; i++) {
    acc = is_prod ? acc * v->data[i] : acc + v->data[i];
    c->data[i] = acc;
  }
  ML_free(dst);
  *dst = c;
}

double ML_reduce_index(ML_RED op, const MATRIX *v, double *index_out) {
  long i, n = ML_local_els(v);
  struct { double value; int loc; } inout, result;
  if (v->rows > 1 && v->cols > 1)
    ML_error("[m, i] = min/max of a full matrix is not supported");
  /* loc 0x7fffffff marks a block with no non-NaN element: its value
     ties or loses against every real candidate, and ties go to the
     lower loc */
  inout.value = op == ML_MIN ? INFINITY : -INFINITY;
  inout.loc = 0x7fffffff;
  for (i = 0; i < n; i++) {
    double x = v->data[i];
    if (!isnan(x) && (inout.loc == 0x7fffffff ||
                      (op == ML_MIN ? x < inout.value : x > inout.value))) {
      inout.value = x;
      inout.loc = (int)ml_global_of_local(v, i);
    }
  }
  MPI_Allreduce(&inout, &result, 1, MPI_DOUBLE_INT,
                op == ML_MIN ? MPI_MINLOC : MPI_MAXLOC, MPI_COMM_WORLD);
  if (result.loc == 0x7fffffff) {
    if ((long)v->rows * v->cols == 0)
      ML_error("min/max of an empty vector");
    *index_out = 1.0; /* every element is NaN */
    return NAN;
  }
  *index_out = (double)(result.loc + 1);
  return result.value;
}

static const double *ml_sort_keys;

static int ml_sort_cmp(const void *pa, const void *pb) {
  int a = *(const int *)pa, b = *(const int *)pb;
  int na = isnan(ml_sort_keys[a]), nb = isnan(ml_sort_keys[b]);
  if (na || nb) {                /* MATLAB: NaNs sort to the end */
    if (na && nb) return a - b;
    return na ? 1 : -1;
  }
  if (ml_sort_keys[a] < ml_sort_keys[b]) return -1;
  if (ml_sort_keys[a] > ml_sort_keys[b]) return 1;
  return a - b;
}

void ML_sort(const MATRIX *v, MATRIX **sorted, MATRIX **perm) {
  long n = (long)v->rows * v->cols, i;
  double *dense = ml_to_dense(v);
  int *order = (int *)malloc(sizeof(int) * (n > 0 ? n : 1));
  MATRIX *s = NULL, *p = NULL;
  if (v->rows > 1 && v->cols > 1)
    ML_error("sort of a full matrix is not supported");
  for (i = 0; i < n; i++) order[i] = (int)i;
  ml_sort_keys = dense;
  qsort(order, (size_t)n, sizeof(int), ml_sort_cmp);
  ML_reshape(&s, v->rows, v->cols);
  for (i = 0; i < ML_local_els(s); i++)
    s->data[i] = dense[order[ml_global_of_local(s, i)]];
  ML_free(sorted);
  *sorted = s;
  if (perm) {
    ML_reshape(&p, v->rows, v->cols);
    for (i = 0; i < ML_local_els(p); i++)
      p->data[i] = (double)(order[ml_global_of_local(p, i)] + 1);
    ML_free(perm);
    *perm = p;
  }
  free(order);
  free(dense);
}

double ML_trapz(const MATRIX *x, const MATRIX *y) {
  long n = (long)y->rows * y->cols;
  int low = y->low, count = y->count, high = y->low + y->count;
  double boundary[2] = {0, 0};
  double local = 0.0, global = 0.0;
  long i;
  MPI_Status st;
  if (n < 2) return 0.0;
  /* ship the first sample(s) to the owner of index low-1 */
  if (count > 0 && low > 0) {
    double payload[2];
    payload[0] = y->data[0];
    payload[1] = x ? x->data[0] : 0.0;
    MPI_Send(payload, 2, MPI_DOUBLE,
             ml_owner_of(ml_procs_, (int)n, low - 1), 71, MPI_COMM_WORLD);
  }
  if (count > 0 && high < n)
    MPI_Recv(boundary, 2, MPI_DOUBLE,
             ml_owner_of(ml_procs_, (int)n, high), 71, MPI_COMM_WORLD, &st);
  for (i = low; i <= high - 1 && i <= n - 2; i++) {
    double y0 = y->data[i - low];
    double y1 = i + 1 < high ? y->data[i + 1 - low] : boundary[0];
    double dx;
    if (x) {
      double x0 = x->data[i - low];
      double x1 = i + 1 < high ? x->data[i + 1 - low] : boundary[1];
      dx = x1 - x0;
    } else
      dx = 1.0;
    local += dx * (y0 + y1) * 0.5;
  }
  MPI_Allreduce(&local, &global, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
  return global;
}

void ML_circshift(const MATRIX *m, int k, MATRIX **dst) {
  long n = (long)m->rows * m->cols, i;
  double *dense = ml_to_dense(m);
  MATRIX *c = NULL;
  ML_reshape(&c, m->rows, m->cols);
  if (n > 0) {
    long s = ((k % n) + n) % n;
    for (i = 0; i < ML_local_els(c); i++) {
      long g = ml_global_of_local(c, i);
      c->data[i] = dense[((g - s) % n + n) % n];
    }
  }
  free(dense);
  ML_free(dst);
  *dst = c;
}

/* --- sections ----------------------------------------------------------- */

static int ml_sel_count(ML_SEL s, int extent) {
  switch (s.kind) {
  case 0: return extent;
  case 1: return 1;
  case 2: return ml_range_len(s.lo, s.step, s.hi);
  default: return s.vec->rows * s.vec->cols;
  }
}

static int ml_sel_get(ML_SEL s, const double *vec_dense, int extent, int k) {
  int i;
  switch (s.kind) {
  case 0: i = k; break;
  case 1: i = (int)s.lo - 1; break;
  case 2: i = (int)(s.lo + k * s.step) - 1; break;
  default: i = (int)vec_dense[k] - 1; break;
  }
  if (i < 0 || i >= extent) ML_error("index out of bounds");
  return i;
}

void ML_section(const MATRIX *src, ML_SEL s1, ML_SEL s2, int nsel,
                MATRIX **dst) {
  double *dense = ml_to_dense(src);
  double *v1 = s1.kind == 3 ? ml_to_dense(s1.vec) : NULL;
  double *v2 = (nsel > 1 && s2.kind == 3) ? ml_to_dense(s2.vec) : NULL;
  MATRIX *c = NULL;
  long i;
  if (nsel == 1) {
    int n = src->rows * src->cols;
    int len = ml_sel_count(s1, n);
    int rows = src->cols == 1 ? len : 1, cols = src->cols == 1 ? 1 : len;
    if (src->rows > 1 && src->cols > 1)
      ML_error("linear sections of a full matrix are not supported");
    ML_reshape(&c, rows, cols);
    for (i = 0; i < ML_local_els(c); i++)
      c->data[i] = dense[ml_sel_get(s1, v1, n, (int)ml_global_of_local(c, i))];
  } else {
    int nr = ml_sel_count(s1, src->rows), nc = ml_sel_count(s2, src->cols);
    ML_reshape(&c, nr, nc);
    for (i = 0; i < ML_local_els(c); i++) {
      long g = ml_global_of_local(c, i);
      int ri = ml_sel_get(s1, v1, src->rows, (int)(g / nc));
      int rj = ml_sel_get(s2, v2, src->cols, (int)(g % nc));
      c->data[i] = dense[(long)ri * src->cols + rj];
    }
  }
  free(dense);
  if (v1) free(v1);
  if (v2) free(v2);
  ML_free(dst);
  *dst = c;
}

void ML_set_section(MATRIX *dst, ML_SEL s1, ML_SEL s2, int nsel,
                    const MATRIX *src, double fill) {
  double *sdense = src ? ml_to_dense(src) : NULL;
  double *v1 = s1.kind == 3 ? ml_to_dense(s1.vec) : NULL;
  double *v2 = (nsel > 1 && s2.kind == 3) ? ml_to_dense(s2.vec) : NULL;
  if (nsel == 1) {
    long n = (long)dst->rows * dst->cols;
    int len = ml_sel_count(s1, (int)n), k;
    if (dst->rows > 1 && dst->cols > 1)
      ML_error("linear section assignment on a full matrix is not supported");
    if (src && (long)src->rows * src->cols != len)
      ML_error("section assignment size mismatch");
    for (k = 0; k < len; k++) {
      int g = ml_sel_get(s1, v1, (int)n, k);
      int i = dst->cols == 1 ? g : 0, j = dst->cols == 1 ? 0 : g;
      if (ML_owner(dst, i, j))
        *ML_realaddr2(dst, i, j) = src ? sdense[k] : fill;
    }
  } else {
    int nr = ml_sel_count(s1, dst->rows), nc = ml_sel_count(s2, dst->cols);
    int a, b;
    if (src && (long)src->rows * src->cols != (long)nr * nc)
      ML_error("section assignment size mismatch");
    for (a = 0; a < nr; a++)
      for (b = 0; b < nc; b++) {
        int i = ml_sel_get(s1, v1, dst->rows, a);
        int j = ml_sel_get(s2, v2, dst->cols, b);
        if (ML_owner(dst, i, j))
          *ML_realaddr2(dst, i, j) = src ? sdense[(long)a * nc + b] : fill;
      }
  }
  if (sdense) free(sdense);
  if (v1) free(v1);
  if (v2) free(v2);
}

void ML_concat(MATRIX **dst, int grid_rows, int grid_cols,
               const MATRIX **parts) {
  /* MATLAB drops empty operands from a literal: empty blocks are
     skipped, and a grid row of nothing but empties adds no rows. */
  int total_rows = 0, total_cols = -1, gi, gj;
  long i;
  double *full;
  MATRIX *c = NULL;
  for (gi = 0; gi < grid_rows; gi++) {
    int h = -1, w = 0;
    for (gj = 0; gj < grid_cols; gj++) {
      const MATRIX *b = parts[gi * grid_cols + gj];
      if (b->rows * b->cols == 0) continue;
      if (h < 0) h = b->rows;
      else if (b->rows != h)
        ML_error("inconsistent row counts in matrix literal");
      w += b->cols;
    }
    if (h < 0) continue; /* every block in this row was empty */
    if (total_cols < 0) total_cols = w;
    else if (w != total_cols)
      ML_error("inconsistent column counts in matrix literal");
    total_rows += h;
  }
  if (total_cols < 0) total_cols = 0;
  full = (double *)calloc((size_t)total_rows * total_cols + 1, sizeof(double));
  {
    int roff = 0;
    for (gi = 0; gi < grid_rows; gi++) {
      int h = 0, coff = 0;
      for (gj = 0; gj < grid_cols; gj++) {
        const MATRIX *b = parts[gi * grid_cols + gj];
        double *bd;
        int r2, c2;
        if (b->rows * b->cols == 0) continue;
        bd = ml_to_dense(b);
        h = b->rows;
        for (r2 = 0; r2 < b->rows; r2++)
          for (c2 = 0; c2 < b->cols; c2++)
            full[(long)(roff + r2) * total_cols + coff + c2] =
                bd[(long)r2 * b->cols + c2];
        free(bd);
        coff += b->cols;
      }
      roff += h;
    }
  }
  ML_reshape(&c, total_rows, total_cols);
  for (i = 0; i < ML_local_els(c); i++)
    c->data[i] = full[ml_global_of_local(c, i)];
  free(full);
  ML_free(dst);
  *dst = c;
}

/* --- element access ----------------------------------------------------- */

int ML_owner(const MATRIX *m, int i, int j) {
  if (m->axis == 0) return i >= m->low && i < m->low + m->count;
  return j >= m->low && j < m->low + m->count;
}

int ML_owner_linear(const MATRIX *m, int g) {
  if (m->rows == 1) return ML_owner(m, 0, g);
  if (m->cols == 1) return ML_owner(m, g, 0);
  return ML_owner(m, g % m->rows, g / m->rows);
}

double *ML_realaddr2(MATRIX *m, int i, int j) {
  if (i < 0 || i >= m->rows || j < 0 || j >= m->cols)
    ML_error("index out of bounds");
  if (m->axis == 0) return &m->data[(long)(i - m->low) * m->cols + j];
  return &m->data[j - m->low];
}

double *ML_realaddr1(MATRIX *m, int g) {
  if (g < 0 || g >= m->rows * m->cols) ML_error("index out of bounds");
  if (m->rows == 1) return ML_realaddr2(m, 0, g);
  if (m->cols == 1) return ML_realaddr2(m, g, 0);
  return ML_realaddr2(m, g % m->rows, g / m->rows);
}

double ML_broadcast(const MATRIX *m, int i, int j) {
  double v = 0.0;
  int root;
  if (i < 0 || i >= m->rows || j < 0 || j >= m->cols)
    ML_error("index out of bounds");
  root = m->axis == 0 ? ml_owner_of(ml_procs_, m->rows, i)
                      : ml_owner_of(ml_procs_, m->cols, j);
  if (ML_owner(m, i, j)) v = *ML_realaddr2((MATRIX *)m, i, j);
  MPI_Bcast(&v, 1, MPI_DOUBLE, root, MPI_COMM_WORLD);
  return v;
}

double ML_broadcast_linear(const MATRIX *m, int g) {
  if (g < 0 || g >= m->rows * m->cols) ML_error("index out of bounds");
  if (m->rows == 1) return ML_broadcast(m, 0, g);
  if (m->cols == 1) return ML_broadcast(m, g, 0);
  return ML_broadcast(m, g % m->rows, g / m->rows);
}

/* One collective replicates the whole batch: each owner deposits its
   values into a vector of -0 and a sum allreduce combines.  -0 is the
   exact identity of +, so a -0 value keeps its sign (+0 would not). */
void ML_broadcast_batch(const MATRIX *m, int n, const int *ri,
                        const int *ci, double *out) {
  double *partial = (double *)malloc(sizeof(double) * (n > 0 ? n : 1));
  int k;
  for (k = 0; k < n; k++) partial[k] = -0.0;
  for (k = 0; k < n; k++) {
    int i = ri[k], j = ci[k];
    if (i < 0) {
      int g = ci[k];
      if (g < 0 || g >= m->rows * m->cols) ML_error("index out of bounds");
      if (m->rows == 1) { i = 0; j = g; }
      else if (m->cols == 1) { i = g; j = 0; }
      else { i = g % m->rows; j = g / m->rows; }
    } else if (i >= m->rows || j < 0 || j >= m->cols)
      ML_error("index out of bounds");
    if (ML_owner(m, i, j)) partial[k] = *ML_realaddr2((MATRIX *)m, i, j);
  }
  MPI_Allreduce(partial, out, n, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
  free(partial);
}

/* --- output ------------------------------------------------------------- */

void ML_print_matrix(const char *name, const MATRIX *m) {
  double *dense = ml_to_dense(m);
  if (ml_rank_ == 0) {
    int i, j;
    if (name && name[0]) printf("%s =\n", name);
    for (i = 0; i < m->rows; i++) {
      printf("  ");
      for (j = 0; j < m->cols; j++)
        printf(" %10.4f", dense[(long)i * m->cols + j]);
      printf("\n");
    }
  }
  free(dense);
}

|}
