(* An MPI for one machine: the subset of MPI that [C_runtime.impl]
   calls, in plain POSIX C.  [header] is the mpi.h to compile against;
   [impl] forks OTTER_NP processes that exchange messages as files in a
   private directory, after MatlabMPI (astro-ph/0107406). *)

let header =
  {|/* mpi.h -- the subset of MPI that otter_rt.c uses, as implemented by
   otter_mpi_shim.c.  Keep it off the include path of a real MPI build. */
#ifndef OTTER_MPI_SHIM_H
#define OTTER_MPI_SHIM_H

typedef int MPI_Comm;
typedef int MPI_Datatype;
typedef int MPI_Op;
typedef struct { int MPI_SOURCE, MPI_TAG, MPI_ERROR; } MPI_Status;
typedef void(MPI_User_function)(void *in, void *inout, int *len,
                                MPI_Datatype *dt);

#define MPI_COMM_WORLD 0
#define MPI_DOUBLE 1
#define MPI_DOUBLE_INT 2 /* struct { double value; int loc; } */
#define MPI_OP_NULL 0
#define MPI_SUM 1
#define MPI_PROD 2
#define MPI_MIN 3
#define MPI_MAX 4
#define MPI_MINLOC 5
#define MPI_MAXLOC 6

int MPI_Init(int *argc, char ***argv);
int MPI_Finalize(void);
int MPI_Comm_rank(MPI_Comm comm, int *rank);
int MPI_Comm_size(MPI_Comm comm, int *size);
int MPI_Send(const void *buf, int count, MPI_Datatype t, int dst, int tag,
             MPI_Comm comm);
int MPI_Recv(void *buf, int count, MPI_Datatype t, int src, int tag,
             MPI_Comm comm, MPI_Status *status);
int MPI_Bcast(void *buf, int count, MPI_Datatype t, int root, MPI_Comm comm);
int MPI_Allreduce(const void *send, void *recv, int count, MPI_Datatype t,
                  MPI_Op op, MPI_Comm comm);
int MPI_Allgatherv(const void *send, int count, MPI_Datatype st, void *recv,
                   const int *counts, const int *displs, MPI_Datatype rt,
                   MPI_Comm comm);
int MPI_Exscan(const void *send, void *recv, int count, MPI_Datatype t,
               MPI_Op op, MPI_Comm comm);
int MPI_Op_create(MPI_User_function *fn, int commute, MPI_Op *op);
int MPI_Op_free(MPI_Op *op);

#endif
|}

let impl =
  {|/* otter_mpi_shim.c -- the subset of MPI in mpi.h for one machine with
   no MPI installation.

     cc -O2 -I. -o prog prog.c otter_rt.c otter_mpi_shim.c -lm
     OTTER_NP=4 ./prog

   MPI_Init forks P-1 children; P comes from OTTER_NP (default 1), the
   shim's stand-in for mpirun -np.  Messages are files in a private
   directory, after MatlabMPI: a send writes m.<src>.<dst>.<seq> under a
   temporary name and renames it into place, so it never blocks, and a
   receive polls for the next file from its source and checks its tag
   and size.  Collectives are sends and receives in rank order, through
   rank 0 where they combine, so every run computes the same bits.  The
   file x.<rank> says that rank sends nothing more: each rank writes it
   in MPI_Finalize and rank 0 writes it for every child it reaps, so a
   receive whose peer is gone fails rather than hangs.  Rank 0 reaps its
   children, exits with a failing child's status, and removes the
   directory. */
#include "mpi.h"
#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#define SHIM_MAX_PROCS 64
#define SHIM_MAX_OPS 8
#define SHIM_TAG_COLL (-1)

typedef struct { double value; int loc; } shim_double_int;
typedef struct { int tag; long bytes; } shim_header;

static int rank_ = 0, size_ = 1;
static char dir_[512];
static pid_t root_pid_;
static pid_t kids_[SHIM_MAX_PROCS]; /* rank 0: live children */
static long sent_[SHIM_MAX_PROCS], got_[SHIM_MAX_PROCS]; /* per peer */
static MPI_User_function *user_ops_[SHIM_MAX_OPS];

static void shim_nap(long *ns) {
  struct timespec t = {0, 0};
  t.tv_nsec = *ns;
  nanosleep(&t, NULL);
  if (*ns < 1000000) *ns *= 2;
}

static void shim_mark(int r) {
  char path[1024];
  int fd;
  snprintf(path, sizeof path, "%s/x.%d", dir_, r);
  if ((fd = open(path, O_WRONLY | O_CREAT, 0600)) >= 0) close(fd);
}

static void shim_remove_dir(void) {
  char path[1024];
  struct dirent *e;
  DIR *d = opendir(dir_);
  if (d == NULL) return;
  while ((e = readdir(d)) != NULL)
    if (e->d_name[0] != '.') {
      snprintf(path, sizeof path, "%s/%s", dir_, e->d_name);
      unlink(path);
    }
  closedir(d);
  rmdir(dir_);
}

/* Rank 0: stop the remaining children, remove the directory, exit. */
static void shim_abort(int status) {
  int r;
  for (r = 1; r < size_; r++)
    if (kids_[r] > 0) kill(kids_[r], SIGKILL);
  for (r = 1; r < size_; r++)
    if (kids_[r] > 0) waitpid(kids_[r], NULL, 0);
  shim_remove_dir();
  exit(status);
}

/* A child exits 1, which takes rank 0 down; if rank 0 is already gone,
   the child removes the directory itself. */
static void shim_die(const char *fmt, ...) {
  va_list ap;
  fprintf(stderr, "otter_mpi: rank %d: ", rank_);
  va_start(ap, fmt);
  vfprintf(stderr, fmt, ap);
  va_end(ap);
  fputc('\n', stderr);
  if (rank_ == 0) shim_abort(1);
  if (getppid() != root_pid_) shim_remove_dir();
  exit(1);
}

/* Rank 0: reap the children that have exited; a failing one aborts the
   run with its status. */
static void shim_reap(void) {
  int r, st, code;
  for (r = 1; r < size_; r++) {
    if (kids_[r] == 0 || waitpid(kids_[r], &st, WNOHANG) != kids_[r])
      continue;
    kids_[r] = 0;
    shim_mark(r);
    code = WIFSIGNALED(st) ? 128 + WTERMSIG(st) : WEXITSTATUS(st);
    if (code != 0) {
      fprintf(stderr, "otter_mpi: rank %d failed with status %d\n", r, code);
      shim_abort(code);
    }
  }
}

static long shim_bytes(int count, MPI_Datatype t) {
  return count * (long)(t == MPI_DOUBLE_INT ? sizeof(shim_double_int)
                                            : sizeof(double));
}

/* inout[i] = in[i] op inout[i] */
static void shim_combine(MPI_Op op, const void *in, void *inout, int n,
                         MPI_Datatype t) {
  int i;
  if (op > MPI_MAXLOC) {
    user_ops_[op - MPI_MAXLOC - 1]((void *)in, inout, &n, &t);
    return;
  }
  for (i = 0; i < n; i++)
    if (t == MPI_DOUBLE_INT) {
      const shim_double_int *a = (const shim_double_int *)in + i;
      shim_double_int *b = (shim_double_int *)inout + i;
      if ((op == MPI_MINLOC ? a->value < b->value : a->value > b->value) ||
          (a->value == b->value && a->loc < b->loc))
        *b = *a;
    } else {
      double a = ((const double *)in)[i], *b = (double *)inout + i;
      if (op == MPI_SUM) *b = a + *b;
      else if (op == MPI_PROD) *b = a * *b;
      else if (op == MPI_MIN ? a < *b : a > *b) *b = a;
    }
}

int MPI_Init(int *argc, char ***argv) {
  const char *np = getenv("OTTER_NP"), *tmp = getenv("TMPDIR");
  char *end = NULL;
  long p = 1;
  int r;
  (void)argc;
  (void)argv;
  if (np != NULL &&
      ((p = strtol(np, &end, 10)) < 1 || p > SHIM_MAX_PROCS || *end != '\0')) {
    fprintf(stderr, "otter_mpi: OTTER_NP must be an integer from 1 to %d, "
                    "got \"%s\"\n", SHIM_MAX_PROCS, np);
    exit(2);
  }
  if ((size_ = (int)p) == 1) return 0;
  snprintf(dir_, sizeof dir_, "%s/otter_mpiXXXXXX",
           tmp != NULL && *tmp != '\0' ? tmp : "/tmp");
  if (mkdtemp(dir_) == NULL) {
    fprintf(stderr, "otter_mpi: cannot create %s: %s\n", dir_,
            strerror(errno));
    exit(2);
  }
  root_pid_ = getpid();
  fflush(NULL);
  for (r = 1; r < size_; r++) {
    if ((kids_[r] = fork()) == 0) {
      rank_ = r;
      return 0;
    }
    if (kids_[r] < 0) {
      kids_[r] = 0;
      shim_die("fork: %s", strerror(errno));
    }
  }
  return 0;
}

int MPI_Finalize(void) {
  long nap = 1000;
  int r, live = 1;
  if (size_ == 1) return 0;
  shim_mark(rank_);
  if (rank_ != 0) return 0;
  while (live) {
    shim_reap();
    for (live = 0, r = 1; r < size_; r++) live |= kids_[r] != 0;
    if (live) shim_nap(&nap);
  }
  shim_remove_dir();
  return 0;
}

int MPI_Comm_rank(MPI_Comm c, int *rank) { (void)c; *rank = rank_; return 0; }
int MPI_Comm_size(MPI_Comm c, int *size) { (void)c; *size = size_; return 0; }

int MPI_Send(const void *buf, int count, MPI_Datatype t, int dst, int tag,
             MPI_Comm c) {
  char tmp[1024], path[1024];
  shim_header h;
  FILE *f;
  int ok;
  (void)c;
  h.tag = tag;
  h.bytes = shim_bytes(count, t);
  snprintf(tmp, sizeof tmp, "%s/t.%d.%d.%ld", dir_, rank_, dst, sent_[dst]);
  snprintf(path, sizeof path, "%s/m.%d.%d.%ld", dir_, rank_, dst, sent_[dst]);
  ok = (f = fopen(tmp, "wb")) != NULL && fwrite(&h, sizeof h, 1, f) == 1 &&
       (h.bytes == 0 || fwrite(buf, (size_t)h.bytes, 1, f) == 1);
  if (f != NULL && fclose(f) != 0) ok = 0;
  if (!ok || rename(tmp, path) != 0)
    shim_die("cannot send to rank %d: %s", dst, strerror(errno));
  sent_[dst]++;
  return 0;
}

int MPI_Recv(void *buf, int count, MPI_Datatype t, int src, int tag,
             MPI_Comm c, MPI_Status *status) {
  char path[1024], mark[1024];
  long nap = 1000, bytes = shim_bytes(count, t);
  shim_header h;
  FILE *f;
  (void)c;
  (void)status;
  snprintf(path, sizeof path, "%s/m.%d.%d.%ld", dir_, src, rank_, got_[src]);
  snprintf(mark, sizeof mark, "%s/x.%d", dir_, src);
  for (;;) {
    /* the peer's end is tested before the file, so a message sent just
       before it is still received */
    int gone = access(mark, F_OK) == 0 ||
               (rank_ != 0 && getppid() != root_pid_);
    if ((f = fopen(path, "rb")) != NULL) break;
    if (rank_ == 0) shim_reap();
    if (gone)
      shim_die("rank %d ended without sending message %ld", src, got_[src]);
    shim_nap(&nap);
  }
  if (fread(&h, sizeof h, 1, f) != 1 || h.tag != tag || h.bytes != bytes ||
      (bytes > 0 && fread(buf, (size_t)bytes, 1, f) != 1))
    shim_die("message %ld from rank %d: expected tag %d and %ld bytes",
             got_[src], src, tag, bytes);
  fclose(f);
  unlink(path);
  got_[src]++;
  return 0;
}

int MPI_Bcast(void *buf, int count, MPI_Datatype t, int root, MPI_Comm c) {
  int r;
  if (rank_ != root)
    return MPI_Recv(buf, count, t, root, SHIM_TAG_COLL, c, NULL);
  for (r = 0; r < size_; r++)
    if (r != root) MPI_Send(buf, count, t, r, SHIM_TAG_COLL, c);
  return 0;
}

/* Rank 0 combines the contributions in rank order and sends the result
   back, so every rank holds the same bits. */
int MPI_Allreduce(const void *send, void *recv, int count, MPI_Datatype t,
                  MPI_Op op, MPI_Comm c) {
  long bytes = shim_bytes(count, t);
  void *part = malloc(bytes > 0 ? (size_t)bytes : 1);
  int r;
  memcpy(recv, send, (size_t)bytes);
  if (rank_ != 0) MPI_Send(send, count, t, 0, SHIM_TAG_COLL, c);
  for (r = 1; rank_ == 0 && r < size_; r++) {
    MPI_Recv(part, count, t, r, SHIM_TAG_COLL, c, NULL);
    shim_combine(op, part, recv, count, t);
  }
  free(part);
  return MPI_Bcast(recv, count, t, 0, c);
}

int MPI_Allgatherv(const void *send, int count, MPI_Datatype st, void *recv,
                   const int *counts, const int *displs, MPI_Datatype rt,
                   MPI_Comm c) {
  int r, total = 0;
  memcpy((char *)recv + shim_bytes(displs[rank_], rt), send,
         (size_t)shim_bytes(count, st));
  if (rank_ != 0) MPI_Send(send, count, st, 0, SHIM_TAG_COLL, c);
  for (r = 1; rank_ == 0 && r < size_; r++)
    MPI_Recv((char *)recv + shim_bytes(displs[r], rt), counts[r], rt, r,
             SHIM_TAG_COLL, c, NULL);
  for (r = 0; r < size_; r++)
    if (displs[r] + counts[r] > total) total = displs[r] + counts[r];
  return MPI_Bcast(recv, total, rt, 0, c);
}

/* A chain in rank order: rank r receives the combined values of ranks
   0..r-1 and passes them on combined with its own. */
int MPI_Exscan(const void *send, void *recv, int count, MPI_Datatype t,
               MPI_Op op, MPI_Comm c) {
  long bytes = shim_bytes(count, t);
  void *acc = malloc(bytes > 0 ? (size_t)bytes : 1);
  memcpy(acc, send, (size_t)bytes);
  if (rank_ > 0) {
    MPI_Recv(recv, count, t, rank_ - 1, SHIM_TAG_COLL, c, NULL);
    shim_combine(op, recv, acc, count, t);
  }
  if (rank_ < size_ - 1) MPI_Send(acc, count, t, rank_ + 1, SHIM_TAG_COLL, c);
  free(acc);
  return 0;
}

int MPI_Op_create(MPI_User_function *fn, int commute, MPI_Op *op) {
  int k = 0;
  (void)commute;
  while (k < SHIM_MAX_OPS && user_ops_[k] != NULL) k++;
  if (k == SHIM_MAX_OPS) shim_die("more than %d reduction ops", SHIM_MAX_OPS);
  user_ops_[k] = fn;
  *op = MPI_MAXLOC + 1 + k;
  return 0;
}

int MPI_Op_free(MPI_Op *op) {
  if (*op > MPI_MAXLOC) user_ops_[*op - MPI_MAXLOC - 1] = NULL;
  *op = MPI_OP_NULL;
  return 0;
}
|}
