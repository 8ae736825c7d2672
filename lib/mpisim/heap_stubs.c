/* C-heap policy for the simulator (see keep_heap in sim.ml).  Returns
   whether the policy was set. */

#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

value otter_mpisim_keep_heap(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  /* Serve blocks up to 32 MB (glibc's ceiling for this setting) from
     the heap rather than from a fresh mapping each, and keep up to
     1 GB of free space at its top instead of returning it. */
  return Val_bool(mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024) == 1
                  && mallopt(M_TRIM_THRESHOLD, 1024 * 1024 * 1024) == 1);
#else
  return Val_false;
#endif
}
