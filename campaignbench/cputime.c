/* Thread CPU time in nanoseconds, for timing ops that never wait. */
#include <time.h>
#include <caml/mlvalues.h>

value campaignbench_thread_cputime_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
