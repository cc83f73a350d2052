/* CPU affinity for the benchmark process: which CPUs it may use, and
   pinning it to one of them. Without Linux affinity calls the process
   reports no CPUs and is never pinned. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value ba_bench_pin_cpu(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}

/* Bit i set: CPU i is allowed (CPUs 0 to 61 only). */
value ba_bench_allowed_cpus(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  long mask = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int i = 0; i < 62; i++)
    if (CPU_ISSET(i, &set)) mask |= 1L << i;
  return Val_long(mask);
#else
  return Val_long(0);
#endif
}
