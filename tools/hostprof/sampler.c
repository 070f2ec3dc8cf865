/* Flat SIGPROF program-counter sampler, loaded with LD_PRELOAD.

   Every millisecond of process CPU time the kernel delivers SIGPROF to a
   running thread; the handler records the interrupted PC.  At exit the
   process's memory map and the PCs go to $HOSTPROF_OUT (default
   hostprof.out) for symbolize.py.  The handler only stores one word:
   walking the stack from it (glibc backtrace) is not async-signal-safe
   and has crashed the OCaml runtime, so the profile is flat. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long n_samples;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void hostprof_start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void hostprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("HOSTPROF_OUT");
  FILE *out = fopen(path ? path : "hostprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  char line[4096];
  while (fgets(line, sizeof line, maps)) fputs(line, out);
  fputs("--\n", out);
  unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  for (unsigned long i = 0; i < n; i++) fprintf(out, "%lx\n", pcs[i]);
  fclose(maps);
  fclose(out);
}
