/* SIGPROF sampler for hosts without perf/gdb/valgrind (x86-64 Linux):
 *   cc -O2 -shared -fPIC -o /tmp/prof.so scripts/sample/prof.c
 *   PROF_OUT=/tmp/run.prof LD_PRELOAD=/tmp/prof.so target/release/predator run ...
 *   scripts/sample/sym.py target/release/predator /tmp/run.prof
 * Every PROF_HZ-th of a CPU second (default 1000, all threads) the handler
 * stores the interrupted instruction pointer; the destructor writes the main
 * binary's load base (first /proc/self/maps line), then one sample per line. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long n_samples;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void prof_start(void) {
    long hz = getenv("PROF_HZ") ? atol(getenv("PROF_HZ")) : 1000;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void prof_dump(void) {
    /* Ignore SIGPROF before disarming: a tick already pending must not take
     * the default action ("Profiling timer expired") and kill the run. */
    signal(SIGPROF, SIG_IGN);
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    unsigned long base = 0;
    if (!out || !maps || fscanf(maps, "%lx", &base) != 1)
        return;
    fprintf(out, "base %lx\n", base);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
