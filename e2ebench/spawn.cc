// e2e_spawn [--cpu N] REPORT PROGRAM [ARGS...]
//
// Runs PROGRAM as a child of this small process and writes
// {"rc": ..., "wall_s": ..., "maxrss_kb": ...} to REPORT once it exits.
// Wall time spans fork to wait4; peak RSS is wait4's ru_maxrss. Linux keeps
// a process's RSS high-water mark across exec, so a child forked straight
// from the (much larger) Python process of run.py would report that size as
// its floor; forking from this launcher keeps that floor near 1 MB.
// SIGTERM and SIGINT are forwarded to the child, so a daemon run under the
// launcher can still be shut down cleanly. stdin/stdout/stderr are
// inherited. --cpu N pins the launcher, and so the child, to CPU N.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

volatile sig_atomic_t g_child = 0;

void Forward(int sig) {
  if (g_child > 0) {
    kill(g_child, sig);
  }
}

double Now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--cpu") == 0) {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(std::atoi(argv[2]), &cpus);
    if (sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
      std::perror("e2e_spawn: sched_setaffinity");
      return 127;
    }
    argc -= 2;
    argv += 2;
  }
  if (argc < 3) {
    std::fprintf(stderr, "usage: e2e_spawn [--cpu N] REPORT PROGRAM [ARGS...]\n");
    return 127;
  }
  struct sigaction action {};
  action.sa_handler = Forward;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  double start = Now();
  pid_t child = fork();
  if (child < 0) {
    std::perror("e2e_spawn: fork");
    return 127;
  }
  if (child == 0) {
    signal(SIGTERM, SIG_DFL);
    signal(SIGINT, SIG_DFL);
    execv(argv[2], argv + 2);
    std::perror("e2e_spawn: exec");
    _exit(127);
  }
  g_child = child;
  int status = 0;
  rusage usage{};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("e2e_spawn: wait4");
      return 127;
    }
  }
  double wall = Now() - start;
  int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("e2e_spawn: report");
    return 127;
  }
  std::fprintf(report, "{\"rc\": %d, \"wall_s\": %.9f, \"maxrss_kb\": %ld}\n", rc, wall,
               usage.ru_maxrss);
  std::fclose(report);
  return 0;
}
