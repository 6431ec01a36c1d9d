#include "src/service/exec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace hdtn::service {

namespace {

void sleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string describeOutcome(const ChildOutcome& outcome,
                            double timeoutSeconds) {
  switch (outcome.cause) {
    case ExitCause::kTimedOut:
      return "timed out after " + std::to_string(timeoutSeconds) + " s";
    case ExitCause::kSignaled:
      return "killed by signal " + std::to_string(outcome.signal);
    case ExitCause::kCleanExit:
      if (outcome.exitCode == kPreemptedExitCode) {
        return "preempted (checkpoint saved)";
      }
      return "exit code " + std::to_string(outcome.exitCode);
  }
  return "unknown outcome";
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0 && !reaped_) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status_, 0);
  }
  if (stdoutFd_ >= 0) close(stdoutFd_);
  closeExitFd();
}

void ChildProcess::closeExitFd() {
  if (pidFd_ >= 0) close(pidFd_);
  pidFd_ = -1;
}

bool ChildProcess::start(const std::vector<std::string>& argv,
                         const std::string& stdoutPath, std::string* error) {
  int pipeFds[2] = {-1, -1};
  int logFd = -1;
  if (stdoutPath.empty()) {
    if (pipe(pipeFds) != 0) {
      if (error != nullptr) *error = "pipe() failed";
      return false;
    }
  } else {
    logFd = open(stdoutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logFd < 0) {
      if (error != nullptr) *error = "cannot open log file " + stdoutPath;
      return false;
    }
  }

  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    if (pipeFds[0] >= 0) close(pipeFds[0]);
    if (pipeFds[1] >= 0) close(pipeFds[1]);
    if (logFd >= 0) close(logFd);
    if (error != nullptr) *error = "fork() failed";
    return false;
  }
  if (pid == 0) {
    // The worker dies with the process that forked it, so a SIGKILLed
    // supervisor or daemon leaves no orphan still writing its checkpoint.
    // The signal follows the forking thread: the daemon loop, the
    // supervisor loop and the tests' DaemonHarness thread each outlive
    // their children. A parent that died before prctl ran is caught by
    // the getppid() check.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    // Child: stdout → pipe or log file, then exec. _exit(127) on exec
    // failure keeps the failure visible as a distinct exit code.
    if (logFd >= 0) {
      dup2(logFd, STDOUT_FILENO);
      dup2(logFd, STDERR_FILENO);
      close(logFd);
    } else {
      close(pipeFds[0]);
      dup2(pipeFds[1], STDOUT_FILENO);
      close(pipeFds[1]);
    }
    execvp(args[0], args.data());
    _exit(127);
  }
  if (logFd >= 0) close(logFd);
  if (pipeFds[1] >= 0) close(pipeFds[1]);
  if (pipeFds[0] >= 0) {
    // Non-blocking reads so the poll loop can watch the clock while
    // draining the pipe (a child that fills the pipe buffer would
    // otherwise deadlock against a parent that only reads after waitpid).
    fcntl(pipeFds[0], F_SETFL, O_NONBLOCK);
    stdoutFd_ = pipeFds[0];
  }
  pid_ = pid;
#ifdef SYS_pidfd_open
  pidFd_ = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
#endif
  reaped_ = false;
  timedOut_ = false;
  captured_.clear();
  startSeconds_ = monotonicSeconds();
  return true;
}

void ChildProcess::drainPipe() {
  if (stdoutFd_ < 0) return;
  char buf[4096];
  ssize_t n;
  while ((n = read(stdoutFd_, buf, sizeof(buf))) > 0) {
    captured_.append(buf, static_cast<std::size_t>(n));
  }
}

bool ChildProcess::poll() {
  if (pid_ <= 0 || reaped_) return false;
  drainPipe();
  const pid_t waited = waitpid(pid_, &status_, WNOHANG);
  if (waited == pid_) {
    reaped_ = true;
    // A reaped child's pidfd stays readable: close it so no poll loop
    // spins on it.
    closeExitFd();
    drainPipe();
    return false;
  }
  return true;
}

void ChildProcess::requestStop() {
  if (pid_ > 0 && !reaped_) kill(pid_, SIGTERM);
}

void ChildProcess::forceKill(bool countAsTimeout) {
  if (pid_ > 0 && !reaped_) {
    if (countAsTimeout) timedOut_ = true;
    kill(pid_, SIGKILL);
  }
}

ChildOutcome ChildProcess::wait() {
  ChildOutcome outcome;
  if (pid_ <= 0) return outcome;
  if (!reaped_) {
    drainPipe();
    waitpid(pid_, &status_, 0);
    reaped_ = true;
  }
  closeExitFd();
  drainPipe();
  if (stdoutFd_ >= 0) {
    close(stdoutFd_);
    stdoutFd_ = -1;
  }
  if (timedOut_) {
    outcome.cause = ExitCause::kTimedOut;
  } else if (WIFEXITED(status_)) {
    outcome.cause = ExitCause::kCleanExit;
    outcome.exitCode = WEXITSTATUS(status_);
  } else if (WIFSIGNALED(status_)) {
    outcome.cause = ExitCause::kSignaled;
    outcome.signal = WTERMSIG(status_);
  }
  outcome.output = std::move(captured_);
  captured_.clear();
  return outcome;
}

double ChildProcess::elapsedSeconds() const {
  return monotonicSeconds() - startSeconds_;
}

ChildOutcome runChild(const std::vector<std::string>& argv,
                      double timeoutSeconds) {
  ChildProcess child;
  std::string error;
  if (!child.start(argv, "", &error)) {
    ChildOutcome failed;
    failed.cause = ExitCause::kCleanExit;
    failed.exitCode = 127;
    failed.output = error;
    return failed;
  }
  while (child.poll()) {
    if (child.elapsedSeconds() >= timeoutSeconds) {
      child.forceKill(/*countAsTimeout=*/true);
      break;
    }
    sleepSeconds(0.01);
  }
  return child.wait();
}

RetryDecision classifyOutcome(const ChildOutcome& outcome,
                              const RetryPolicy& policy) {
  switch (outcome.cause) {
    case ExitCause::kTimedOut:
    case ExitCause::kSignaled:
      return RetryDecision::kRetry;
    case ExitCause::kCleanExit:
      if (outcome.exitCode == 0) return RetryDecision::kSuccess;
      if (outcome.exitCode == kPreemptedExitCode) {
        return RetryDecision::kPreempted;
      }
      if (std::find(policy.failFastExitCodes.begin(),
                    policy.failFastExitCodes.end(),
                    outcome.exitCode) != policy.failFastExitCodes.end()) {
        return RetryDecision::kFailFast;
      }
      return RetryDecision::kRetry;
  }
  return RetryDecision::kRetry;
}

double backoffSeconds(const RetryPolicy& policy, int nextAttempt) {
  if (nextAttempt <= 1) return 0.0;
  const int shift = std::min(nextAttempt - 2, 16);
  return policy.backoffBaseSeconds * static_cast<double>(1u << shift);
}

}  // namespace hdtn::service
