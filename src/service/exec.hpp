// Job-execution core shared by the batch sweep supervisor (bench
// --supervise) and the resident sweep service (hdtn_sim --serve).
//
// ChildProcess is the one place that forks: it spawns a worker, captures
// its stdout (in memory or to a per-attempt log file), and supports the
// cooperative stop protocol — requestStop() sends SIGTERM so a
// checkpoint-aware worker can save state and exit with kPreemptedExitCode,
// and forceKill() escalates to SIGKILL when the grace period runs out.
//
// classifyOutcome() turns what the child did into a retry decision: clean
// validation failures (exit 2, exec failure 127) are deterministic and fail
// fast; crashes, timeouts, and other runtime exits retry — with resume,
// because every supervised worker checkpoints (docs/SERVICE.md).
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace hdtn::service {

/// Exit code a preempted worker uses after saving its checkpoint on
/// SIGTERM: "stopped on request, resume me later" (EX_TEMPFAIL).
inline constexpr int kPreemptedExitCode = 75;

enum class ExitCause {
  kCleanExit,  ///< exited; exitCode is valid
  kSignaled,   ///< died to a signal (crash, or our SIGKILL)
  kTimedOut,   ///< we killed it past its wall-clock budget
};

/// What one child attempt did.
struct ChildOutcome {
  ExitCause cause = ExitCause::kSignaled;
  int exitCode = -1;  ///< valid when cause == kCleanExit
  int signal = 0;     ///< valid when cause == kSignaled
  /// Captured stdout (memory-capture mode only; empty in log-file mode).
  std::string output;
};

/// "exit code 3" / "killed by signal 9" / "timed out after 600 s" — for
/// journals and status lines.
[[nodiscard]] std::string describeOutcome(const ChildOutcome& outcome,
                                          double timeoutSeconds);

/// One worker subprocess, driven non-blockingly so a pool can watch many.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Spawns argv[0] with the given arguments. When `stdoutPath` is empty,
  /// stdout is captured into memory (drained by poll()); otherwise stdout
  /// and stderr are redirected to that file, truncating it — per-attempt
  /// logs stay bounded by construction. Returns false with *error set when
  /// the fork or pipe fails.
  [[nodiscard]] bool start(const std::vector<std::string>& argv,
                           const std::string& stdoutPath, std::string* error);

  /// Drains any pipe output and reaps the child if it exited. Returns true
  /// while the child is still running.
  [[nodiscard]] bool poll();

  /// Cooperative stop: SIGTERM. A checkpoint-aware worker saves state and
  /// exits kPreemptedExitCode; anything else just dies.
  void requestStop();

  /// SIGKILL. The next poll()/wait() reaps it as kSignaled.
  void forceKill(bool countAsTimeout = false);

  /// Blocks until the child exits, then returns its outcome. Also valid
  /// after poll() returned false.
  [[nodiscard]] ChildOutcome wait();

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// A pidfd that polls readable once the child exits, so a poll loop
  /// wakes at the exit instead of at its next tick; -1 where the kernel
  /// offers none, and once the child is reaped.
  [[nodiscard]] int exitFd() const { return pidFd_; }
  [[nodiscard]] bool started() const { return pid_ > 0; }
  /// Wall-clock seconds since start().
  [[nodiscard]] double elapsedSeconds() const;

 private:
  void drainPipe();
  void closeExitFd();

  pid_t pid_ = -1;
  int stdoutFd_ = -1;
  int pidFd_ = -1;
  bool reaped_ = false;
  bool timedOut_ = false;
  int status_ = 0;
  double startSeconds_ = 0.0;
  std::string captured_;
};

/// Runs argv to completion under a wall-clock budget, SIGKILLing it past
/// the deadline. The synchronous path used by the batch supervisor.
[[nodiscard]] ChildOutcome runChild(const std::vector<std::string>& argv,
                                    double timeoutSeconds);

/// Retry policy shared by the supervisor and the service.
struct RetryPolicy {
  /// Attempts per job (first run + retries).
  int maxAttempts = 3;
  /// Sleep before retry n is backoffBaseSeconds * 2^(n-1).
  double backoffBaseSeconds = 0.5;
  /// Clean exit codes that are deterministic — bad flags, invalid
  /// parameters, exec failure — and therefore fail fast with no retry.
  std::vector<int> failFastExitCodes = {2, 127};
};

enum class RetryDecision {
  kSuccess,    ///< exit 0
  kRetry,      ///< crash / timeout / transient runtime failure
  kFailFast,   ///< deterministic validation failure; retrying cannot help
  kPreempted,  ///< stopped on request with a checkpoint; not a failure
};

[[nodiscard]] RetryDecision classifyOutcome(const ChildOutcome& outcome,
                                            const RetryPolicy& policy);

/// Backoff before attempt `nextAttempt` (2, 3, ...): base * 2^(n-2).
[[nodiscard]] double backoffSeconds(const RetryPolicy& policy,
                                    int nextAttempt);

/// Monotonic clock in seconds (steady, not wall time).
[[nodiscard]] double monotonicSeconds();

}  // namespace hdtn::service
