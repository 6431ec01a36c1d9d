// Crash-tolerant sweep supervision.
//
// A supervised sweep (bench --supervise) runs every (x, protocol, seed)
// point of a figure in a child process — the bench binary re-executing
// itself with --point=KEY — under a wall-clock timeout. A crashed or hung
// point is retried with exponential backoff up to a bounded attempt budget,
// and because each point periodically checkpoints its engine (see
// src/core/checkpoint.hpp), a retry resumes from the last checkpoint
// instead of recomputing the whole run. Points are jobs in the sweep
// service's durable queue (src/service/queue.hpp), kept in the --supervise
// directory with the point checkpoints, so re-invoking the same sweep after
// a supervisor crash skips straight past every point already done and
// resumes the one that was running. See docs/CHECKPOINT.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/engine.hpp"
#include "src/service/queue.hpp"
#include "src/trace/contact_trace.hpp"
#include "src/util/types.hpp"

namespace hdtn::bench {

struct SupervisorOptions {
  /// Wall-clock budget per child attempt; the child is SIGKILLed past it.
  double pointTimeoutSeconds = 600.0;
  /// Attempts per point (first run + retries), counted across supervisor
  /// invocations: an attempt a killed supervisor interrupted stays counted.
  int maxAttempts = 3;
  /// Sleep before retry n is backoffBaseSeconds * 2^(n-2).
  double backoffBaseSeconds = 0.5;
};

/// "RESULT KEY v1 v2 ...\n" — the line a --point child prints on success;
/// the supervisor greps the captured stdout for it.
[[nodiscard]] std::string formatResultLine(const std::string& key,
                                           const std::vector<double>& values);

/// Finds and parses the RESULT line for `key` in a child's output. Returns
/// false when the line is absent or malformed (crashed children usually die
/// before printing it).
[[nodiscard]] bool parseResultLine(const std::string& output,
                                   const std::string& key,
                                   std::vector<double>* values);

/// Supervises one sweep point end to end as the job named `key` in `queue`.
/// A done job returns its recorded values without running anything.
/// Otherwise `childArgv` is attempted until the job's attempt count reaches
/// options.maxAttempts, under the timeout, with exponential backoff between
/// attempts. Exit causes are classified the same way the sweep service
/// classifies them (service::classifyOutcome): crashes and timeouts retry —
/// resuming from the point's checkpoint — while clean validation failures
/// (exit 2, exec failure 127) are deterministic and fail fast without
/// burning the retry budget. Before the final attempt the point's checkpoint
/// file is deleted, so a checkpoint the child itself cannot load (or that
/// keeps crashing it) cannot wedge the point forever. On success the values
/// (printed %.17g) become the job's result. Returns nullopt (with *error
/// set) on fail-fast or when the attempt budget is exhausted; the job is
/// then failed, and the next invocation submits the point afresh.
[[nodiscard]] std::optional<std::vector<double>> superviseOnePoint(
    const SupervisorOptions& options, service::WorkQueue& queue,
    const std::string& key, const std::vector<std::string>& childArgv,
    const std::string& checkpointPath, std::string* error);

/// One axis of a supervised sweep's point space ("xi" over the x values,
/// "pi" over the protocols, ...).
struct SweepAxis {
  const char* name;
  std::size_t size;
};

/// Parses a --point key "<figure>:<i1>:...:<iN>:<seed>" with one index per
/// axis. Returns the indices followed by the (1-based) seed; on a malformed
/// or out-of-range key prints why to stderr and returns nullopt.
[[nodiscard]] std::optional<std::vector<std::size_t>> parsePointKey(
    const std::string& key, const std::string& figure,
    const std::vector<SweepAxis>& axes);

/// Parent mode of a supervised sweep (--supervise): opens the queue in the
/// directory common.superviseJournal (replay problems are printed as
/// "journal replay:" lines), then runs every point (axes in order, seeds
/// 1..seeds last) in a child process under superviseOnePoint — the child is
/// `selfPath --point=KEY` with its own checkpoint file in that directory —
/// and prints one progress line per point, "(journaled)" for points the
/// queue already held done. Each point's values go to `store` with the
/// point's task index (row-major, seed last). Returns false when a point
/// fails or returns fewer than `minValues` values.
[[nodiscard]] bool runSupervisedSweep(
    const CommonArgs& common, const char* selfPath, const std::string& figure,
    const std::vector<SweepAxis>& axes, int seeds, std::size_t minValues,
    const std::function<void(std::size_t task,
                             const std::vector<double>& values)>& store);

/// Runs one engine to completion, checkpointing to `path` every `every`
/// simulation seconds and resuming from `path` when it holds a loadable
/// checkpoint (an unreadable one is deleted and the run starts cold — the
/// supervisor's retry already paid for the restart). This is what a
/// --point child executes.
[[nodiscard]] core::EngineResult runWithCheckpoints(
    const trace::ContactTrace& trace, const core::EngineParams& params,
    const std::string& path, Duration every);

}  // namespace hdtn::bench
