#ifndef SCODED_DISTRIBUTED_SUBSTRATE_H_
#define SCODED_DISTRIBUTED_SUBSTRATE_H_

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/net.h"
#include "common/result.h"

namespace scoded::dist {

/// One live worker connection, whatever carries it. The coordinator talks
/// to every worker through this interface only, so the in-process, local
/// fork/exec, and TCP backends are interchangeable — and tests can wrap a
/// channel to inject faults (dropped responses, truncated frames, stalls)
/// without a real process dying.
///
/// All payloads are framed exactly like the serve protocol (4-byte
/// big-endian length prefix + JSON, serve/framing.h), so the error
/// taxonomy matches: a dead worker surfaces as kUnavailable (clean close)
/// or kDataLoss (mid-frame), a stalled one as kDeadlineExceeded.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  /// Sends one framed request.
  virtual Status Send(std::string_view payload) = 0;

  /// Receives one framed response, failing with kDeadlineExceeded when the
  /// worker produces no bytes for `deadline_millis` (0 waits forever).
  virtual Result<std::string> Receive(int deadline_millis) = 0;

  /// Forcibly tears the worker down (SIGKILL for process-backed workers,
  /// connection close for in-process ones). Idempotent; the channel only
  /// fails afterwards.
  virtual void Kill() = 0;

  /// Closes the coordinator's end without waiting for the worker, which
  /// reads end-of-input and exits; destruction then reaps it. Lets a
  /// caller close a whole fleet before waiting on any member. The default
  /// does nothing and leaves the close to the destructor.
  virtual void Close() {}

  /// OS process id of the worker, or -1 when it is not its own process.
  virtual int64_t pid() const { return -1; }
};

/// Factory for worker channels. Spawn is called once per requested worker
/// before any dispatch; a failed spawn fails the whole run (a worker dying
/// *later* is retried, but a substrate that cannot start is a
/// configuration error, not a fault).
class Substrate {
 public:
  virtual ~Substrate() = default;
  virtual Result<std::unique_ptr<WorkerChannel>> Spawn(size_t worker_index) = 0;
};

/// Workers as plain threads in this process, connected over a socketpair.
/// The zero-setup backend: unit tests exercise the full coordinator —
/// framing, codec, retry — with no second binary.
class InProcessSubstrate : public Substrate {
 public:
  Result<std::unique_ptr<WorkerChannel>> Spawn(size_t worker_index) override;
};

/// Workers as fork+exec'd child processes (normally this same binary with
/// a `worker --fd N` command line), connected over an inherited
/// socketpair. Each child owns its address space, so per-worker peak RSS
/// is a real, separately accountable number.
class ForkExecSubstrate : public Substrate {
 public:
  /// `program` is exec'd with `args` plus "--fd <n>" appended.
  ForkExecSubstrate(std::string program, std::vector<std::string> args)
      : program_(std::move(program)), args_(std::move(args)) {}

  Result<std::unique_ptr<WorkerChannel>> Spawn(size_t worker_index) override;

 private:
  std::string program_;
  std::vector<std::string> args_;
};

/// Workers as fork+exec'd child processes that dial back over loopback
/// TCP: the coordinator binds an ephemeral port per worker, passes it via
/// "--connect-port <p>", and accepts exactly one connection. Same wire
/// bytes as the socketpair transports; what changes is only that the
/// stream crosses a real TCP socket (and could cross machines once spawn
/// is remote).
class TcpSubstrate : public Substrate {
 public:
  TcpSubstrate(std::string program, std::vector<std::string> args,
               int accept_timeout_millis = 30000)
      : program_(std::move(program)),
        args_(std::move(args)),
        accept_timeout_millis_(accept_timeout_millis) {}

  Result<std::unique_ptr<WorkerChannel>> Spawn(size_t worker_index) override;

 private:
  std::string program_;
  std::vector<std::string> args_;
  int accept_timeout_millis_;
};

/// Absolute path of the running executable (/proc/self/exe) — the program
/// the CLI hands to the process-backed substrates so workers run the same
/// build as the coordinator.
Result<std::string> SelfExePath();

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_SUBSTRATE_H_
