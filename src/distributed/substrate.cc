#include "distributed/substrate.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "distributed/worker.h"
#include "serve/framing.h"

namespace scoded::dist {

namespace {

// Shared plumbing: every backend ends up with one connected TcpConn and
// speaks serve frames over it. Only spawn and teardown differ.
class ConnChannel : public WorkerChannel {
 public:
  explicit ConnChannel(net::TcpConn conn) : conn_(std::move(conn)) {}

  Status Send(std::string_view payload) override {
    return serve::WriteFrame(conn_, payload);
  }

  Result<std::string> Receive(int deadline_millis) override {
    SCODED_RETURN_IF_ERROR(conn_.SetRecvTimeout(deadline_millis));
    return serve::ReadFrame(conn_);
  }

  // shutdown(), not close(): Kill() may race another thread blocked in
  // recv/send on this descriptor, and shutdown wakes it without freeing
  // the descriptor number for reuse. The destructor closes.
  void Kill() override {
    if (conn_.valid()) {
      ::shutdown(conn_.fd(), SHUT_RDWR);
    }
  }

  void Close() override { conn_.Close(); }

 protected:
  net::TcpConn conn_;
};

class InProcessChannel : public ConnChannel {
 public:
  InProcessChannel(net::TcpConn conn, net::TcpConn worker_end)
      : ConnChannel(std::move(conn)) {
    worker_ = std::thread([end = std::move(worker_end)]() mutable {
      ServeWorker(end);  // exits when the coordinator end closes
    });
  }

  ~InProcessChannel() override {
    conn_.Close();  // unblocks the worker's read
    if (worker_.joinable()) {
      worker_.join();
    }
  }

 private:
  std::thread worker_;
};

// A child process connected by some stream. Kill() is SIGKILL; destruction
// closes the stream (which makes a healthy worker exit), grants it a grace
// period, then escalates so a wedged worker can never leak past the
// coordinator's lifetime.
class ProcessChannel : public ConnChannel {
 public:
  ProcessChannel(net::TcpConn conn, pid_t pid) : ConnChannel(std::move(conn)), pid_(pid) {}

  ~ProcessChannel() override { Reap(); }

  void Kill() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
    }
    ConnChannel::Kill();
  }

  int64_t pid() const override { return pid_; }

 private:
  // Polls for the exit with a backoff that starts at 50 us and doubles up
  // to 50 ms: a worker dismissed with `shutdown` exits within a
  // millisecond or two and is reaped about as soon, while a wedged one
  // costs few polls over the grace period.
  void Reap() {
    if (pid_ <= 0) {
      return;
    }
    conn_.Close();
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    std::chrono::microseconds pause(50);
    while (true) {
      pid_t done = ::waitpid(pid_, nullptr, WNOHANG);
      if (done == pid_ || (done < 0 && errno == ECHILD)) {
        pid_ = -1;
        return;
      }
      if (Clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(pause);
      pause = std::min(2 * pause, std::chrono::microseconds(50000));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_;
};

// fork + exec of `program` with `args` plus `extra` appended. The child
// keeps exactly the descriptors the caller left inheritable; exec failure
// exits 127 (the shell convention), which the coordinator sees as the
// channel closing before any response.
Result<pid_t> SpawnProcess(const std::string& program, const std::vector<std::string>& args,
                           const std::vector<std::string>& extra) {
  std::vector<char*> argv;
  argv.reserve(args.size() + extra.size() + 2);
  argv.push_back(const_cast<char*>(program.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  for (const std::string& arg : extra) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    return InternalError("fork: " + ErrnoMessage(errno));
  }
  if (pid == 0) {
    ::execv(program.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

}  // namespace

Result<std::unique_ptr<WorkerChannel>> InProcessSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(auto pair, net::SocketPair());
  return std::unique_ptr<WorkerChannel>(
      new InProcessChannel(std::move(pair.first), std::move(pair.second)));
}

Result<std::unique_ptr<WorkerChannel>> ForkExecSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(auto pair, net::SocketPair());
  SCODED_ASSIGN_OR_RETURN(
      pid_t pid,
      SpawnProcess(program_, args_, {"--fd", std::to_string(pair.second.fd())}));
  pair.second.Close();  // the child holds its own reference now
  return std::unique_ptr<WorkerChannel>(new ProcessChannel(std::move(pair.first), pid));
}

Result<std::unique_ptr<WorkerChannel>> TcpSubstrate::Spawn(size_t) {
  SCODED_ASSIGN_OR_RETURN(net::TcpListener listener, net::TcpListener::Bind(0));
  SCODED_ASSIGN_OR_RETURN(
      pid_t pid,
      SpawnProcess(program_, args_, {"--connect-port", std::to_string(listener.port())}));
  Result<net::TcpConn> conn = listener.AcceptWithTimeout(accept_timeout_millis_);
  if (!conn.ok()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return UnavailableError("worker never connected: " + conn.status().ToString());
  }
  return std::unique_ptr<WorkerChannel>(new ProcessChannel(std::move(*conn), pid));
}

Result<std::string> SelfExePath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n < 0) {
    return InternalError("readlink /proc/self/exe: " + ErrnoMessage(errno));
  }
  return std::string(buf, static_cast<size_t>(n));
}

}  // namespace scoded::dist
