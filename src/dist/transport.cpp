/// \file transport.cpp
/// \brief In-process, pipe and socket worker transports.

#include "dist/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dist/stats.hpp"
// The workers speak the serve wire format; like planning_service.cpp's
// cache-key serializer, this is a deliberate .cpp-local upward reference
// into the io layer of the same static library.
#include "io/wire.hpp"
#include "model/evaluate.hpp"

namespace adept::dist {

namespace {

// ---------------------------------------------------------- shared framing --

/// A worker that dies mid-write must surface as an EPIPE/ECONNRESET
/// errno on the coordinator's write(), not as a process-killing SIGPIPE.
/// Both the pipe and socket transports arm this once per process.
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// Ships `line` + '\n' to `fd`, retrying EINTR and partial writes. Any
/// other error clears `alive` (the peer died under us) and returns
/// false.
bool send_framed_line(int fd, const std::string& line, bool& alive) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      alive = false;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// The shared receive loop of the pipe and socket workers. One absolute
/// deadline for the whole receive: every retry — poll() slices, EINTR on
/// poll() or read(), partial-line reads from a dribbling writer —
/// re-checks this instant; nothing restarts the budget, so a receive(t)
/// returns within ~t no matter how the bytes arrive. EOF and read errors
/// clear `alive`; a timeout leaves it set (the pool decides the peer is
/// hung and kills it).
bool receive_framed_line(int fd, std::string& buffer, std::string& line,
                         double timeout_ms, bool& alive) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<long long>(std::max(0.0, timeout_ms) * 1000.0));
  // Bytes before `scanned` hold no newline: each byte is searched once,
  // however many reads a long line takes.
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = buffer.find('\n', scanned);
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    scanned = buffer.size();
    if (!alive || fd < 0) return false;
    // Rounded up: a timeout reported before the deadline has passed
    // would let the caller treat a hung worker's job as still in budget.
    const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;  // timeout: hung worker
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<long long>(remaining.count(), 1000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      alive = false;
      return false;
    }
    if (ready == 0) continue;  // re-check the deadline
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      // A signal landing between poll() and read() is not a dead
      // worker; retry against the same absolute deadline.
      if (errno == EINTR) continue;
      alive = false;
      return false;
    }
    if (n == 0) {  // EOF: crash, exec failure, or a closed connection
      alive = false;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// ------------------------------------------------------------- in-process --

/// Answers serve-protocol lines by planning on the receiving thread.
class InProcessWorker final : public Worker {
 public:
  explicit InProcessWorker(const PlannerRegistry& registry)
      : registry_(registry) {}

  bool send(const std::string& line) final {
    if (!alive_) return false;
    inbox_.push_back(line);
    return true;
  }

  bool receive(std::string& line, double /*timeout_ms*/) final {
    if (!alive_ || inbox_.empty()) return false;
    const std::string request = std::move(inbox_.front());
    inbox_.pop_front();
    line = answer(request);
    return true;
  }

  bool alive() const final { return alive_; }
  void kill() final { alive_ = false; }

 private:
  /// Decodes `line` as the serve session does (io/serve.cpp): a plan line
  /// straight from its bytes, and every line that decoder declines
  /// through json::parse + wire::plan_line_from_json, whose error texts
  /// and id echo are the session's.
  std::string answer(const std::string& line) const {
    std::string out;
    json::Writer writer(out);
    json::Value id;
    std::optional<wire::PlanLine> decoded;
    try {
      decoded = wire::decode_plan_line(line);
      if (!decoded.has_value()) {
        const json::Value doc = json::parse(line);
        if (const json::Value* found = doc.find("id")) id = *found;
        if (const json::Value* cmd = doc.find("cmd")) {
          ADEPT_CHECK(cmd->as_string() == "stats",
                      "unknown command '" + cmd->as_string() + "'");
          writer.begin_object().key("id").value(id).key("ok").boolean(true);
          writer.key("stats").begin_object().end_object();
          writer.end_object();
          return out;
        }
        decoded = wire::plan_line_from_json(doc);
      }
    } catch (const std::exception& e) {
      writer.begin_object().key("id").value(id).key("ok").boolean(false);
      writer.key("error").string(e.what()).end_object();
      return out;
    }
    PlanRequest& request = decoded->request;
    if (decoded->budget_ms.has_value())
      request.options.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(
              static_cast<long long>(*decoded->budget_ms * 1000.0));
    PlannerRun run;
    run.planner = decoded->planner;
    const std::uint64_t evals_before = model::evaluations_on_this_thread();
    const auto start = std::chrono::steady_clock::now();
    try {
      run.result = registry_.at(run.planner).plan(request);
      run.ok = true;
    } catch (const std::exception& e) {
      run.error = e.what();
      if (request.options.should_stop()) run.skipped = true;
    }
    run.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    run.evaluations = model::evaluations_on_this_thread() - evals_before;
    writer.begin_object().key("id").value(decoded->id);
    writer.key("ok").boolean(run.ok);
    if (!run.ok) writer.key("error").string(run.error);
    writer.key("run");
    wire::write(writer, run);
    writer.end_object();
    return out;
  }

  const PlannerRegistry& registry_;
  std::deque<std::string> inbox_;
  bool alive_ = true;
};

// ------------------------------------------------------------------- pipes --

/// One fork/exec'd subprocess with piped stdin/stdout.
class PipeWorker final : public Worker {
 public:
  explicit PipeWorker(const std::vector<std::string>& argv) {
    int to_child[2];    // parent writes → child stdin
    int from_child[2];  // child stdout → parent reads
    ADEPT_CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
                "cannot create worker pipes: " +
                    std::string(std::strerror(errno)));
    pid_ = ::fork();
    ADEPT_CHECK(pid_ >= 0,
                "cannot fork worker: " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      // Child: wire the pipes to stdio and exec. Only async-signal-safe
      // calls between fork and exec (the parent may be multithreaded).
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> args;
      args.reserve(argv.size() + 1);
      for (const std::string& arg : argv)
        args.push_back(const_cast<char*>(arg.c_str()));
      args.push_back(nullptr);
      ::execvp(args[0], args.data());
      ::_exit(127);  // exec failed; the parent sees EOF on first receive
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    // Keep the fds out of any worker this process forks later.
    ::fcntl(in_fd_, F_SETFD, FD_CLOEXEC);
    ::fcntl(out_fd_, F_SETFD, FD_CLOEXEC);
  }

  ~PipeWorker() final { shutdown(); }

  bool send(const std::string& line) final {
    if (!alive_ || in_fd_ < 0) return false;
    return send_framed_line(in_fd_, line, alive_);
  }

  bool receive(std::string& line, double timeout_ms) final {
    return receive_framed_line(out_fd_, buffer_, line, timeout_ms, alive_);
  }

  bool alive() const final { return alive_; }

  void kill() final {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    alive_ = false;
  }

 private:
  /// Supervised shutdown: close stdin (serve quits on EOF), give the
  /// worker a bounded grace period, then SIGKILL; always reaps.
  void shutdown() {
    if (in_fd_ >= 0) {
      ::close(in_fd_);
      in_fd_ = -1;
    }
    if (pid_ > 0) {
      bool reaped = false;
      // Only a healthy worker earns the grace period — a failed one is
      // wedged or already dead, so go straight to SIGKILL.
      const int grace_rounds = alive_ ? 40 : 0;
      for (int round = 0; round < grace_rounds && !reaped; ++round) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) reaped = true;
        if (!reaped)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
    alive_ = false;
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool alive_ = true;
};

// ----------------------------------------------------------------- sockets --

/// Splits "host:port" on the *last* ':' (leaves IPv6-style hosts with
/// embedded colons intact). Throws on a missing or empty part.
void split_endpoint(const std::string& endpoint, std::string& host,
                    std::string& port) {
  const std::size_t colon = endpoint.rfind(':');
  ADEPT_CHECK(colon != std::string::npos && colon > 0 &&
                  colon + 1 < endpoint.size(),
              "socket endpoint must be host:port, got '" + endpoint + "'");
  host = endpoint.substr(0, colon);
  port = endpoint.substr(colon + 1);
}

/// Connects to `endpoint` under one absolute deadline shared across all
/// resolved addresses: non-blocking connect, then poll(POLLOUT) in
/// EINTR-retried slices, then SO_ERROR — the connect-side twin of the
/// receive discipline above. Returns a blocking, TCP_NODELAY, CLOEXEC
/// fd; throws adept::Error on failure (counted in
/// dist.socket.connect_failures).
int connect_with_deadline(const std::string& endpoint, double timeout_ms) {
  std::string host;
  std::string port;
  split_endpoint(endpoint, host, port);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<long long>(std::max(0.0, timeout_ms) * 1000.0));
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &addrs);
  if (rc != 0) {
    ++detail::counters().socket_connect_failures;
    throw Error("cannot resolve serve endpoint '" + endpoint +
                "': " + ::gai_strerror(rc));
  }
  std::string reason = "no addresses";
  int fd = -1;
  for (struct addrinfo* a = addrs; a != nullptr && fd < 0; a = a->ai_next) {
    const int sock = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                              a->ai_protocol);
    if (sock < 0) {
      reason = std::strerror(errno);
      continue;
    }
    const int flags = ::fcntl(sock, F_GETFL, 0);
    ::fcntl(sock, F_SETFL, flags | O_NONBLOCK);
    int err = 0;
    if (::connect(sock, a->ai_addr, a->ai_addrlen) == 0) {
      // Loopback connects often complete synchronously.
    } else if (errno != EINPROGRESS) {
      err = errno;
    } else {
      // In progress: wait for writability under the absolute deadline.
      for (;;) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) {
          err = ETIMEDOUT;
          break;
        }
        struct pollfd pfd;
        pfd.fd = sock;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        const int ready = ::poll(
            &pfd, 1,
            static_cast<int>(std::min<long long>(remaining.count(), 1000)));
        if (ready < 0) {
          if (errno == EINTR) continue;
          err = errno;
          break;
        }
        if (ready == 0) continue;  // re-check the deadline
        socklen_t len = sizeof err;
        if (::getsockopt(sock, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
          err = errno;
        break;
      }
    }
    if (err != 0) {
      reason = std::strerror(err);
      ::close(sock);
      continue;
    }
    ::fcntl(sock, F_SETFL, flags);  // back to blocking for send()
    const int one = 1;
    ::setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd = sock;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    ++detail::counters().socket_connect_failures;
    throw Error("cannot connect to serve endpoint '" + endpoint +
                "': " + reason);
  }
  ++detail::counters().socket_connects;
  return fd;
}

/// One TCP connection to an `adept serve --listen` session.
class SocketWorker final : public Worker {
 public:
  SocketWorker(const std::string& endpoint, double connect_timeout_ms)
      : fd_(connect_with_deadline(endpoint, connect_timeout_ms)) {}

  ~SocketWorker() final {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send(const std::string& line) final {
    if (!alive_ || fd_ < 0) return false;
    return send_framed_line(fd_, line, alive_);
  }

  bool receive(std::string& line, double timeout_ms) final {
    return receive_framed_line(fd_, buffer_, line, timeout_ms, alive_);
  }

  bool alive() const final { return alive_; }

  void kill() final {
    // No subprocess to signal: severing the connection both ways is the
    // hard kill (the serve session ends on EOF). The fd itself stays
    // open until destruction so a concurrent receive() never touches a
    // recycled descriptor.
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    alive_ = false;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  bool alive_ = true;
};

}  // namespace

std::unique_ptr<Worker> InProcessTransport::spawn() {
  ++detail::counters().workers_spawned;
  return std::make_unique<InProcessWorker>(registry_);
}

PipeTransport::PipeTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
  ADEPT_CHECK(!argv_.empty() && !argv_[0].empty(),
              "pipe transport needs a worker command");
  ignore_sigpipe_once();
}

std::unique_ptr<Worker> PipeTransport::spawn() {
  auto worker = std::make_unique<PipeWorker>(argv_);
  ++detail::counters().workers_spawned;
  return worker;
}

SocketTransport::SocketTransport(std::vector<std::string> endpoints,
                                 double connect_timeout_ms)
    : endpoints_(std::move(endpoints)),
      connect_timeout_ms_(connect_timeout_ms) {
  ADEPT_CHECK(!endpoints_.empty(),
              "socket transport needs at least one endpoint");
  for (const std::string& endpoint : endpoints_) {
    std::string host;
    std::string port;
    split_endpoint(endpoint, host, port);  // fail fast on malformed input
  }
  ignore_sigpipe_once();
}

std::unique_ptr<Worker> SocketTransport::spawn() {
  static obs::Histogram& connect_ms =
      obs::MetricsRegistry::process().histogram("dist.socket.connect_ms");
  const std::string& endpoint = endpoints_[next_++ % endpoints_.size()];
  const auto start = std::chrono::steady_clock::now();
  auto worker =
      std::make_unique<SocketWorker>(endpoint, connect_timeout_ms_);
  connect_ms.record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  ++detail::counters().workers_spawned;
  return worker;
}

ServeListener::ServeListener(std::vector<std::string> argv,
                             double announce_timeout_ms) {
  ADEPT_CHECK(!argv.empty() && !argv[0].empty(),
              "serve listener needs a command");
  ignore_sigpipe_once();
  int from_child[2];  // child stdout → parent reads the announce line
  ADEPT_CHECK(::pipe(from_child) == 0,
              "cannot create listener pipe: " +
                  std::string(std::strerror(errno)));
  pid_ = ::fork();
  ADEPT_CHECK(pid_ >= 0,
              "cannot fork listener: " + std::string(std::strerror(errno)));
  if (pid_ == 0) {
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv)
      args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execvp(args[0], args.data());
    ::_exit(127);
  }
  ::close(from_child[1]);
  out_fd_ = from_child[0];
  ::fcntl(out_fd_, F_SETFD, FD_CLOEXEC);
  // Wait for the "listening on <host:port>" announce under the pipe
  // receive discipline; anything else (EOF, timeout, garbage) is a
  // spawn failure.
  std::string buffer;
  std::string line;
  bool alive = true;
  const bool announced = receive_framed_line(out_fd_, buffer, line,
                                             announce_timeout_ms, alive);
  const std::string prefix = "listening on ";
  if (!announced || line.rfind(prefix, 0) != 0) {
    kill_now();
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    throw Error("serve listener did not announce an endpoint" +
                (line.empty() ? std::string()
                              : " (got '" + line + "')"));
  }
  endpoint_ = line.substr(prefix.size());
}

ServeListener::~ServeListener() {
  kill_now();
  if (pid_ > 0) {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void ServeListener::kill_now() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

std::vector<std::string> self_serve_command(std::size_t jobs) {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof path - 1);
  ADEPT_CHECK(n > 0, "cannot resolve /proc/self/exe for worker spawning");
  path[n] = '\0';
  return {std::string(path), "serve", "--jobs", std::to_string(jobs),
          "--cache", "0"};
}

std::vector<std::string> self_serve_listen_command(std::size_t jobs,
                                                   std::size_t max_sessions) {
  std::vector<std::string> argv = self_serve_command(jobs);
  argv.push_back("--listen");
  argv.push_back("127.0.0.1:0");
  if (max_sessions > 0) {
    argv.push_back("--max-sessions");
    argv.push_back(std::to_string(max_sessions));
  }
  return argv;
}

}  // namespace adept::dist
