/// \file loadgen.cpp
/// \brief bench_e2e's client connection, load loops and statistics.

#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <exception>
#include <optional>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/error.hpp"

namespace adept::e2e {

// ------------------------------------------------------------- statistics --

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 1) return samples.front();
  // statistics.quantiles(method="exclusive"): position p·(n+1), 1-based,
  // with the lower index clamped to [1, n-1] (extrapolating at the ends
  // exactly as Python does).
  const double position = p * static_cast<double>(n + 1);
  const std::size_t j = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::floor(position)), 1, n - 1);
  const double fraction = position - static_cast<double>(j);
  return samples[j - 1] + (samples[j] - samples[j - 1]) * fraction;
}

double WindowResult::wall_s() const {
  return samples.empty() ? 0.0
                         : ms_between(start, samples.back().done) / 1000.0;
}

std::vector<double> WindowResult::latencies_ms() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& sample : samples) out.push_back(sample.latency_ms);
  return out;
}

BlockMedians block_medians(
    const WindowResult& window,
    const std::function<double(Clock::time_point, Clock::time_point)>& cpu_ms) {
  // Per block of `size`: its start is the previous block's last answer.
  auto per_block = [&](std::size_t size, auto&& stat) {
    std::vector<double> values;
    Clock::time_point begin = window.start;
    for (std::size_t first = 0; first + size <= window.samples.size();
         first += size) {
      const Clock::time_point end = window.samples[first + size - 1].done;
      std::vector<double> latencies;
      for (std::size_t k = first; k < first + size; ++k)
        latencies.push_back(window.samples[k].latency_ms);
      values.push_back(stat(begin, end, latencies));
      begin = end;
    }
    return values;
  };
  BlockMedians out;
  const auto size = static_cast<double>(kBlock);
  const std::vector<double> throughput = per_block(
      kBlock, [&](Clock::time_point begin, Clock::time_point end,
                  const std::vector<double>&) {
        return size / std::max(ms_between(begin, end) / 1000.0, 1e-9);
      });
  out.blocks = throughput.size();
  out.throughput_rps = quantile(throughput, 0.5);
  out.p50_ms = quantile(
      per_block(kBlock, [](Clock::time_point, Clock::time_point,
                           const std::vector<double>& latencies) {
        return quantile(latencies, 0.5);
      }),
      0.5);
  out.cpu_ms_per_req = quantile(
      per_block(kBlock, [&](Clock::time_point begin, Clock::time_point end,
                            const std::vector<double>&) {
        return cpu_ms(begin, end) / size;
      }),
      0.5);
  const std::vector<double> p99 = per_block(
      kP99Block, [](Clock::time_point, Clock::time_point,
                    const std::vector<double>& latencies) {
        return quantile(latencies, 0.99);
      });
  out.p99_blocks = p99.size();
  out.p99_ms = quantile(p99, 0.5);
  return out;
}

// ------------------------------------------------------------- connection --

LineConn::LineConn(const std::string& endpoint) {
  const std::size_t colon = endpoint.rfind(':');
  ADEPT_CHECK(colon != std::string::npos && colon > 0,
              "endpoint must be host:port, got '" + endpoint + "'");
  const std::string host = endpoint.substr(0, colon);
  const std::string port = endpoint.substr(colon + 1);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &addrs);
  ADEPT_CHECK(rc == 0, "cannot resolve '" + endpoint + "': " +
                           ::gai_strerror(rc));
  std::string reason = "no addresses";
  for (struct addrinfo* a = addrs; a != nullptr && fd_ < 0; a = a->ai_next) {
    const int sock = ::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                              a->ai_protocol);
    if (sock < 0) {
      reason = std::strerror(errno);
      continue;
    }
    if (::connect(sock, a->ai_addr, a->ai_addrlen) != 0) {
      reason = std::strerror(errno);
      ::close(sock);
      continue;
    }
    const int one = 1;
    ::setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = sock;
  }
  ::freeaddrinfo(addrs);
  ADEPT_CHECK(fd_ >= 0, "cannot connect to '" + endpoint + "': " + reason);
}

LineConn::LineConn(int fd) : fd_(fd) {}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

void LineConn::send(std::initializer_list<std::string_view> parts) {
  std::vector<struct iovec> iov;
  iov.reserve(parts.size());
  for (const std::string_view part : parts)
    if (!part.empty())
      iov.push_back({const_cast<char*>(part.data()), part.size()});
  std::size_t first = 0;
  while (first < iov.size()) {
    struct msghdr msg;
    std::memset(&msg, 0, sizeof msg);
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = iov.size() - first;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("send failed: ") + std::strerror(errno));
    }
    // Advance past what was written, possibly mid-part.
    std::size_t left = static_cast<std::size_t>(n);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < iov.size()) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
}

bool LineConn::read_line(std::string& line, double timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<long long>(timeout_ms * 1000.0));
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    scanned = buffer_.size();
    const double remaining = ms_between(Clock::now(), deadline);
    if (remaining <= 0.0) return false;
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(std::min(remaining, 1000.0))));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// ------------------------------------------------------------- load loops --

WindowResult run_closed_loop(
    std::size_t clients, std::size_t count,
    const std::function<std::string(std::size_t, std::size_t)>& exchange,
    const std::function<bool(std::size_t, const std::string&)>& check) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> samples(clients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < count; i = next++) {
        try {
          const Clock::time_point sent = Clock::now();
          const std::string response = exchange(c, i);
          const Clock::time_point received = Clock::now();
          if (check(i, response))
            samples[c].push_back({received, ms_between(sent, received)});
        } catch (const std::exception&) {
          break;  // the connection is in an unknown state
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Requests a stopped client never sent count as failed too.
  WindowResult out;
  out.start = start;
  out.attempted = count;
  for (std::size_t c = 0; c < clients; ++c)
    out.samples.insert(out.samples.end(), samples[c].begin(), samples[c].end());
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done < b.done; });
  out.failed = out.attempted - out.samples.size();
  return out;
}

WindowResult run_open_loop(
    const std::vector<LineConn*>& conns, double rate, std::size_t count,
    double drain_ms, const std::function<void(LineConn&, std::size_t)>& send,
    const std::function<bool(std::size_t, const std::string&)>& check) {
  const std::size_t lanes = conns.size();
  ADEPT_CHECK(lanes >= 1 && rate > 0.0, "open loop needs a connection and a rate");
  // Threads start before the first due instant, so request 0 is not late
  // by thread start-up.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(std::llround(
                       static_cast<double>(i) * 1e9 / rate));
  };
  std::vector<std::optional<Sample>> answers(count);
  std::vector<double> lag(count, -1.0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < lanes; ++c) {
    threads.emplace_back([&, c] {  // sender
      for (std::size_t i = c; i < count; i += lanes) {
        std::this_thread::sleep_until(due(i));
        lag[i] = ms_between(due(i), Clock::now());
        try {
          send(*conns[c], i);
        } catch (const std::exception&) {
          break;  // this lane's reader times out on the first unsent one
        }
      }
    });
    threads.emplace_back([&, c] {  // reader
      std::string line;
      for (std::size_t i = c; i < count; i += lanes) {
        const double timeout = ms_between(Clock::now(), due(i)) + drain_ms;
        if (!conns[c]->read_line(line, std::max(timeout, 1.0))) return;
        const Clock::time_point received = Clock::now();
        bool ok = false;
        try {
          ok = check(i, line);
        } catch (const std::exception&) {
          ok = false;
        }
        if (ok) answers[i] = Sample{received, ms_between(due(i), received)};
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  WindowResult out;
  out.start = start;
  out.attempted = count;
  for (std::size_t i = 0; i < count; ++i) {
    if (answers[i].has_value()) out.samples.push_back(*answers[i]);
    if (lag[i] >= 0.0) out.lag_ms.push_back(lag[i]);
  }
  // Lanes answer independently, so request order is not completion order.
  std::sort(out.samples.begin(), out.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done < b.done; });
  out.failed = out.attempted - out.samples.size();
  return out;
}

}  // namespace adept::e2e
