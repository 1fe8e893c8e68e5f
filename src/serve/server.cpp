#include "serve/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bigint/zp.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "net/frame.hpp"
#include "obs/flight_recorder.hpp"
#include "problems/problems.hpp"
#include "serve/canonical.hpp"

namespace gbd {

namespace {

/// Milliseconds between I/O-loop ticks: deadline reaping and the kRunning
/// heartbeat to subscribed clients.
constexpr int kTickMs = 25;

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::vector<std::uint8_t> make_frame(FrameType type, Writer&& w) {
  Frame f;
  f.type = type;
  f.payload = w.take();
  return encode_frame(f);
}

}  // namespace

struct JobServer::Impl {
  /// One client connection. Owned and touched by the I/O thread only.
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    FrameDecoder dec;
    std::vector<std::uint8_t> outbuf;
    std::size_t outpos = 0;
    /// Admitted tokens still awaiting their single kJobResult.
    std::unordered_set<std::uint64_t> live;
    bool dead = false;

    explicit Conn(std::uint32_t max_payload) : dec(max_payload) {}
  };

  /// A worker-produced message waiting for the I/O thread to route it.
  struct Outgoing {
    std::uint64_t conn_id = 0;
    std::uint64_t token = 0;
    bool is_result = false;  ///< results consume the live token; events just check it
    std::vector<std::uint8_t> bytes;
  };

  explicit Impl(ServerConfig c)
      : cfg(std::move(c)), jm(cfg.queue_capacity, cfg.start_paused), cache(cfg.cache_capacity) {}

  ServerConfig cfg;
  JobManager jm;
  ResultCache cache;

  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  int wake_rd = -1, wake_wr = -1;
  std::thread io_thread;
  std::vector<std::thread> worker_threads;
  std::atomic<bool> stopping{false};
  bool started = false;
  std::atomic<bool> paused{false};
  /// Submissions refused before reaching the queue (parse/validation).
  std::atomic<std::uint64_t> early_rejects{0};

  std::mutex out_mu;
  std::deque<Outgoing> outgoing;

  // I/O-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  std::atomic<std::uint64_t> next_job_id{1};

  // ---- lifecycle ----------------------------------------------------------

  bool start(std::string* err) {
    if (cfg.workers == 0) {
      if (err) *err = "workers must be at least 1";
      return false;
    }
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      if (err) *err = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
      if (err) *err = "bad host: " + cfg.host;
      close_fds();
      return false;
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd, 128) != 0) {
      if (err) *err = "bind/listen: " + std::string(std::strerror(errno));
      close_fds();
      return false;
    }
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    bound_port = ntohs(addr.sin_port);
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      if (err) *err = "pipe: " + std::string(std::strerror(errno));
      close_fds();
      return false;
    }
    wake_rd = pipefd[0];
    wake_wr = pipefd[1];
    set_nonblocking(listen_fd);
    set_nonblocking(wake_rd);
    set_nonblocking(wake_wr);

    if (!cfg.flight_path.empty()) {
      FlightRecorder::instance().arm(cfg.flight_path, /*rank=*/0,
                                     static_cast<const Tracer*>(nullptr),
                                     static_cast<const Telemetry*>(nullptr));
    }

    paused.store(cfg.start_paused);
    started = true;
    io_thread = std::thread([this] { io_loop(); });
    worker_threads.reserve(cfg.workers);
    for (std::uint32_t i = 0; i < cfg.workers; ++i)
      worker_threads.emplace_back([this, i] { worker_loop(static_cast<int>(i)); });
    return true;
  }

  void stop() {
    if (!started) return;
    started = false;
    stopping.store(true);
    // Close the queue first so no worker picks up another job, then stop
    // whatever is running; every running job honours its stop flag.
    jm.shutdown();
    for (const JobPtr& j : jm.running_jobs()) j->raise_stop(1);
    for (std::thread& t : worker_threads) t.join();
    worker_threads.clear();
    wake();
    if (io_thread.joinable()) io_thread.join();
    for (auto& [id, c] : conns) ::close(c->fd);
    conns.clear();
    close_fds();
  }

  void close_fds() {
    for (int* fd : {&listen_fd, &wake_rd, &wake_wr}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  void wake() {
    if (wake_wr < 0) return;
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_wr, &b, 1);
  }

  // ---- I/O thread ---------------------------------------------------------

  void io_loop() {
    std::uint64_t last_tick = 0;
    while (!stopping.load()) {
      std::vector<pollfd> fds;
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_rd, POLLIN, 0});
      std::vector<Conn*> order;
      for (auto& [id, c] : conns) {
        short ev = POLLIN;
        if (c->outpos < c->outbuf.size()) ev |= POLLOUT;
        fds.push_back({c->fd, ev, 0});
        order.push_back(c.get());
      }
      ::poll(fds.data(), fds.size(), kTickMs);
      if (stopping.load()) break;

      if (fds[1].revents & POLLIN) {
        char buf[256];
        while (::read(wake_rd, buf, sizeof buf) > 0) {
        }
      }
      if (fds[0].revents & POLLIN) accept_new();
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(*order[i]);
      }

      std::uint64_t now = steady_ms();
      if (now - last_tick >= static_cast<std::uint64_t>(kTickMs)) {
        last_tick = now;
        reap(now);
        heartbeat();
      }
      drain_outgoing();
      for (auto& [id, c] : conns) {
        if (!c->dead) flush_conn(*c);
      }
      for (auto it = conns.begin(); it != conns.end();) {
        if (it->second->dead) {
          abandon_jobs(*it->second);
          ::close(it->second->fd);
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void accept_new() {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto c = std::make_unique<Conn>(cfg.max_payload);
      c->id = next_conn_id++;
      c->fd = fd;
      conns.emplace(c->id, std::move(c));
    }
  }

  void read_conn(Conn& c) {
    std::uint8_t buf[65536];
    for (;;) {
      ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.dec.feed(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof buf)) break;
      } else if (n == 0) {
        c.dead = true;
        break;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        c.dead = true;
        break;
      }
    }
    Frame f;
    while (!c.dead) {
      FrameDecoder::Status st = c.dec.next(&f);
      if (st == FrameDecoder::Status::kNeedMore) break;
      if (st == FrameDecoder::Status::kError) {
        c.dead = true;  // hostile or corrupt stream: drop, never crash
        break;
      }
      handle_frame(c, f);
    }
  }

  void flush_conn(Conn& c) {
    while (c.outpos < c.outbuf.size()) {
      ssize_t n = ::send(c.fd, c.outbuf.data() + c.outpos, c.outbuf.size() - c.outpos,
                         MSG_NOSIGNAL);
      if (n > 0) {
        c.outpos += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        c.dead = true;
        return;
      }
    }
    if (c.outpos == c.outbuf.size()) {
      c.outbuf.clear();
      c.outpos = 0;
    }
  }

  void send_bytes(Conn& c, std::vector<std::uint8_t> bytes) {
    c.outbuf.insert(c.outbuf.end(), bytes.begin(), bytes.end());
  }

  /// A dropped client's jobs: cancel queued ones silently, stop running ones
  /// (their results will find no live token and be discarded).
  void abandon_jobs(Conn& c) {
    std::uint64_t now = steady_ms();
    for (std::uint64_t token : c.live) {
      if (JobPtr j = jm.take_queued(c.id, token)) {
        jm.finish(j, JobState::kCancelled, now);
      } else if (JobPtr j2 = jm.find_running(c.id, token)) {
        j2->raise_stop(1);
      }
    }
    c.live.clear();
  }

  // ---- frame handling (I/O thread) ----------------------------------------

  void handle_frame(Conn& c, const Frame& f) {
    switch (f.type) {
      case FrameType::kJobSubmit: handle_submit(c, f); break;
      case FrameType::kJobCancel: handle_cancel(c, f); break;
      case FrameType::kServerStats: {
        Writer w;
        stats_msg().encode(w);
        send_bytes(c, make_frame(FrameType::kServerStats, std::move(w)));
        break;
      }
      default:
        c.dead = true;  // clients have no business sending rank-to-rank types
        break;
    }
  }

  void handle_submit(Conn& c, const Frame& f) {
    SubmitRequest req;
    SafeReader r(f.payload.data(), f.payload.size());
    if (!SubmitRequest::decode(r, &req)) {
      c.dead = true;
      return;
    }
    if (c.live.count(req.token)) {
      c.dead = true;  // token reuse breaks the one-result-per-token contract
      return;
    }
    auto reject = [&](std::string why) {
      early_rejects.fetch_add(1);
      JobResultMsg m;
      m.token = req.token;
      m.status = JobState::kRejected;
      m.error = std::move(why);
      Writer w;
      m.encode(w);
      send_bytes(c, make_frame(FrameType::kJobResult, std::move(w)));
    };

    PolySystem sys;
    if (req.source == 1) {
      if (!has_problem(req.problem)) return reject("unknown problem: " + req.problem);
      sys = load_problem(req.problem);
    } else {
      std::string perr;
      if (!parse_system(req.problem, &sys, &perr)) return reject("parse error: " + perr);
    }
    if (sys.ctx.nvars() > cfg.max_vars)
      return reject("too many variables (limit " + std::to_string(cfg.max_vars) + ")");
    if (sys.polys.size() > cfg.max_generators)
      return reject("too many generators (limit " + std::to_string(cfg.max_generators) + ")");
    if (req.zp_prime != 0 &&
        (req.zp_prime < 3 || req.zp_prime >= (std::uint64_t(1) << 62) || (req.zp_prime & 1) == 0 ||
         !is_prime_u64(req.zp_prime)))
      return reject("zp modulus must be an odd prime in [3, 2^62)");

    JobPtr job = std::make_shared<Job>();
    job->id = next_job_id.fetch_add(1);
    job->conn_id = c.id;
    job->req = req;
    job->sys = std::move(sys);
    job->canon = canonicalize(job->sys);
    job->cache_key = ResultCache::make_key(job->canon.key, req.zp_prime);
    job->submit_ms = steady_ms();
    std::uint64_t rel = req.deadline_ms != 0 ? req.deadline_ms : cfg.default_deadline_ms;
    job->deadline_ms = rel != 0 ? job->submit_ms + rel : 0;
    job->result.token = req.token;
    job->result.job_id = job->id;

    if (!jm.submit(job)) return reject("queue full");
    c.live.insert(req.token);
    if (req.subscribe) post_event(job, JobState::kQueued, "admitted");
  }

  void handle_cancel(Conn& c, const Frame& f) {
    SafeReader r(f.payload.data(), f.payload.size());
    std::uint64_t token = r.u64();
    if (!r.done()) {
      c.dead = true;
      return;
    }
    if (!c.live.count(token)) return;  // unknown or already terminal: ignore
    if (JobPtr j = jm.take_queued(c.id, token)) {
      j->result.error = "cancelled while queued";
      finish_job(j, JobState::kCancelled);
    } else if (JobPtr j2 = jm.find_running(c.id, token)) {
      j2->raise_stop(1);  // the worker emits the terminal result
    }
  }

  void reap(std::uint64_t now) {
    for (JobPtr& j : jm.expire(now)) {
      j->result.error = "deadline expired in queue";
      finish_job(j, JobState::kTimedOut);
    }
  }

  void heartbeat() {
    for (const JobPtr& j : jm.running_jobs()) {
      if (j->req.subscribe) post_event(j, JobState::kRunning, "");
    }
  }

  void drain_outgoing() {
    std::deque<Outgoing> q;
    {
      std::lock_guard<std::mutex> lock(out_mu);
      q.swap(outgoing);
    }
    for (Outgoing& o : q) {
      auto it = conns.find(o.conn_id);
      if (it == conns.end() || it->second->dead) continue;
      Conn& c = *it->second;
      if (o.is_result) {
        if (c.live.erase(o.token) == 0) continue;  // exactly-once guard
      } else if (c.live.count(o.token) == 0) {
        continue;  // token already terminal: suppress stale events
      }
      send_bytes(c, std::move(o.bytes));
    }
  }

  // ---- job execution (worker threads) -------------------------------------

  void worker_loop(int widx) {
    for (;;) {
      JobPtr job = jm.pop();
      if (job == nullptr) return;
      execute(widx, job);
    }
  }

  void execute(int widx, const JobPtr& job) {
    job->start_ms = steady_ms();
    if (job->req.subscribe)
      post_event(job, JobState::kRunning, "worker " + std::to_string(widx));

    try {
      CacheEntry hit;
      if (cache.lookup(job->cache_key, job->req.want_cert, &hit)) {
        job->result.cache_hit = true;
        job->result.spolys = hit.spolys;
        job->result.basis_added = hit.basis_added;
        job->result.cert = job->req.want_cert ? 1 : 0;
        render_basis(job, hit.basis);
        finish_job(job, JobState::kDone);
        return;
      }

      GbConfig gb;
      gb.stop = &job->stop;
      gb.coeff = job->req.zp_prime != 0 ? CoeffOptions::zp(job->req.zp_prime)
                                        : CoeffOptions::exact();
      SequentialResult res = groebner_sequential(job->canon.sys, gb);

      if (res.aborted) {
        std::uint8_t reason = job->stop_reason.load();
        job->result.error = reason == 1 ? "cancelled" : "deadline expired while running";
        finish_job(job, reason == 1 ? JobState::kCancelled
                                    : reason == 2 ? JobState::kTimedOut : JobState::kFailed);
        return;
      }

      job->result.spolys = res.stats.spolys_computed;
      job->result.basis_added = res.stats.basis_added;
      bool verified = false;
      if (job->req.want_cert) {
        std::string why;
        verified = verify_groebner_result(job->canon.sys.ctx, job->canon.sys.polys, res.basis,
                                          &why, gb.coeff);
        if (!verified) {
          job->result.cert = 2;
          job->result.error = "certificate failed: " + why;
          finish_job(job, JobState::kFailed);
          return;
        }
        job->result.cert = 1;
      }
      render_basis(job, res.basis);
      CacheEntry entry;
      entry.basis = std::move(res.basis);
      entry.spolys = res.stats.spolys_computed;
      entry.basis_added = res.stats.basis_added;
      entry.verified = verified;
      cache.insert(job->cache_key, std::move(entry));
      finish_job(job, JobState::kDone);
    } catch (const std::exception& e) {
      job->result.error = e.what();
      finish_job(job, JobState::kFailed);
    }
  }

  void render_basis(const JobPtr& job, const std::vector<Polynomial>& basis) {
    job->result.basis.clear();
    job->result.basis.reserve(basis.size());
    for (const Polynomial& p : basis) job->result.basis.push_back(p.to_string(job->sys.ctx));
  }

  /// Terminal transition: record stats, stamp latencies, ship the single
  /// result. Callable from workers and from the I/O thread (queued-job
  /// cancellation/expiry, where start_ms is still zero).
  void finish_job(const JobPtr& job, JobState st) {
    std::uint64_t now = steady_ms();
    std::uint64_t started = job->start_ms != 0 ? job->start_ms : now;
    job->result.status = st;
    job->result.queue_wait_ms = started - job->submit_ms;
    job->result.exec_ms = now >= started ? now - started : 0;
    jm.finish(job, st, now);
    Writer w;
    job->result.encode(w);
    enqueue_out(job->conn_id, job->req.token, true, make_frame(FrameType::kJobResult, std::move(w)));
  }

  void post_event(const JobPtr& job, JobState st, std::string note) {
    JobEventMsg e;
    e.token = job->req.token;
    e.job_id = job->id;
    e.state = st;
    e.queue_depth = static_cast<std::uint32_t>(jm.depth());
    e.note = std::move(note);
    Writer w;
    e.encode(w);
    enqueue_out(job->conn_id, job->req.token, false, make_frame(FrameType::kJobEvent, std::move(w)));
  }

  void enqueue_out(std::uint64_t conn_id, std::uint64_t token, bool is_result,
                   std::vector<std::uint8_t> bytes) {
    {
      std::lock_guard<std::mutex> lock(out_mu);
      outgoing.push_back(Outgoing{conn_id, token, is_result, std::move(bytes)});
    }
    wake();
  }

  // ---- stats --------------------------------------------------------------

  ServerStatsMsg stats_msg() const {
    ServerStatsMsg m = jm.stats();
    m.rejected += early_rejects.load();
    CacheStats cs = cache.stats();
    m.cache_hits = cs.hits;
    m.cache_misses = cs.misses;
    m.cache_entries = cs.entries;
    m.cache_evictions = cs.evictions;
    m.workers = cfg.workers;
    m.paused = paused.load();
    return m;
  }
};

JobServer::JobServer(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

JobServer::~JobServer() { stop(); }

bool JobServer::start(std::string* err) { return impl_->start(err); }

void JobServer::stop() { impl_->stop(); }

std::uint16_t JobServer::port() const { return impl_->bound_port; }

void JobServer::resume() {
  impl_->paused.store(false);
  impl_->jm.resume();
}

ServerStatsMsg JobServer::stats() const { return impl_->stats_msg(); }

CacheStats JobServer::cache_stats() const { return impl_->cache.stats(); }

std::size_t JobServer::queue_depth() const { return impl_->jm.depth(); }

}  // namespace gbd
