// perfbench: the end-to-end benchmark of the serving stack.
//
//   perfbench --workload <wire_pipelined|wire_paced|map_contended>
//             --seed <n> --seconds <s> --trace <0|1>
//
// One process drives the program only through its public API (KvServer,
// NetServer, the wire.hpp codec, ShardedMap, the lock types, TimerWheel)
// on the host's detected topology, with every thread pinned to a CPU of its
// own and never more threads than the process may run on.  Inputs are
// generated from --seed before the timed window; every run measures a
// warm-up and then a fixed wall-clock window, checks the outputs against
// properties computed independently of the program, and prints one JSON
// line last:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics of the named workload;
// --trace 1 runs the traced suite (every workload briefly, plus isolated
// replays of each layer's entry points) and reports the per-layer metrics.
// README.md in this directory defines every metric and workload.
//
// Exit codes: 0 all checks passed, 1 an output check failed (the JSON line
// is still printed), 2 the run could not be set up as specified (bad
// arguments, a CPU pin failed, too few CPUs) and prints no result.
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/locks.hpp"
#include "src/expiry/wheel.hpp"
#include "src/extras/sharded_map.hpp"
#include "src/harness/prng.hpp"
#include "src/harness/timing.hpp"
#include "src/harness/topology.hpp"
#include "src/harness/workload.hpp"
#include "src/net/net_server.hpp"
#include "src/net/wire.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace bjrw;
using Lock = CohortWriterPriorityLock;  // KvServer's default shard lock
using Kv = serve::KvServer<Lock>;
using Net = net::NetServer<Lock>;
using Map = ShardedMap<std::uint64_t, std::uint64_t, Lock>;

// ---- workload constants (README.md "Workloads") ------------------------------

constexpr std::uint64_t kKeys = 1 << 18;  // preloaded key space, every workload
constexpr double kTheta = 0.99;           // zipfian skew (YCSB default)
constexpr double kWarmS = 1.0;            // warm-up before the timed window

// wire_pipelined: closed loop, one connection at a fixed depth.
constexpr int kDepth = 16;
constexpr std::uint32_t kBatch = 8;  // keys per get_many
constexpr double kPipeGetFrac = 0.95;
constexpr std::size_t kPipeOps = 1 << 17;  // replayed cyclically

// wire_paced: open loop on a fixed schedule, single gets and puts.
constexpr double kPacedRate = 8000.0;  // requests per second
constexpr double kPacedGetFrac = 0.8;
constexpr double kLeasedGetFrac = 0.1;  // of gets: on the leased key set
constexpr double kTtlPutFrac = 0.5;     // of puts: TTL'd, on the leased set
constexpr std::uint64_t kLeasedKeys = 256;  // keys [kKeys, kKeys + 256)
constexpr std::uint64_t kTtlNs = 50'000'000;
constexpr std::uint64_t kResolutionNs = 1'000'000;

// map_contended: one thread per allowed CPU on one ShardedMap.
constexpr double kMapGetFrac = 0.5;
constexpr std::size_t kMapShards = 8;  // ServeConfig's shards_per_node default
constexpr std::size_t kMapOps = 1 << 19;  // per thread, replayed cyclically
constexpr std::uint64_t kSampleEvery = 64;  // one timed call in 64
constexpr std::uint64_t kWriteBit = 1ULL << 63;

// Taken first thing in main(): setup_s is timed from here.
std::uint64_t g_main_start_ns = 0;

double setup_seconds(std::uint64_t done_ns) {
  return static_cast<double>(done_ns - g_main_start_ns) / 1e9;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

// ---- values: every stored value names its key --------------------------------

// Preloaded value: a function of the key alone, computed here and never read
// back from the program.  Put values carry a sequence number above the key.
std::uint64_t preload_value(std::uint64_t key) {
  return (SplitMix64(key).next() << 32) | key;
}
std::uint64_t put_value(std::uint64_t key, std::uint64_t seq) {
  return (seq << 32) | key;
}
bool encodes(std::uint64_t value, std::uint64_t key) {
  return (value & 0xFFFFFFFFULL) == key;
}

// ---- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    check(std::isfinite(value), name + " is not a finite number");
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void print() const {
    for (const Metric& m : metrics)
      std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

std::string str(std::uint64_t v) { return std::to_string(v); }

// ---- statistics --------------------------------------------------------------

// Log-linear latency histogram: exact below 1024 ns, then 512 buckets per
// power of two (0.2% wide) up to 2^41 ns.  Recording never allocates, so
// the timed loops do not stall on a growing sample vector.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  // Nearest-rank percentile, as the midpoint of the rank's bucket.
  double percentile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))), 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return value_of(i);
    }
    return value_of(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 9;
  static constexpr std::uint64_t kLinear = 1ULL << (kSubBits + 1);
  static constexpr int kMaxExp = 41;
  static constexpr std::size_t kBuckets =
      kLinear + (static_cast<std::size_t>(kMaxExp - kSubBits - 1) << kSubBits);

  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    if (e >= kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1ULL << kSubBits) - 1);
    return static_cast<std::size_t>(
        kLinear + (static_cast<std::uint64_t>(e - kSubBits - 1) << kSubBits) + sub);
  }
  static double value_of(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t j = i - kLinear;
    const int shift = static_cast<int>(j >> kSubBits);  // e - kSubBits - 1
    const std::uint64_t sub = j & ((1ULL << kSubBits) - 1);
    const std::uint64_t lower = ((1ULL << kSubBits) + sub) << (shift + 1);
    return static_cast<double>(lower) + static_cast<double>(1ULL << (shift + 1)) / 2.0;
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
};

// The timed window: requests completing inside it count, and their
// latencies are pooled into one histogram.  A percentile of the pooled
// window shrugs off a rare multi-millisecond stall of the host (it delays
// far fewer than 1% of the requests), which a per-second figure does not.
// Throughput is the median over the window's half-second slices, so a
// spell of a second or two in which the host runs the process slower does
// not move it either.
struct Window {
  static constexpr std::uint64_t kSliceNs = 500'000'000;
  struct Slice {
    std::uint64_t requests = 0, keys = 0;
    std::uint64_t first_ns = 0, last_ns = 0;  // first and last completion
  };
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t requests = 0;
  std::vector<Slice> slices;
  Histogram lat;

  Window(std::uint64_t begin, double seconds)
      : begin_ns(begin),
        end_ns(begin + static_cast<std::uint64_t>(seconds * 1e9)),
        slices((end_ns - begin_ns + kSliceNs - 1) / kSliceNs) {}
  bool in(std::uint64_t t) const { return t >= begin_ns && t < end_ns; }
  // One request completed at t.
  void done(std::uint64_t t, std::uint64_t lat_ns, std::uint64_t nkeys) {
    if (!in(t)) return;
    Slice& s = slices[(t - begin_ns) / kSliceNs];
    if (s.requests == 0) s.first_ns = t;
    s.last_ns = t;
    s.requests += 1;
    s.keys += nkeys;
    requests += 1;
    lat.add(lat_ns);
  }
  // Median over the slices of completions per second.  Each slice's rate
  // runs over the span from its first to its last completion, which
  // resolves a paced rate finer than one request per slice.
  double rate(std::uint64_t Slice::*count) const {
    std::vector<double> rates;
    for (const Slice& s : slices)
      if (s.requests >= 2 && s.last_ns > s.first_ns)
        rates.push_back(static_cast<double>(s.*count) *
                        (1.0 - 1.0 / static_cast<double>(s.requests)) * 1e9 /
                        static_cast<double>(s.last_ns - s.first_ns));
    if (rates.empty()) return 0.0;
    std::sort(rates.begin(), rates.end());
    const std::size_t mid = rates.size() / 2;
    return rates.size() % 2 ? rates[mid] : (rates[mid - 1] + rates[mid]) / 2;
  }
  // Reports the end-to-end metrics every workload shares.
  void report(Report& rep, double requests_per_s, double ops_per_s) const {
    rep.metric("requests_per_s", requests_per_s, "req/s");
    rep.metric("ops_per_s", ops_per_s, "ops/s");
    rep.metric("lat_p50_us", lat.percentile(0.50) / 1e3, "us");
    // The p99 is printed but not reported: on wire_paced it swings several
    // fold between runs with the host's stalls (README.md, "Noise").
    std::fprintf(stderr, "  p99 %.3f us over %llu latency samples\n",
                 lat.percentile(0.99) / 1e3,
                 static_cast<unsigned long long>(lat.count()));
    rep.check(lat.count() >= 1000, "fewer than 1000 latency samples");
  }
  void report(Report& rep) const {
    report(rep, rate(&Slice::requests), rate(&Slice::keys));
  }
};

// ---- host: topology, CPUs, threads -------------------------------------------

// CPUs the process may run on, read once before any thread pins itself.
int allowed_cpus() {
  static const int n = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) die("sched_getaffinity failed");
    return CPU_COUNT(&set);
  }();
  return n;
}

// The detected topology, never a simulated one: the shard locks read the
// same cached detection, so an override would reshape them too.
const Topology& host() {
  static const Topology& topo = [] () -> const Topology& {
    if (std::getenv("BJRW_TOPOLOGY") != nullptr)
      die("BJRW_TOPOLOGY is set; the benchmark runs on the detected topology");
    const Topology& t = Topology::detected();
    if (t.cpu_count() > allowed_cpus())
      die("topology has " + std::to_string(t.cpu_count()) +
          " CPUs but the process may run on " + std::to_string(allowed_cpus()));
    return t;
  }();
  return topo;
}

void pin(int tid, const char* role) {
  if (!host().pin_this_thread(tid))
    die(std::string("could not pin the ") + role + " thread to its CPU");
}

int live_threads() {
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(d))
    if (e->d_name[0] != '.') ++n;
  ::closedir(d);
  return n;
}

void check_thread_budget(Report& rep) {
  const int n = live_threads();
  rep.check(n > 0 && n <= allowed_cpus(),
            "process runs " + std::to_string(n) + " threads on " +
                std::to_string(allowed_cpus()) + " CPUs");
}

// ---- input generation --------------------------------------------------------

struct WireOp {
  bool get = true;             // get_many of kBatch keys; else put of keys[0]
  std::uint64_t keys[kBatch] = {};
};

std::vector<WireOp> make_pipelined_ops(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x70697065ULL);
  ZipfianRanks zipf(kKeys, kTheta, seed ^ 0x7A697066ULL);
  std::vector<WireOp> ops(kPipeOps);
  for (WireOp& op : ops) {
    op.get = rng.uniform01() < kPipeGetFrac;
    for (std::uint32_t k = 0; k < (op.get ? kBatch : 1); ++k)
      op.keys[k] = scramble_rank(zipf.next(), kKeys);
  }
  return ops;
}

enum class PacedKind : std::uint8_t { kGet, kPut, kPutTtl };
struct PacedOp {
  PacedKind kind;
  std::uint64_t key;
};

bool leased(std::uint64_t key) { return key >= kKeys; }

std::vector<PacedOp> make_paced_ops(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed ^ 0x70616365ULL);
  ZipfianRanks zipf(kKeys, kTheta, seed ^ 0x7A697067ULL);
  std::vector<PacedOp> ops(n);
  for (PacedOp& op : ops) {
    const bool get = rng.uniform01() < kPacedGetFrac;
    const bool lease = rng.uniform01() < (get ? kLeasedGetFrac : kTtlPutFrac);
    op.kind = get ? PacedKind::kGet : lease ? PacedKind::kPutTtl : PacedKind::kPut;
    op.key = lease ? kKeys + rng.below(kLeasedKeys)
                   : scramble_rank(zipf.next(), kKeys);
  }
  return ops;
}

// One thread's map_contended ops: key, with kWriteBit set on puts.
std::vector<std::uint64_t> make_map_ops(std::uint64_t seed, int thread) {
  const std::uint64_t salt = static_cast<std::uint64_t>(thread + 1) * 0x9E3779B97F4A7C15ULL;
  Xoshiro256 rng(seed ^ salt ^ 0x6D6170ULL);
  ZipfianRanks zipf(kKeys, kTheta, seed ^ salt ^ 0x7A697068ULL);
  std::vector<std::uint64_t> ops(kMapOps);
  for (std::uint64_t& op : ops) {
    const bool get = rng.uniform01() < kMapGetFrac;
    op = scramble_rank(zipf.next(), kKeys) | (get ? 0 : kWriteBit);
  }
  return ops;
}

// ---- the wire stack ----------------------------------------------------------

// KvServer + NetServer on the detected topology.  Workers take pool tids
// node_base + w; the epoll thread and the client take the next free CPUs.
// The epoll thread inherits the affinity of the thread that constructs
// NetServer, so the constructing thread pins itself to the epoll CPU first.
struct WireStack {
  std::unique_ptr<Kv> kv;
  std::unique_ptr<Net> net;
  int client_tid = 0;
  std::uint64_t setup_done_ns = 0;  // construction and preload done

  explicit WireStack(const serve::ServeConfig& cfg) {
    const Topology& topo = host();
    std::vector<bool> used(static_cast<std::size_t>(topo.cpu_count()), false);
    int workers = 0, base = 0;
    for (int d = 0; d < topo.node_count(); ++d) {
      const int cpus = topo.cpus_in_node(d);
      if (cpus > 0 && cpus < cfg.max_width)
        die("a node has fewer CPUs than the workload's " +
            std::to_string(cfg.max_width) + " workers");
      if (cpus > 0)
        for (int w = 0; w < cfg.max_width; ++w, ++workers)
          used[static_cast<std::size_t>(base + w)] = true;
      base += cpus;
    }
    std::vector<int> free_tids;
    for (int t = 0; t < topo.cpu_count(); ++t)
      if (!used[static_cast<std::size_t>(t)]) free_tids.push_back(t);
    if (free_tids.size() < 2 || workers + 2 > allowed_cpus())
      die("need " + std::to_string(workers + 2) + " CPUs for " +
          std::to_string(workers) + " workers, the epoll thread and the client");
    // Construction and preload run on the client's CPU, off the workers'.
    client_tid = free_tids[1];
    pin(client_tid, "client");
    kv = std::make_unique<Kv>(topo, cfg);
    for (std::uint64_t k = 0; k < kKeys; ++k)
      kv->map().put(client_tid, k, preload_value(k));
    pin(free_tids[0], "epoll");
    net = std::make_unique<Net>(*kv);
    if (!net->ok()) die("NetServer could not listen on 127.0.0.1");
    pin(client_tid, "client");
    setup_done_ns = now_ns();
    // The workers pinned themselves while the preload ran; this wait is
    // left out of setup_s, since it measures when the host scheduled them.
    const std::uint64_t pin_deadline = now_ns() + 2'000'000'000ULL;
    while (kv->pinned_workers() != workers && now_ns() < pin_deadline)
      std::this_thread::yield();
    if (kv->pinned_workers() != workers)
      die("only " + std::to_string(kv->pinned_workers()) + " of " +
          std::to_string(workers) + " workers pinned to their CPUs");
  }
  ~WireStack() { stop(); }
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  // Stops the front end first (in-flight latches need the workers), then
  // the workers; the counters read after this are final.
  void stop() {
    if (net) net->stop();
    if (kv) kv->shutdown();
  }
  // Lease counters only: safe to poll while the sweeper runs.
  serve::NodeServeStats lease_totals() const { return sum(&Kv::lease_stats); }
  // Every counter; exact once the traffic it describes has completed.
  serve::NodeServeStats totals() const { return sum(&Kv::node_stats); }

 private:
  // The counters the benchmark reads, summed over the nodes.
  serve::NodeServeStats sum(serve::NodeServeStats (Kv::*read)(int) const) const {
    serve::NodeServeStats t;
    for (int d = 0; d < kv->node_count(); ++d) {
      const serve::NodeServeStats s = (*kv.*read)(d);
      t.sub_requests += s.sub_requests;
      t.ops += s.ops;
      t.bursts += s.bursts;
      t.group_gathers += s.group_gathers;
      t.parks += s.parks;
      t.wakes += s.wakes;
      t.leases_scheduled += s.leases_scheduled;
      t.leases_cancelled += s.leases_cancelled;
      t.leases_expired += s.leases_expired;
      t.lease_stale_skips += s.lease_stale_skips;
      t.sweep_batches += s.sweep_batches;
    }
    return t;
  }
};

// The body length in the u32 prefix of the frame that starts at p.
std::uint32_t frame_len(const std::uint8_t* p) {
  return net::Unpacker(p, net::kFrameLenSize).u32();
}

// A nonblocking loopback connection speaking wire.hpp frames directly.
// KvClient's receive blocks in two reads per response, which holds an open
// loop back and leaves a pipelined loop bound by the client (README.md).
class RawConn {
 public:
  struct Resp {
    std::uint64_t id = 0;
    net::MsgType type = net::MsgType::kErrorResp;
    net::WireStatus status = net::WireStatus::kOk;
    std::vector<std::optional<std::uint64_t>> values;  // get: 1, get_many: n
  };

  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
      die("connect to the NetServer failed");
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~RawConn() { ::close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  net::PackBuffer& out() { return out_; }
  std::uint64_t bytes_sent() const { return sent_; }
  std::uint64_t bytes_received() const { return received_; }

  // Sends what the socket takes now; false on a broken connection.
  bool flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        sent_ += static_cast<std::uint64_t>(n);
        out_.consume(static_cast<std::size_t>(n));
        continue;
      }
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    }
    return true;
  }

  // Reads what has arrived and hands every complete frame to fn(resp);
  // false on a broken connection or an unparseable frame.
  template <class Fn>
  bool poll(Fn&& fn) {
    std::uint8_t chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n > 0) {
        received_ += static_cast<std::uint64_t>(n);
        in_.insert(in_.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    std::size_t head = 0;
    while (in_.size() - head >= net::kFrameLenSize) {
      const std::uint8_t* p = in_.data() + head;
      const std::uint32_t len = frame_len(p);
      if (in_.size() - head - net::kFrameLenSize < len) break;
      if (!parse(p + net::kFrameLenSize, len)) return false;
      fn(resp_);
      head += net::kFrameLenSize + len;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(head));
    return true;
  }

 private:
  bool parse(const std::uint8_t* p, std::size_t len) {
    net::Unpacker u(p, len);
    net::MsgHeader h;
    net::ErrorCode err;
    if (!net::unpack_header(u, &h, &err) || h.type == net::MsgType::kErrorResp)
      return false;
    resp_.id = h.request_id;
    resp_.type = h.type;
    resp_.values.clear();
    resp_.status = static_cast<net::WireStatus>(u.u8());
    if (resp_.status != net::WireStatus::kOk) return u.exhausted();
    if (h.type == net::MsgType::kGetResp) {
      const bool found = u.u8() != 0;
      const std::uint64_t v = u.u64();
      resp_.values.push_back(found ? std::optional<std::uint64_t>(v) : std::nullopt);
    } else if (h.type == net::MsgType::kGetManyResp) {
      const std::uint32_t n = u.u32();
      for (std::uint32_t i = 0; i < n && !u.failed(); ++i) {
        const bool found = u.u8() != 0;
        const std::uint64_t v = u.u64();
        resp_.values.push_back(found ? std::optional<std::uint64_t>(v) : std::nullopt);
      }
    }
    return u.exhausted();
  }

  int fd_ = -1;
  net::PackBuffer out_;
  std::vector<std::uint8_t> in_;
  Resp resp_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

// ---- wire_pipelined ----------------------------------------------------------

// Totals the client keeps, reconciled against the server's own counters.
struct WireTally {
  std::uint64_t frames = 0;    // wire requests sent
  std::uint64_t keys = 0;      // keys those requests carry (= server ops)
  std::uint64_t get_keys = 0;  // keys asked for by OK get responses
  std::uint64_t hits = 0;      // ... that came back found with their key
};

// True when `r` is an OK answer of the right type to `op`.  Every key of a
// get_many must come back found and holding a value for that key; a wrong
// value also fails the run's output check.  Tallies the get keys and hits.
bool answers(const RawConn::Resp& r, const WireOp& op, WireTally* tally,
             Report& rep) {
  if (r.status != net::WireStatus::kOk) return false;
  if (!op.get) return r.type == net::MsgType::kPutResp;
  if (r.type != net::MsgType::kGetManyResp || r.values.size() != kBatch) return false;
  std::uint64_t hits = 0;
  for (std::uint32_t k = 0; k < kBatch; ++k)
    hits += r.values[k] && encodes(*r.values[k], op.keys[k]) ? 1 : 0;
  if (tally) {
    tally->get_keys += kBatch;
    tally->hits += hits;
  }
  rep.check(hits == kBatch, "a get_many returned a missing value or one for another key");
  return hits == kBatch;
}

// Closed loop at depth kDepth over a busy-polling RawConn.
void drive_pipelined(WireStack& st, const std::vector<WireOp>& ops,
                         Window& win, WireTally& tally, Report& rep) {
  RawConn c(st.net->port());
  check_thread_budget(rep);
  constexpr std::size_t kRing = 4096;
  std::vector<std::uint64_t> sent_ns(kRing, 0);
  std::vector<bool> live(kRing, false);
  std::uint64_t next = 0, outstanding = 0;
  bool ok = true;
  const auto send = [&] {
    const std::size_t slot = next % kRing;
    if (live[slot]) {
      rep.check(false, "request " + str(next - kRing) + " outstanding too long");
      ok = false;
      return;
    }
    const WireOp& op = ops[next % ops.size()];
    if (op.get)
      net::pack_get_many_req(c.out(), next, op.keys, kBatch);
    else
      net::pack_put_req(c.out(), next, op.keys[0], put_value(op.keys[0], next + 1));
    sent_ns[slot] = now_ns();
    live[slot] = true;
    ++next;
    ++outstanding;
    tally.frames += 1;
    tally.keys += op.get ? kBatch : 1;
  };
  for (int i = 0; i < kDepth; ++i) send();
  const auto on_resp = [&](const RawConn::Resp& r) {
    const std::uint64_t t = now_ns();
    const std::size_t slot = r.id % kRing;
    if (r.id >= next || !live[slot]) {
      rep.check(false, "response for an unknown request id " + str(r.id));
      ok = false;
      return;
    }
    live[slot] = false;
    --outstanding;
    const WireOp& op = ops[r.id % ops.size()];
    rep.attempted += 1;
    const bool good = answers(r, op, &tally, rep);
    if (!good) rep.failed += 1;
    else win.done(t, t - sent_ns[slot], op.get ? kBatch : 1);
    if (t < win.end_ns) send();
  };
  const std::uint64_t give_up = win.end_ns + 5'000'000'000ULL;
  while (ok && outstanding > 0) {
    ok = c.flush() && c.poll(on_resp) && ok;
    if (now_ns() > give_up) break;
  }
  rep.check(ok, "the pipelined connection failed");
  rep.attempted += outstanding;
  rep.failed += outstanding;
}

// Depth-1 loopback replay over RawConn: per-request latencies and the bytes
// both directions carry.
struct Replay {
  Histogram lat;
  std::uint64_t bytes = 0;
};

Replay replay_loopback(WireStack& st, const std::vector<WireOp>& ops,
                       std::size_t n, WireTally& tally, Report& rep) {
  RawConn c(st.net->port());
  Replay out;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const WireOp& op = ops[i % ops.size()];
    const std::uint64_t t0 = now_ns();
    if (op.get)
      net::pack_get_many_req(c.out(), i, op.keys, kBatch);
    else
      net::pack_put_req(c.out(), i, op.keys[0], put_value(op.keys[0], ++seq));
    tally.frames += 1;
    tally.keys += op.get ? kBatch : 1;
    rep.attempted += 1;
    bool got = false, ok = c.flush();
    while (ok && !got) {
      ok = c.poll([&](const RawConn::Resp& r) {
        got = true;
        if (r.id != i || !answers(r, op, nullptr, rep)) rep.failed += 1;
      });
    }
    if (!ok) {
      rep.failed += 1;
      rep.check(false, "the replay connection failed");
      break;
    }
    out.lat.add(now_ns() - t0);
  }
  out.bytes = c.bytes_sent() + c.bytes_received();
  return out;
}

// Fills an in-process Request for one wire op.
void fill_request(serve::Request& r, const WireOp& op,
                  std::optional<std::uint64_t>* out, std::uint64_t seq) {
  r.reset();
  if (op.get) {
    r.kind = serve::RequestKind::kGetBatch;
    r.keys = op.keys;
    r.key_count = kBatch;
    r.out = out;
  } else {
    r.kind = serve::RequestKind::kPut;
    r.key = op.keys[0];
    r.value = put_value(op.keys[0], seq);
  }
}

bool check_request(const serve::Request& r, const WireOp& op,
                   const std::optional<std::uint64_t>* out) {
  if (r.submit_outcome() != serve::AdmitResult::kAccepted) return false;
  if (!op.get) return true;
  for (std::uint32_t k = 0; k < kBatch; ++k)
    if (!out[k] || !encodes(*out[k], op.keys[k])) return false;
  return true;
}

// The same ops straight into KvServer: submit + wait at depth 1, then
// submit_many in batches of kDepth.
void replay_inproc(WireStack& st, const std::vector<WireOp>& ops,
                   std::size_t n, WireTally& tally, Report& rep,
                   Histogram& lat,
                   double& submit_many_ns_per_req) {
  serve::Request r;
  std::optional<std::uint64_t> out[kBatch];
  for (std::size_t i = 0; i < n; ++i) {
    const WireOp& op = ops[i % ops.size()];
    fill_request(r, op, out, i + 1);
    const std::uint64_t t0 = now_ns();
    st.kv->submit(&r);
    r.wait();
    lat.add(now_ns() - t0);
    tally.keys += op.get ? kBatch : 1;
    rep.attempted += 1;
    const bool ok = check_request(r, op, out);
    rep.check(ok, "an in-process request failed or returned a wrong value");
    rep.failed += ok ? 0 : 1;
  }
  std::vector<serve::Request> reqs(kDepth);
  std::vector<serve::Request*> ptrs;
  for (serve::Request& q : reqs) ptrs.push_back(&q);
  std::vector<std::optional<std::uint64_t>> outs(kDepth * kBatch);
  std::uint64_t submit_ns = 0, submitted = 0;
  for (std::size_t i = 0; i + kDepth <= n; i += kDepth) {
    for (std::size_t j = 0; j < kDepth; ++j)
      fill_request(reqs[j], ops[(i + j) % ops.size()], &outs[j * kBatch], i + j + 1);
    const std::uint64_t t0 = now_ns();
    st.kv->submit_many(ptrs.data(), kDepth);
    submit_ns += now_ns() - t0;
    for (std::size_t j = 0; j < kDepth; ++j) {
      const WireOp& op = ops[(i + j) % ops.size()];
      reqs[j].wait();
      tally.keys += op.get ? kBatch : 1;
      rep.attempted += 1;
      const bool ok = check_request(reqs[j], op, &outs[j * kBatch]);
      rep.check(ok, "a submit_many request failed or returned a wrong value");
      rep.failed += ok ? 0 : 1;
    }
    submitted += kDepth;
  }
  submit_many_ns_per_req =
      static_cast<double>(submit_ns) / static_cast<double>(std::max<std::uint64_t>(submitted, 1));
}

// Pack + parse of the workload's request frames, no socket.
double codec_ns_per_frame(const std::vector<WireOp>& ops, Report& rep) {
  constexpr std::size_t kFrames = 1 << 17;
  constexpr std::size_t kChunk = 256;
  net::PackBuffer b;
  std::uint64_t packed_keys = 0, parsed_keys = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t base = 0; base < kFrames; base += kChunk) {
    b.clear();
    for (std::size_t i = base; i < base + kChunk; ++i) {
      const WireOp& op = ops[i % ops.size()];
      if (op.get) {
        net::pack_get_many_req(b, i, op.keys, kBatch);
        for (const std::uint64_t k : op.keys) packed_keys += k;
      } else {
        net::pack_put_req(b, i, op.keys[0], put_value(op.keys[0], i));
        packed_keys += op.keys[0];
      }
    }
    std::size_t off = 0;
    while (off < b.size()) {
      const std::uint8_t* p = b.data() + off;
      const std::uint32_t len = frame_len(p);
      net::Unpacker u(p + net::kFrameLenSize, len);
      net::MsgHeader h;
      net::ErrorCode err;
      if (!net::unpack_header(u, &h, &err)) break;
      if (h.type == net::MsgType::kGetManyReq) {
        const std::uint32_t n = u.u32();
        for (std::uint32_t k = 0; k < n; ++k) parsed_keys += u.u64();
      } else {
        parsed_keys += u.u64();
        (void)u.u64();
      }
      if (!u.exhausted()) break;
      off += net::kFrameLenSize + len;
    }
  }
  const std::uint64_t dt = now_ns() - t0;
  rep.check(packed_keys == parsed_keys, "codec round trip lost keys");
  return static_cast<double>(dt) / static_cast<double>(kFrames);
}

serve::ServeConfig pipelined_config() {
  return serve::ServeConfig{}.with_workers(1).with_burst(kDepth);
}

void run_pipelined(std::uint64_t seed, double seconds, bool traced, Report& rep) {
  WireStack st(pipelined_config());
  const double setup_s = setup_seconds(st.setup_done_ns);
  const auto ops = make_pipelined_ops(seed);
  Window win(now_ns() + static_cast<std::uint64_t>(kWarmS * 1e9), seconds);
  WireTally tally;
  drive_pipelined(st, ops, win, tally, rep);
  // Exact now: every request the stripes describe has been answered.
  const serve::NodeServeStats after_run = st.totals();
  double inproc_p50_ns = 0, lb_p50_ns = 0, bytes_per_req = 0, submit_many_ns = 0;
  if (traced) {
    constexpr std::size_t kReplay = 20000;
    Replay lb = replay_loopback(st, ops, kReplay, tally, rep);
    lb_p50_ns = lb.lat.percentile(0.5);
    bytes_per_req = static_cast<double>(lb.bytes) / static_cast<double>(kReplay);
    Histogram inproc;
    replay_inproc(st, ops, kReplay, tally, rep, inproc, submit_many_ns);
    inproc_p50_ns = inproc.percentile(0.5);
  }
  st.stop();
  const serve::NodeServeStats s = st.totals();
  rep.check(st.net->frames_dispatched() == tally.frames,
            "frames_dispatched " + str(st.net->frames_dispatched()) +
                " != requests sent " + str(tally.frames));
  rep.check(s.ops == tally.keys,
            "server ops " + str(s.ops) + " != keys sent " + str(tally.keys));
  rep.check(tally.hits == tally.get_keys,
            "hits " + str(tally.hits) + " != get keys " + str(tally.get_keys));
  if (!traced) {
    rep.metric("setup_s", setup_s, "s");
    win.report(rep);
    return;
  }
  const double kreq = static_cast<double>(tally.frames) / 1e3;
  rep.metric("net.codec_ns_per_frame", codec_ns_per_frame(ops, rep), "ns");
  rep.metric("net.bytes_per_request", bytes_per_req, "bytes");
  rep.metric("net.wire_tax_p50_us", (lb_p50_ns - inproc_p50_ns) / 1e3, "us");
  rep.metric("serve.inproc_p50_us", inproc_p50_ns / 1e3, "us");
  rep.metric("serve.submit_many_ns_per_req", submit_many_ns, "ns");
  rep.metric("serve.mean_burst_depth",
             static_cast<double>(after_run.sub_requests) /
                 static_cast<double>(std::max<std::uint64_t>(after_run.bursts, 1)),
             "slices");
  rep.metric("serve.group_gathers_per_kreq",
             static_cast<double>(after_run.group_gathers) / kreq, "count/kreq");
}

// ---- wire_paced --------------------------------------------------------------

serve::ServeConfig paced_config() {
  return serve::ServeConfig{}.with_widths(1, 2).with_burst(kDepth).with_expiry(
      kResolutionNs);
}

void run_paced(std::uint64_t seed, double seconds, bool traced, Report& rep) {
  WireStack st(paced_config());
  const double setup_s = setup_seconds(st.setup_done_ns);
  const auto n = static_cast<std::size_t>(std::llround(kPacedRate * (kWarmS + seconds)));
  const auto ops = make_paced_ops(seed, n);
  std::vector<std::uint64_t> done_ns(n, 0);  // response time; 0 = none yet
  RawConn c(st.net->port());
  check_thread_budget(rep);
  const double interval_ns = 1e9 / kPacedRate;
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto intended = [&](std::size_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
  };
  Window win(t0 + static_cast<std::uint64_t>(kWarmS * 1e9), seconds);
  Histogram late;  // send lateness inside the window
  std::uint64_t ttl_acked = 0;
  struct LeasedHit {
    std::size_t get, put;
  };
  std::vector<LeasedHit> leased_hits;
  std::size_t next = 0, answered = 0;
  bool io_ok = true;
  const auto on_resp = [&](const RawConn::Resp& r) {
    const std::uint64_t t = now_ns();
    const std::size_t i = r.id;
    if (i >= next || done_ns[i] != 0) {
      rep.check(false, "unexpected response id " + str(r.id));
      return;
    }
    done_ns[i] = t;
    ++answered;
    const PacedOp& op = ops[i];
    bool ok = r.status == net::WireStatus::kOk;
    if (ok && op.kind == PacedKind::kGet) {
      ok = r.type == net::MsgType::kGetResp && r.values.size() == 1;
      const std::optional<std::uint64_t> v = ok ? r.values[0] : std::nullopt;
      const std::uint64_t put = v ? (*v >> 32) - 1 : 0;  // the writing op
      if (ok && leased(op.key) && v) {
        ok = encodes(*v, op.key) && put < n && ops[put].key == op.key &&
             ops[put].kind == PacedKind::kPutTtl;
        if (ok) leased_hits.push_back({i, static_cast<std::size_t>(put)});
        rep.check(ok, "a leased get returned a value no TTL put wrote");
      } else if (ok && !leased(op.key)) {
        ok = v && encodes(*v, op.key);
        rep.check(ok, "a get on an unleased key missed or returned another key's value");
      }
    } else if (ok) {
      ok = r.type == net::MsgType::kPutResp;
      ttl_acked += ok && op.kind == PacedKind::kPutTtl ? 1 : 0;
    }
    rep.attempted += 1;
    if (!ok) {
      rep.failed += 1;
      return;
    }
    win.done(t, t - intended(i), 1);
  };
  const std::uint64_t give_up = intended(n) + 5'000'000'000ULL;
  while (io_ok && answered < n) {
    const std::uint64_t now = now_ns();
    if (next < n && intended(next) <= now) {
      while (next < n && intended(next) <= now) {
        const PacedOp& op = ops[next];
        switch (op.kind) {
          case PacedKind::kGet: net::pack_get_req(c.out(), next, op.key); break;
          case PacedKind::kPut:
            net::pack_put_req(c.out(), next, op.key, put_value(op.key, next + 1));
            break;
          case PacedKind::kPutTtl:
            net::pack_put_ttl_req(c.out(), next, op.key,
                                  put_value(op.key, next + 1), kTtlNs);
            break;
        }
        if (win.in(intended(next))) late.add(now - intended(next));
        ++next;
      }
    }
    io_ok = c.flush() && c.poll(on_resp);
    if (next == n && now > give_up) break;
  }
  rep.check(io_ok, "the paced connection failed");
  // requests_per_s is the offered rate, not a capacity: the window counts
  // exactly the answers that fall in it, which are the requests intended
  // in it plus those open at its start, less those open at its end.
  std::uint64_t offered = 0, open_at_begin = 0, open_at_end = 0;
  for (std::size_t i = 0; i < next; ++i) {
    const std::uint64_t sent = intended(i);
    const std::uint64_t done = done_ns[i] != 0 ? done_ns[i] : UINT64_MAX;
    offered += win.in(sent) ? 1 : 0;
    open_at_begin += sent < win.begin_ns && done >= win.begin_ns ? 1 : 0;
    open_at_end += sent < win.end_ns && done >= win.end_ns ? 1 : 0;
  }
  rep.check(win.requests + open_at_end == offered + open_at_begin,
            "answers in the window " + str(win.requests) + " + open at its end " +
                str(open_at_end) + " != requests intended in it " + str(offered) +
                " + open at its start " + str(open_at_begin));
  // Requests never answered time out: they count as failed.
  rep.attempted += n - answered;
  rep.failed += n - answered;
  // No leased value is served after its deadline plus one wheel resolution.
  // The put executed before its ack, so its deadline is at most ack + TTL;
  // the get executed after its intended send time.
  for (const LeasedHit& h : leased_hits)
    rep.check(done_ns[h.put] != 0 &&
                  intended(h.get) <= done_ns[h.put] + kTtlNs + kResolutionNs,
              "leased key " + str(ops[h.get].key) + " served after its deadline");
  st.net->stop();
  rep.check(st.net->frames_dispatched() == next,
            "frames_dispatched " + str(st.net->frames_dispatched()) +
                " != requests sent " + str(next));
  // Drain: every lease falls due within TTL + resolution of the last send,
  // and the sweeper (on the workers' maintenance lane) must account for it.
  const std::uint64_t drain_from = now_ns();
  const std::uint64_t drain_until = drain_from + kTtlNs + kResolutionNs;
  while (now_ns() < drain_until) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  serve::NodeServeStats s = st.lease_totals();
  const auto settled = [&] {
    return s.leases_expired + s.lease_stale_skips + s.leases_cancelled ==
           s.leases_scheduled;
  };
  const std::uint64_t give_up_drain = now_ns() + 2'000'000'000ULL;
  while (!settled() && now_ns() < give_up_drain) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = st.lease_totals();
  }
  st.stop();
  s = st.totals();
  rep.check(s.leases_scheduled == ttl_acked,
            "leases_scheduled " + str(s.leases_scheduled) + " != TTL puts acked " +
                str(ttl_acked));
  rep.check(settled(), "leases expired " + str(s.leases_expired) + " + stale " +
                           str(s.lease_stale_skips) + " + cancelled " +
                           str(s.leases_cancelled) + " != scheduled " +
                           str(s.leases_scheduled));
  rep.check(st.kv->map().size() == kKeys,
            "map holds " + str(st.kv->map().size()) + " entries after the drain, "
            "expected only the " + str(kKeys) + " unleased keys");
  rep.check(s.ops == next, "server ops " + str(s.ops) + " != requests sent " + str(next));
  if (!traced) {
    rep.metric("setup_s", setup_s, "s");
    win.report(rep);
    return;
  }
  const double kreq = static_cast<double>(next) / 1e3;
  rep.metric("serve.parks_per_kreq", static_cast<double>(s.parks) / kreq, "count/kreq");
  rep.metric("serve.wakes_per_kreq", static_cast<double>(s.wakes) / kreq, "count/kreq");
  rep.metric("expiry.leases_per_batch",
             static_cast<double>(s.leases_expired) /
                 static_cast<double>(std::max<std::uint64_t>(s.sweep_batches, 1)),
             "leases");
  rep.metric("expiry.stale_skips_per_lease",
             static_cast<double>(s.lease_stale_skips) /
                 static_cast<double>(std::max<std::uint64_t>(s.leases_scheduled, 1)),
             "ratio");
  rep.metric("gen.send_late_p99_us", late.percentile(0.99) / 1e3, "us");
}

// Schedules the paced workload's TTL puts on a standalone wheel in virtual
// time (one op every 1/rate s, cycled to kLeases), then sweeps it the way
// the sweeper does: one tick at a time, batches of 128.
void replay_wheel(const std::vector<PacedOp>& ops, Report& rep) {
  constexpr std::size_t kLeases = 1 << 16;
  constexpr std::size_t kSweepBatch = 128;  // ServeConfig's default
  std::vector<std::uint64_t> keys, at_ns;
  const double interval_ns = 1e9 / kPacedRate;
  for (std::size_t i = 0; keys.size() < kLeases; ++i) {
    const PacedOp& op = ops[i % ops.size()];
    if (op.kind != PacedKind::kPutTtl) continue;
    keys.push_back(op.key);
    at_ns.push_back(static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns));
  }
  expiry::WheelConfig wc;
  wc.resolution_ns = kResolutionNs;
  expiry::TimerWheel wheel(wc, 0);
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kLeases; ++i)
    wheel.schedule(keys[i], i + 1, at_ns[i] + kTtlNs);
  const double schedule_ns = static_cast<double>(now_ns() - t0) / kLeases;
  std::vector<expiry::Lease> out;
  std::size_t delivered = 0;
  const std::uint64_t last = at_ns.back() + kTtlNs + kResolutionNs;
  t0 = now_ns();
  for (std::uint64_t now = at_ns.front() + kTtlNs; now <= last; now += kResolutionNs) {
    do {
      out.clear();
      delivered += wheel.harvest(now, out, kSweepBatch);
    } while (wheel.due_backlog() != 0);
  }
  const double harvest_ns = static_cast<double>(now_ns() - t0) / kLeases;
  const expiry::WheelStats ws = wheel.stats();
  rep.check(ws.delivered + ws.stale_drops == kLeases && ws.pending == 0,
            "wheel replay lost leases");
  rep.check(delivered == ws.delivered, "wheel harvest count mismatch");
  rep.metric("expiry.schedule_ns", schedule_ns, "ns");
  rep.metric("expiry.harvest_ns_per_lease", harvest_ns, "ns");
}

// ---- map_contended -----------------------------------------------------------

struct alignas(64) MapThread {
  std::uint64_t gets = 0, puts = 0, wrong = 0;
  // Calls done and the time, at the first check inside the window and at
  // the first check after it.
  std::uint64_t ops_begin = 0, t_begin = 0, ops_end = 0, t_end = 0;
  Histogram get_lat, put_lat;  // sampled calls inside the window
};

void run_map(std::uint64_t seed, double seconds, bool traced, Report& rep) {
  const int threads = allowed_cpus();
  if (threads > host().cpu_count())
    die("more allowed CPUs than the topology maps");
  pin(0, "map");
  Map map(threads, kMapShards);
  for (std::uint64_t k = 0; k < kKeys; ++k) map.put(0, k, preload_value(k));
  const double setup_s = setup_seconds(now_ns());
  std::vector<std::vector<std::uint64_t>> ops;
  for (int t = 0; t < threads; ++t) ops.push_back(make_map_ops(seed, t));
  std::vector<MapThread> res(static_cast<std::size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> go{0};
  Window win(0, seconds);  // rebased once the start time is known
  const auto body = [&](int t) {
    pin(t, "map");
    MapThread& r = res[static_cast<std::size_t>(t)];
    const std::vector<std::uint64_t>& mine = ops[static_cast<std::size_t>(t)];
    ready.fetch_add(1);
    while (go.load() == 0) std::this_thread::yield();
    const std::uint64_t end = win.end_ns;
    std::uint64_t seq = 0;
    std::size_t i = 0;
    for (;;) {
      for (int j = 0; j < 256; ++j, ++i) {
        const std::uint64_t op = mine[i & (kMapOps - 1)];
        const std::uint64_t key = op & ~kWriteBit;
        const bool sample = (i & (kSampleEvery - 1)) == 0;
        const std::uint64_t s0 = sample ? now_ns() : 0;
        if (op & kWriteBit) {
          map.put(t, key, put_value(key, ++seq));
          r.puts += 1;
        } else {
          const auto v = map.get(t, key);
          r.gets += 1;
          r.wrong += v && encodes(*v, key) ? 0 : 1;
        }
        if (sample) {
          const std::uint64_t s1 = now_ns();
          if (win.in(s1)) (op & kWriteBit ? r.put_lat : r.get_lat).add(s1 - s0);
        }
      }
      const std::uint64_t now = now_ns();
      if (r.t_begin == 0 && now >= win.begin_ns) {
        r.ops_begin = r.gets + r.puts;
        r.t_begin = now;
      }
      if (now >= end) {
        r.ops_end = r.gets + r.puts;
        r.t_end = now;
        break;
      }
    }
  };
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(body, t);
  while (ready.load() != threads - 1) std::this_thread::yield();
  check_thread_budget(rep);
  win = Window(now_ns() + 1'000'000 + static_cast<std::uint64_t>(kWarmS * 1e9), seconds);
  go.store(1);
  body(0);
  for (std::thread& w : workers) w.join();

  std::uint64_t gets = 0, puts = 0, wrong = 0;
  Histogram get_lat, put_lat;
  double ops_per_s = 0;
  for (const MapThread& r : res) {
    gets += r.gets;
    puts += r.puts;
    wrong += r.wrong;
    ops_per_s += static_cast<double>(r.ops_end - r.ops_begin) * 1e9 /
                 static_cast<double>(r.t_end - r.t_begin);
    win.lat.merge(r.get_lat);
    win.lat.merge(r.put_lat);
    get_lat.merge(r.get_lat);
    put_lat.merge(r.put_lat);
  }
  rep.attempted += gets + puts;
  rep.failed += wrong;
  rep.check(wrong == 0, str(wrong) + " gets missed or returned another key's value");
  const MapStats ms = map.stats();
  rep.check(ms.hits + ms.misses == gets,
            "map hits+misses " + str(ms.hits + ms.misses) + " != gets " + str(gets));
  rep.check(ms.misses == 0, "map counted " + str(ms.misses) + " misses");
  rep.check(ms.puts == puts + kKeys,
            "map puts " + str(ms.puts) + " != preload + puts " + str(puts + kKeys));
  rep.check(map.size() == kKeys,
            "map size " + str(map.size()) + " != preload " + str(kKeys));
  if (!traced) {
    rep.metric("setup_s", setup_s, "s");
    win.report(rep, ops_per_s, ops_per_s);
    return;
  }
  std::uint64_t handoffs = 0, globals = 0;
  for (std::size_t s = 0; s < map.shard_count(); ++s) {
    handoffs += map.shard_lock(s).handoffs();
    globals += map.shard_lock(s).global_acquires();
  }
  const double kwrites = static_cast<double>(puts + kKeys) / 1e3;
  rep.metric("extras.contended_get_p50_ns", get_lat.percentile(0.5), "ns");
  rep.metric("extras.contended_put_p50_ns", put_lat.percentile(0.5), "ns");
  rep.metric("core.handoffs_per_kwrite", static_cast<double>(handoffs) / kwrites,
             "count/kwrite");
  rep.metric("core.global_acquires_per_kwrite",
             static_cast<double>(globals) / kwrites, "count/kwrite");

  // Single-thread direct calls on the same (now quiet) map, from CPU 0.
  const std::vector<std::uint64_t>& mine = ops[0];
  constexpr std::size_t kCalls = 1 << 18;
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint64_t key = mine[i & (kMapOps - 1)] & ~kWriteBit;
    const auto v = map.get(0, key);
    sink += v ? *v : 0;
  }
  const double get_call_ns = static_cast<double>(now_ns() - t0) / kCalls;
  std::uint64_t batch[kBatch];
  std::optional<std::uint64_t> got[kBatch];
  t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; i += kBatch) {
    for (std::uint32_t k = 0; k < kBatch; ++k)
      batch[k] = mine[(i + k) & (kMapOps - 1)] & ~kWriteBit;
    map.get_many_into(0, batch, kBatch, got);
    sink += got[0] ? *got[0] : 0;
  }
  const double get_many_ns = static_cast<double>(now_ns() - t0) / (kCalls / kBatch);
  t0 = now_ns();
  for (std::size_t i = 0; i < kCalls; ++i) {
    const std::uint64_t key = mine[i & (kMapOps - 1)] & ~kWriteBit;
    map.put(0, key, put_value(key, i + 1));
  }
  const double put_call_ns = static_cast<double>(now_ns() - t0) / kCalls;
  rep.check(sink != 0, "direct map calls found nothing");
  rep.metric("extras.get_ns", get_call_ns, "ns");
  rep.metric("extras.get_many8_ns", get_many_ns, "ns");
  rep.metric("extras.put_ns", put_call_ns, "ns");

  // Uncontended acquire + release of one shard lock.
  Lock lock(threads);
  constexpr std::size_t kPairs = 1 << 20;
  t0 = now_ns();
  for (std::size_t i = 0; i < kPairs; ++i) {
    lock.read_lock(0);
    lock.read_unlock(0);
  }
  const double read_pair = static_cast<double>(now_ns() - t0) / kPairs;
  t0 = now_ns();
  for (std::size_t i = 0; i < kPairs; ++i) {
    lock.write_lock(0);
    lock.write_unlock(0);
  }
  const double write_pair = static_cast<double>(now_ns() - t0) / kPairs;
  rep.metric("core.read_pair_ns", read_pair, "ns");
  rep.metric("core.write_pair_ns", write_pair, "ns");
}

// ---- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (!end || *end != '\0') a.seconds = 0;
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else {
      die("unknown argument " + k);
    }
  }
  if (argc % 2 == 0) die("arguments come in --name value pairs");
  if (a.workload != "wire_pipelined" && a.workload != "wire_paced" &&
      a.workload != "map_contended")
    die("--workload must be wire_pipelined, wire_paced or map_contended");
  if (!have_seed) die("--seed must be a non-negative integer");
  if (!(a.seconds >= 1.0 && a.seconds <= 60.0)) die("--seconds must be in [1, 60]");
  if (a.trace < 0) die("--trace must be 0 or 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  g_main_start_ns = now_ns();
  const Args a = parse(argc, argv);
  host();
  Report rep;
  if (a.trace == 0) {
    if (a.workload == "wire_pipelined") run_pipelined(a.seed, a.seconds, false, rep);
    if (a.workload == "wire_paced") run_paced(a.seed, a.seconds, false, rep);
    if (a.workload == "map_contended") run_map(a.seed, a.seconds, false, rep);
  } else {
    // The traced suite: every layer, whichever workload is named, each
    // workload for a quarter of the window.
    const double part = std::max(1.0, a.seconds / 4);
    run_pipelined(a.seed, part, true, rep);
    run_paced(a.seed, part, true, rep);
    replay_wheel(make_paced_ops(a.seed, 1 << 16), rep);
    run_map(a.seed, part, true, rep);
  }
  rep.print();
  return rep.correct ? 0 : 1;
}
