#include "passes.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "deployment.h"
#include "mutation/delta_log.h"
#include "service/request_parser.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace perfbench {

using namespace tsb;
using Clock = std::chrono::steady_clock;

namespace {

// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 7;
// Traced-pass misses replayed directly against the executor, the
// reference engine and the codec, and requests timed for the socket tax.
constexpr size_t kReplayMax = 3000;
constexpr size_t kSocketTaxSamples = 200;
// write-mixed readers run until the writer finishes; their record vectors
// are reserved up front so growth never copies them mid-run.
constexpr size_t kWriteRecordsPerReader = 1u << 19;

const char* const kGridMethods[] = {
    "full-top",     "fast-top",     "full-topk",     "fast-topk",
    "full-topk-et", "fast-topk-et", "full-topk-opt", "fast-topk-opt"};

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

/// Progress lines on stderr, stamped with seconds since the run started.
void Progress(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%7.2fs] %s\n",
               std::chrono::duration<double>(Clock::now() - start).count(),
               what);
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};

CpuTimes ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user = static_cast<double>(ru.ru_utime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  t.sys = static_cast<double>(ru.ru_stime.tv_sec) +
          1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  return t;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Quantile of raw samples, linear between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Order-sensitive digest of a ranked answer (TIDs and score bits). The
/// checks compare digests, so a run keeps no copy of the answers it got.
uint64_t AnswerDigest(const std::vector<engine::ResultEntry>& entries) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001B3ULL;
    }
  };
  mix(entries.size());
  for (const engine::ResultEntry& e : entries) {
    uint64_t bits = 0;
    std::memcpy(&bits, &e.score, sizeof(bits));
    mix(static_cast<uint64_t>(e.tid));
    mix(bits);
  }
  return h;
}

/// The ExecStats fields the ledger reads from a served miss, kept narrow
/// because a run holds one per request.
struct MissStats {
  uint64_t cpu_ns = 0;
  float seconds = 0.0f;
  uint32_t rows_scanned = 0;
  uint32_t probes = 0;
  uint32_t online_checks = 0;
  uint32_t blocks_total = 0;
  uint32_t blocks_skipped = 0;
};

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&]() {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Receives the single terminal frame of one Submit.
class WaitSink : public wire::StreamSink {
 public:
  void OnFrame(const wire::WireFrame& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    response_ = frame.response;
    done_ = true;
    cv_.notify_one();
  }

  wire::WireResponse Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return done_; });
    done_ = false;
    return std::move(response_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  wire::WireResponse response_;
};

/// One read as sent and answered. With tracing on, parse_s and submit_s
/// are the benchmark's spans around RequestParser::Parse and Submit (until
/// the terminal frame), and `stats` is read from the response's ExecStats.
struct ReadRecord {
  const std::string* line = nullptr;
  // Since the pass origin; end_s - start_s is the latency (Parse + Submit
  // until the terminal frame).
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t answer = 0;  // AnswerDigest of the served entries.
  MissStats stats;
  float parse_s = 0.0f;
  float submit_s = 0.0f;
  // Write workloads: batches acknowledged when the read was sent, and batches
  // whose apply had started when its answer arrived. The answer must equal
  // the reference at one generation in [gen_lo, gen_hi].
  uint32_t gen_lo = 0;
  uint32_t gen_hi = 0;
  wire::WireErrorCode code = wire::WireErrorCode::kOk;
  bool warmup = false;
  bool from_cache = false;
  bool partial = false;
  bool failed = false;  // Set by the checks.
};

struct ClientContext {
  Deployment* deployment = nullptr;
  const service::RequestParser* parser = nullptr;
  bool traced = false;
  Clock::time_point origin;
  const std::atomic<uint64_t>* acked = nullptr;
  const std::atomic<uint64_t>* started = nullptr;
};

ReadRecord SendRead(const ClientContext& ctx, WaitSink* sink,
                     const std::string& line, uint64_t id) {
  ReadRecord r;
  r.line = &line;
  if (ctx.acked != nullptr) r.gen_lo = static_cast<uint32_t>(ctx.acked->load());
  const Clock::time_point t0 = Clock::now();
  auto parsed = ctx.parser->Parse(line);
  const Clock::time_point t1 = Clock::now();
  if (!parsed.ok()) {
    r.code = wire::WireErrorCode::kInvalidRequest;
  } else {
    wire::WireRequest request;
    request.id = id;
    request.query = std::move(parsed->query);
    request.method = parsed->method;
    request.options = parsed->options;
    ctx.deployment->service().Submit(request, *sink);
    wire::WireResponse response = sink->Wait();
    r.code = response.error.code;
    r.from_cache = response.from_cache;
    r.partial = response.result.partial;
    r.answer = AnswerDigest(response.result.entries);
    if (ctx.traced) {
      const engine::ExecStats& st = response.result.stats;
      r.stats.cpu_ns = st.cpu_ns;
      r.stats.seconds = static_cast<float>(st.seconds);
      r.stats.rows_scanned = static_cast<uint32_t>(st.rows_scanned);
      r.stats.probes = static_cast<uint32_t>(st.probes);
      r.stats.online_checks = static_cast<uint32_t>(st.subqueries);
      r.stats.blocks_total = static_cast<uint32_t>(st.blocks_total);
      r.stats.blocks_skipped = static_cast<uint32_t>(st.blocks_skipped);
    }
  }
  const Clock::time_point t2 = Clock::now();
  if (ctx.started != nullptr) {
    r.gen_hi = static_cast<uint32_t>(ctx.started->load());
  }
  r.start_s = Seconds(ctx.origin, t0);
  r.end_s = Seconds(ctx.origin, t2);
  if (ctx.traced) {
    r.parse_s = static_cast<float>(Seconds(t0, t1));
    r.submit_s = static_cast<float>(Seconds(t1, t2));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Counters read from the layers at the edges of a timed window.
struct LayerCounters {
  service::QueryCache::Stats cache;
  shard::ScatterStats scatter;
  service::ReplicaMetricsSnapshot replica;
  CpuTimes cpu;

  static LayerCounters Read(Deployment& d) {
    LayerCounters c;
    c.cache = d.service().CacheStats();
    c.scatter = d.executor().GetScatterStats();
    c.replica = d.transport().replica_metrics().Snapshot();
    c.cpu = ProcessCpu();
    return c;
  }
};

struct BatchRecord {
  bool warmup = false;
  bool ok = false;
  bool structural = false;
  size_t ops = 0;
  double due_s = 0.0;  // Since the pass origin.
  double start_s = 0.0;
  double ack_s = 0.0;
  double call_s = 0.0;         // ApplyMutations wall time.
  double apply_seconds = 0.0;  // ApplyStats::apply_seconds.
  size_t structural_pairs = 0;
  size_t cache_only_pairs = 0;
  uint64_t evicted = 0;
  uint64_t wal_bytes = 0;
  uint64_t uncompacted_after = 0;
};

/// A stretch of the timed window in which the readers ran: the whole window
/// in a read pass and in write-mixed; each run of reads between two batches
/// in write-phased.
struct Round {
  double start_s = 0.0;  // Since the pass origin.
  double end_s = 0.0;
  double cpu_s = 0.0;    // Process CPU in the round, less the writer's.

  bool Holds(const ReadRecord& r) const {
    return r.start_s >= start_s && r.end_s <= end_s;
  }
};

struct PassResult {
  std::vector<std::vector<ReadRecord>> clients;
  std::vector<Round> rounds;
  std::vector<BatchRecord> batches;
  double timed_start_s = 0.0;
  double timed_end_s = 0.0;
  LayerCounters before, after;
  double writer_cpu_s = 0.0;
  uint64_t compaction_rounds = 0;
  uint64_t max_uncompacted = 0;

  double wall_s() const { return timed_end_s - timed_start_s; }
  bool Timed(const ReadRecord& r) const {
    return !r.warmup && r.start_s >= timed_start_s && r.end_s <= timed_end_s;
  }
  std::vector<const ReadRecord*> TimedReads() const {
    std::vector<const ReadRecord*> out;
    for (const auto& client : clients) {
      for (const ReadRecord& r : client) {
        if (Timed(r)) out.push_back(&r);
      }
    }
    return out;
  }
};

/// Sends lines [part/parts, (part+1)/parts) of every client's warm-up or
/// timed stream, one thread per client, and returns when all have finished.
void SendSlice(const ClientContext& ctx,
               const std::vector<ClientStream>& streams, bool warmup,
               size_t part, size_t parts, PassResult* res) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c]() {
      WaitSink sink;
      const auto& lines = warmup ? streams[c].warmup : streams[c].timed;
      std::vector<ReadRecord>& out = res->clients[c];
      const size_t end = lines.size() * (part + 1) / parts;
      for (size_t i = lines.size() * part / parts; i < end; ++i) {
        const uint64_t id = (static_cast<uint64_t>(c) << 40) |
                            (warmup ? 0 : (1ull << 39)) | i;
        out.push_back(SendRead(ctx, &sink, lines[i], id));
        out.back().warmup = warmup;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Sends one slice of the timed streams as a round of `res`.
void SendRound(const ClientContext& ctx,
               const std::vector<ClientStream>& streams, size_t part,
               size_t parts, PassResult* res) {
  Round round;
  const double cpu_start = ProcessCpu().total();
  round.start_s = Seconds(ctx.origin, Clock::now());
  SendSlice(ctx, streams, /*warmup=*/false, part, parts, res);
  round.end_s = Seconds(ctx.origin, Clock::now());
  round.cpu_s = ProcessCpu().total() - cpu_start;
  res->rounds.push_back(round);
}

void ReserveRecords(const std::vector<ClientStream>& streams,
                    PassResult* res) {
  res->clients.resize(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    res->clients[c].reserve(streams[c].warmup.size() +
                            streams[c].timed.size());
  }
}

PassResult RunReadPass(Deployment& d, const std::vector<ClientStream>& streams,
                       bool traced) {
  d.service().InvalidateCache();
  service::RequestParser parser(&d.db());
  PassResult res;
  ReserveRecords(streams, &res);
  ClientContext ctx;
  ctx.deployment = &d;
  ctx.parser = &parser;
  ctx.traced = traced;
  ctx.origin = Clock::now();

  SendSlice(ctx, streams, /*warmup=*/true, 0, 1, &res);
  res.before = LayerCounters::Read(d);
  res.timed_start_s = Seconds(ctx.origin, Clock::now());
  SendRound(ctx, streams, 0, 1, &res);
  res.timed_end_s = Seconds(ctx.origin, Clock::now());
  res.after = LayerCounters::Read(d);
  return res;
}

/// write-phased (`phased`): rounds of reads and batches alternate; round
/// i >= 1 sends slice i - 1 of the timed streams, then batch i applies
/// with no read in flight. write-mixed: an open-loop writer follows the
/// schedule's due times while the readers cycle over their streams beside
/// it until the writer finishes.
PassResult RunWritePass(Deployment& d, const std::vector<ClientStream>& streams,
                        const std::vector<ScheduledBatch>& schedule,
                        mutation::DeltaLog* log, bool phased, bool traced) {
  mutation::MutationEngine::Options options;
  options.build = MakeBuildConfig(d.params());
  Status enabled = d.service().EnableMutations(options, log);
  TSB_CHECK(enabled.ok()) << enabled;
  mutation::MutationEngine* mutator = d.service().mutation_engine();
  mutator->StartCompaction();
  d.service().InvalidateCache();

  service::RequestParser parser(&d.db());
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> started{0};
  PassResult res;
  ReserveRecords(streams, &res);
  if (!phased) {
    for (auto& records : res.clients) records.reserve(kWriteRecordsPerReader);
  }
  ClientContext ctx;
  ctx.deployment = &d;
  ctx.parser = &parser;
  ctx.traced = traced;
  ctx.acked = &acked;
  ctx.started = &started;
  ctx.origin = Clock::now();

  // Reader warm-up at generation 0, before the first batch.
  SendSlice(ctx, streams, /*warmup=*/true, 0, 1, &res);

  // Applies schedule[i], due at `due`, and records it. The warm-up batch's
  // acknowledgement opens the timed window.
  auto apply = [&](size_t i, Clock::time_point due) {
    const ScheduledBatch& sb = schedule[i];
    BatchRecord b;
    b.warmup = i == 0;
    b.structural = sb.structural;
    b.ops = sb.batch.ops.size();
    b.due_s = Seconds(ctx.origin, due);
    const uint64_t evictions_before = d.service().CacheStats().evictions;
    const uint64_t wal_before = log->appended_bytes();
    const Clock::time_point start = Clock::now();
    started.fetch_add(1);
    auto applied = d.service().ApplyMutations(sb.batch);
    const Clock::time_point ack = Clock::now();
    b.ok = applied.ok();
    if (b.ok) {
      acked.fetch_add(1);
      b.apply_seconds = applied->apply_seconds;
      b.structural_pairs = applied->structural_pairs;
      b.cache_only_pairs = applied->cache_only_pairs;
    } else {
      std::fprintf(stderr, "batch %zu failed: %s\n", i,
                   applied.status().ToString().c_str());
    }
    b.start_s = Seconds(ctx.origin, start);
    b.ack_s = Seconds(ctx.origin, ack);
    b.call_s = Seconds(start, ack);
    b.evicted = d.service().CacheStats().evictions - evictions_before;
    b.wal_bytes = log->appended_bytes() - wal_before;
    b.uncompacted_after = mutator->uncompacted_generations();
    res.max_uncompacted = std::max(res.max_uncompacted, b.uncompacted_after);
    res.batches.push_back(b);
    if (i == 0) {
      res.timed_start_s = Seconds(ctx.origin, Clock::now());
      res.before = LayerCounters::Read(d);
    }
  };

  if (phased) {
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (i > 0) SendRound(ctx, streams, i - 1, schedule.size() - 1, &res);
      apply(i, Clock::now());
    }
    res.timed_end_s = Seconds(ctx.origin, Clock::now());
    res.after = LayerCounters::Read(d);
  } else {
    std::atomic<bool> writer_done{false};
    std::thread writer([&]() {
      const Clock::time_point writer_start = Clock::now();
      apply(0, writer_start);
      const Clock::time_point timed_origin = Clock::now();
      const double thread_cpu_start = ThreadCpuSeconds();
      for (size_t i = 1; i < schedule.size(); ++i) {
        const Clock::time_point due =
            timed_origin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   schedule[i].due_seconds));
        std::this_thread::sleep_until(due);
        apply(i, due);
      }
      res.timed_end_s = Seconds(ctx.origin, Clock::now());
      res.after = LayerCounters::Read(d);
      res.writer_cpu_s = ThreadCpuSeconds() - thread_cpu_start;
      res.rounds.push_back({res.timed_start_s, res.timed_end_s,
                            res.after.cpu.total() - res.before.cpu.total() -
                                res.writer_cpu_s});
      writer_done.store(true);
    });

    std::vector<std::thread> readers;
    for (size_t c = 0; c < streams.size(); ++c) {
      readers.emplace_back([&, c]() {
        WaitSink sink;
        const auto& lines = streams[c].timed;
        for (size_t i = 0; !writer_done.load(); ++i) {
          res.clients[c].push_back(
              SendRead(ctx, &sink, lines[i % lines.size()],
                       (static_cast<uint64_t>(c) << 40) | (1ull << 39) | i));
        }
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
  }
  mutator->StopCompaction();
  res.compaction_rounds = mutator->compaction_rounds();
  return res;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Reference answers for a set of distinct lines, computed in parallel.
struct AnswerSet {
  std::vector<uint64_t> answers;  // AnswerDigest per line.
  std::vector<char> ok;           // Parsed and executed without error.
};

AnswerSet ReferenceAnswers(const engine::Engine& engine,
                           storage::Catalog& db,
                           const std::vector<const std::string*>& lines) {
  service::RequestParser parser(&db);
  AnswerSet set;
  set.answers.resize(lines.size());
  set.ok.assign(lines.size(), 0);
  ParallelFor(lines.size(), kClients, [&](size_t i) {
    auto parsed = parser.Parse(*lines[i]);
    if (!parsed.ok()) return;
    auto result =
        engine.Execute(parsed->query, parsed->method, parsed->options);
    if (!result.ok()) return;
    set.answers[i] = AnswerDigest(result->entries);
    set.ok[i] = 1;
  });
  return set;
}

void CorruptAnswer(uint64_t* answer) { *answer ^= 1; }

bool ResponseFailed(const ReadRecord& r) {
  return r.code != wire::WireErrorCode::kOk || r.partial;
}

/// Prints the first few failed reads of a check and returns how many failed.
size_t ReportFailedReads(const PassResult& pass) {
  size_t failed = 0;
  for (const auto& client : pass.clients) {
    for (const ReadRecord& r : client) {
      if (!r.failed) continue;
      if (++failed <= 5) {
        std::printf("read check: MISMATCH generations [%u,%u] %s sent %.6fs "
                    "answered %.6fs: %s\n",
                    r.gen_lo, r.gen_hi,
                    r.from_cache ? "cache hit" : "cache miss", r.start_s,
                    r.end_s, r.line->c_str());
      }
    }
  }
  return failed;
}

/// Checks every read of `passes` against one unchanging reference.
/// Returns the number of failed reads.
size_t CheckReadsStatic(const std::vector<PassResult*>& passes,
                        ReferenceWorld& ref, bool inject_wrong_answer) {
  std::unordered_map<std::string, size_t> index;
  std::vector<const std::string*> lines;
  for (PassResult* pass : passes) {
    for (auto& client : pass->clients) {
      for (ReadRecord& r : client) {
        if (index.emplace(*r.line, lines.size()).second) {
          lines.push_back(r.line);
        }
      }
    }
  }
  AnswerSet expected = ReferenceAnswers(ref.engine(), ref.db(), lines);
  if (inject_wrong_answer && !lines.empty()) {
    CorruptAnswer(&expected.answers[0]);
  }
  size_t failed = 0;
  for (PassResult* pass : passes) {
    for (auto& client : pass->clients) {
      for (ReadRecord& r : client) {
        const size_t i = index.at(*r.line);
        r.failed = ResponseFailed(r) || !expected.ok[i] ||
                   r.answer != expected.answers[i];
      }
    }
    failed += ReportFailedReads(*pass);
  }
  return failed;
}

/// Write workloads: replays the acknowledged batches on a fresh reference world
/// one generation at a time, and accepts a read when its answer equals the
/// reference at some generation in its [gen_lo, gen_hi] window. Returns the
/// number of failed reads; `ref` is left at the final generation.
size_t CheckReadsAcrossGenerations(
    PassResult* pass, const std::vector<mutation::MutationBatch>& history,
    ReferenceWorld* ref, bool inject_wrong_answer) {
  std::vector<ReadRecord*> pending;
  for (auto& client : pass->clients) {
    for (ReadRecord& r : client) {
      r.failed = true;  // Until some generation matches.
      if (!ResponseFailed(r)) pending.push_back(&r);
    }
  }
  for (uint64_t g = 0; g <= history.size(); ++g) {
    if (g > 0) ref->Apply(history[g - 1]);
    std::unordered_map<std::string, size_t> index;
    std::vector<const std::string*> lines;
    for (ReadRecord* r : pending) {
      if (r->failed && r->gen_lo <= g && g <= r->gen_hi &&
          index.emplace(*r->line, lines.size()).second) {
        lines.push_back(r->line);
      }
    }
    AnswerSet expected = ReferenceAnswers(ref->engine(), ref->db(), lines);
    if (inject_wrong_answer && g == 0) {
      for (auto& answer : expected.answers) CorruptAnswer(&answer);
    }
    for (ReadRecord* r : pending) {
      if (!r->failed || r->gen_lo > g || g > r->gen_hi) continue;
      const size_t i = index.at(*r->line);
      if (expected.ok[i] && r->answer == expected.answers[i]) {
        r->failed = false;
      }
    }
  }
  return ReportFailedReads(*pass);
}

/// The WAL must hold exactly the acknowledged batches, in order.
bool CheckWal(const std::string& path,
              const std::vector<mutation::MutationBatch>& acked,
              const std::vector<BatchRecord>& batches, bool inject_drop) {
  if (inject_drop && !batches.empty()) {
    struct stat st {};
    TSB_CHECK(::stat(path.c_str(), &st) == 0);
    const off_t last = static_cast<off_t>(batches.back().wal_bytes);
    TSB_CHECK(::truncate(path.c_str(), std::max<off_t>(0, st.st_size - last)) ==
              0);
  }
  mutation::DeltaLog reopened;
  std::vector<mutation::MutationBatch> replayed;
  auto stats = reopened.Open(path, &replayed);
  reopened.Close();
  if (!stats.ok()) {
    std::printf("wal check: reopen failed: %s\n",
                stats.status().ToString().c_str());
    return false;
  }
  const bool ok = replayed == acked;
  std::printf("wal check: %zu records, %zu acknowledged batches: %s\n",
              replayed.size(), acked.size(), ok ? "ok" : "MISMATCH");
  return ok;
}

std::string GridLine(const std::string& method, const std::string& partner) {
  const bool topk = method.find("topk") != std::string::npos;
  return (topk ? "TOPK k=10 " : "TOP ") + std::string("method=") + method +
         " set1=Protein set2=" + partner;
}

/// After a write pass: 8 methods x 3 pairs through the live service and the
/// executor must equal a from-scratch rebuild of the mutated graph.
size_t CheckOracleGrid(Deployment& d,
                       const std::vector<mutation::MutationBatch>& history) {
  OracleWorld oracle(d.params(), history, *d.PrimarySnapshot());
  service::RequestParser live_parser(&d.db());
  service::RequestParser oracle_parser(&oracle.db());
  size_t mismatches = 0;
  size_t probes = 0;
  WaitSink sink;
  for (const auto& pair : Pairs()) {
    for (const char* method : kGridMethods) {
      const std::string line = GridLine(method, pair.second);
      auto live = live_parser.Parse(line);
      auto ref = oracle_parser.Parse(line);
      TSB_CHECK(live.ok() && ref.ok()) << line;
      auto expected = oracle.engine().Execute(ref->query, ref->method);
      wire::WireRequest request;
      request.id = ++probes;
      request.query = live->query;
      request.method = live->method;
      d.service().Submit(request, sink);
      wire::WireResponse served = sink.Wait();
      auto direct = d.executor().Execute(live->query, live->method);
      const bool ok = expected.ok() && served.error.ok() &&
                      !served.result.partial && direct.ok() &&
                      !direct->partial &&
                      served.result.entries == expected->entries &&
                      direct->entries == expected->entries;
      if (!ok) {
        ++mismatches;
        std::printf("oracle grid: MISMATCH %s\n", line.c_str());
      }
    }
  }
  std::printf("oracle grid: %zu probes, %zu mismatches\n", probes, mismatches);
  return mismatches;
}

// ---------------------------------------------------------------------------
// Traced replay: direct executor, reference engine, codec, socket tax
// ---------------------------------------------------------------------------

struct ReplaySample {
  double submit_s = 0.0;   // The served miss's Submit span.
  double execute_s = 0.0;  // Direct ScatterGatherExecutor::Execute.
  double engine_s = 0.0;   // Reference single-store Engine::Execute.
  double engine_cpu_s = 0.0;
  double codec_s = 0.0;    // Encode+decode of request and response.
  bool mismatch = false;
};

std::vector<ReplaySample> ReplayMisses(
    Deployment& d, ReferenceWorld& ref,
    const std::vector<const ReadRecord*>& misses, size_t threads) {
  std::vector<const ReadRecord*> sample;
  const size_t n = std::min(misses.size(), kReplayMax);
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(misses[i * misses.size() / n]);
  }
  service::RequestParser live_parser(&d.db());
  service::RequestParser ref_parser(&ref.db());
  std::vector<ReplaySample> out(sample.size());
  std::vector<engine::QueryResult> direct(sample.size());
  // Two phases, each on as many threads as the pass had clients, so the
  // executor runs under the load the served misses saw and is not
  // slowed by reference executions running beside it.
  ParallelFor(sample.size(), threads, [&](size_t i) {
    auto live = live_parser.Parse(*sample[i]->line);
    TSB_CHECK(live.ok());
    const Clock::time_point t0 = Clock::now();
    auto result =
        d.executor().Execute(live->query, live->method, live->options);
    out[i].execute_s = Seconds(t0, Clock::now());
    out[i].submit_s = sample[i]->submit_s;
    if (result.ok()) {
      direct[i] = std::move(*result);
    } else {
      out[i].mismatch = true;
    }
  });
  ParallelFor(sample.size(), threads, [&](size_t i) {
    ReplaySample& s = out[i];
    auto parsed = ref_parser.Parse(*sample[i]->line);
    TSB_CHECK(parsed.ok());
    const double cpu0 = ThreadCpuSeconds();
    Clock::time_point t0 = Clock::now();
    auto expected =
        ref.engine().Execute(parsed->query, parsed->method, parsed->options);
    s.engine_s = Seconds(t0, Clock::now());
    s.engine_cpu_s = ThreadCpuSeconds() - cpu0;
    s.mismatch = s.mismatch || !expected.ok() || direct[i].partial ||
                 direct[i].entries != expected->entries;

    t0 = Clock::now();
    wire::WireRequest request;
    request.id = i + 1;
    request.query = parsed->query;
    request.method = parsed->method;
    request.options = parsed->options;
    std::string frame;
    wire::EncodeQueryRequest(request, &frame);
    auto decoded_request = wire::DecodeQueryRequest(frame, ref.db());
    wire::WireResponse response;
    response.request_id = request.id;
    response.result = direct[i];
    std::string reply;
    wire::EncodeQueryResponse(response, &reply);
    auto decoded_response = wire::DecodeQueryResponse(reply);
    s.codec_s = Seconds(t0, Clock::now());
    s.mismatch = s.mismatch || !decoded_request.ok() ||
                 !decoded_response.ok() ||
                 decoded_response->result.entries != direct[i].entries;
  });
  return out;
}

/// Added wall time per wire frame of the UDS fleet transport over the
/// executor's in-process loopback: misses replayed one at a time through
/// both, alternating which goes first; the median per-request difference
/// divided by that request's frame count.
double SocketTaxMicros(Deployment& d,
                       const std::vector<const ReadRecord*>& misses) {
  service::RequestParser parser(&d.db());
  const size_t n = std::min(misses.size(), kSocketTaxSamples);
  wire::ShardTransport* fleet = &d.transport();
  std::vector<double> tax_us;
  for (size_t i = 0; i < n; ++i) {
    auto parsed = parser.Parse(*misses[i * misses.size() / n]->line);
    TSB_CHECK(parsed.ok());
    double socket_s = 0.0;
    double loopback_s = 0.0;
    uint64_t frames = 0;
    for (int turn = 0; turn < 2; ++turn) {
      const bool socket = (turn == 0) == (i % 2 == 0);
      d.executor().set_transport(socket ? fleet : nullptr);
      const uint64_t before =
          d.executor().GetScatterStats().transport_subqueries;
      const Clock::time_point t0 = Clock::now();
      auto result =
          d.executor().Execute(parsed->query, parsed->method, parsed->options);
      (socket ? socket_s : loopback_s) = Seconds(t0, Clock::now());
      if (socket) {
        frames = d.executor().GetScatterStats().transport_subqueries - before;
      }
      TSB_CHECK(result.ok());
    }
    if (frames > 0) {
      tax_us.push_back(1e6 * (socket_s - loopback_s) /
                       static_cast<double>(frames));
    }
  }
  d.executor().set_transport(fleet);
  return Quantile(tax_us, 0.5);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct ReadSummary {
  size_t reads = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> round_qps;
  std::vector<double> round_hit_share;
};

/// qps, p50, p95 and CPU per read are medians of their values in each
/// round; p99 is taken over every timed read.
ReadSummary SummarizeReads(const PassResult& pass) {
  ReadSummary s;
  std::vector<double> latencies;
  std::vector<std::vector<double>> by_round(pass.rounds.size());
  std::vector<double> hits(pass.rounds.size(), 0.0);
  for (const ReadRecord* r : pass.TimedReads()) {
    const double ms = 1e3 * (r->end_s - r->start_s);
    latencies.push_back(ms);
    for (size_t k = 0; k < pass.rounds.size(); ++k) {
      if (pass.rounds[k].Holds(*r)) {
        by_round[k].push_back(ms);
        hits[k] += r->from_cache;
        break;
      }
    }
  }
  s.reads = latencies.size();
  s.p99_ms = Quantile(latencies, 0.99);
  std::vector<double> qps, p50, p95, cpu;
  for (size_t k = 0; k < pass.rounds.size(); ++k) {
    const Round& round = pass.rounds[k];
    const double n = static_cast<double>(by_round[k].size());
    if (n == 0) continue;
    qps.push_back(n / (round.end_s - round.start_s));
    s.round_hit_share.push_back(hits[k] / n);
    p50.push_back(Quantile(by_round[k], 0.50));
    p95.push_back(Quantile(by_round[k], 0.95));
    cpu.push_back(1e3 * round.cpu_s / n);
  }
  s.round_qps = qps;
  s.qps = Quantile(qps, 0.5);
  s.p50_ms = Quantile(p50, 0.5);
  s.p95_ms = Quantile(p95, 0.5);
  s.cpu_ms = Quantile(cpu, 0.5);
  return s;
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::vector<const ReadRecord*> TimedMisses(const PassResult& pass) {
  std::vector<const ReadRecord*> misses;
  for (const ReadRecord* r : pass.TimedReads()) {
    if (!r->from_cache && r->code == wire::WireErrorCode::kOk) {
      misses.push_back(r);
    }
  }
  return misses;
}

/// The per-layer ledger of one traced pass.
std::vector<Metric> LayerMetrics(const PassResult& traced,
                                 const ReadSummary& untraced_reads,
                                 const std::vector<ReplaySample>& replay,
                                 double socket_tax_us,
                                 double wal_append_ms_p50) {
  const ReadSummary reads = SummarizeReads(traced);
  std::vector<double> parse_us, hit_us, miss_ms;
  uint64_t rejected = 0;
  double served_cpu_ns = 0.0, exec_seconds = 0.0;
  double rows = 0, probes = 0, checks = 0, blocks = 0, skipped = 0;
  size_t row_path = 0, misses = 0;
  for (const ReadRecord* r : traced.TimedReads()) {
    parse_us.push_back(1e6 * r->parse_s);
    if (r->code == wire::WireErrorCode::kOverloaded ||
        r->code == wire::WireErrorCode::kDeadlineExceeded) {
      ++rejected;
    }
    if (r->code != wire::WireErrorCode::kOk) continue;
    if (r->from_cache) {
      hit_us.push_back(1e6 * r->submit_s);
      continue;
    }
    ++misses;
    miss_ms.push_back(1e3 * r->submit_s);
    served_cpu_ns += static_cast<double>(r->stats.cpu_ns);
    exec_seconds += r->stats.seconds;
    rows += static_cast<double>(r->stats.rows_scanned);
    probes += static_cast<double>(r->stats.probes);
    checks += static_cast<double>(r->stats.online_checks);
    blocks += static_cast<double>(r->stats.blocks_total);
    skipped += static_cast<double>(r->stats.blocks_skipped);
    if (r->stats.blocks_total == 0) ++row_path;
  }
  const double nmiss = static_cast<double>(misses);

  std::vector<double> overhead_us, execute_ms, tax_ms, engine_ms, engine_cpu_ms,
      codec_us;
  for (const ReplaySample& s : replay) {
    overhead_us.push_back(1e6 * (s.submit_s - s.execute_s));
    execute_ms.push_back(1e3 * s.execute_s);
    tax_ms.push_back(1e3 * (s.execute_s - s.engine_s));
    engine_ms.push_back(1e3 * s.engine_s);
    engine_cpu_ms.push_back(1e3 * s.engine_cpu_s);
    codec_us.push_back(1e6 * s.codec_s);
  }

  const LayerCounters& a = traced.before;
  const LayerCounters& b = traced.after;
  const double cache_hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double cache_lookups =
      cache_hits + static_cast<double>(b.cache.misses - a.cache.misses);
  const double queries =
      static_cast<double>(b.scatter.queries - a.scatter.queries);
  const double subqueries =
      static_cast<double>(b.scatter.subqueries - a.scatter.subqueries);
  const double sends = static_cast<double>(b.scatter.transport_subqueries -
                                           a.scatter.transport_subqueries);
  const double wire_bytes =
      static_cast<double>((b.scatter.transport_bytes_sent +
                           b.scatter.transport_bytes_received) -
                          (a.scatter.transport_bytes_sent +
                           a.scatter.transport_bytes_received));
  double attempts = 0, hedges = 0, failovers = 0;
  for (size_t s = 0; s < b.replica.shards.size(); ++s) {
    const auto& bs = b.replica.shards[s];
    const auto& as = a.replica.shards[s];
    hedges += static_cast<double>(bs.hedges_launched - as.hedges_launched);
    failovers += static_cast<double>(bs.failovers - as.failovers);
    for (size_t r = 0; r < bs.replicas.size(); ++r) {
      attempts += static_cast<double>(bs.replicas[r].attempts -
                                      as.replicas[r].attempts);
    }
  }
  const double cpu_s = b.cpu.total() - a.cpu.total();
  const double sys_s = b.cpu.sys - a.cpu.sys;

  // Mutation ledger (zero on the read-only workloads).
  std::vector<double> apply_ms, ack_ms, due_ms;
  double pairs = 0, evicted = 0, lag_max_ms = 0, wal_bytes = 0, ops = 0;
  size_t timed_batches = 0, cache_only = 0;
  for (const BatchRecord& batch : traced.batches) {
    wal_bytes += static_cast<double>(batch.wal_bytes);
    ops += static_cast<double>(batch.ops);
    if (batch.warmup || !batch.ok) continue;
    ++timed_batches;
    apply_ms.push_back(1e3 * batch.apply_seconds);
    ack_ms.push_back(1e3 * (batch.call_s - batch.apply_seconds));
    due_ms.push_back(1e3 * (batch.ack_s - batch.due_s));
    pairs += static_cast<double>(batch.structural_pairs);
    evicted += static_cast<double>(batch.evicted);
    if (batch.structural_pairs == 0) ++cache_only;
    lag_max_ms = std::max(lag_max_ms, 1e3 * (batch.start_s - batch.due_s));
  }
  const double nb = static_cast<double>(timed_batches);

  return {
      {"service.parse_us_p50", Quantile(parse_us, 0.5), "us"},
      {"service.hit_us_p50", Quantile(hit_us, 0.5), "us"},
      {"service.hit_us_p99", Quantile(hit_us, 0.99), "us"},
      {"service.miss_ms_p50", Quantile(miss_ms, 0.5), "ms"},
      {"service.miss_ms_p99", Quantile(miss_ms, 0.99), "ms"},
      {"service.cache_hit_ratio", Ratio(cache_hits, cache_lookups), "ratio"},
      {"service.cache_evictions_per_s",
       Ratio(static_cast<double>(b.cache.evictions - a.cache.evictions),
             traced.wall_s()),
       "1/s"},
      {"service.cache_bytes", static_cast<double>(b.cache.bytes), "bytes"},
      {"service.overhead_us_p50", Quantile(overhead_us, 0.5), "us"},
      {"service.rejected", static_cast<double>(rejected), "count"},
      {"shard.fanout", Ratio(subqueries, queries), "shards"},
      {"shard.single_shard_frac",
       Ratio(static_cast<double>(b.scatter.single_shard_queries -
                                 a.scatter.single_shard_queries),
             queries),
       "ratio"},
      {"shard.execute_ms_p50", Quantile(execute_ms, 0.5), "ms"},
      {"shard.execute_ms_p99", Quantile(execute_ms, 0.99), "ms"},
      {"shard.scatter_tax_ms_p50", Quantile(tax_ms, 0.5), "ms"},
      {"shard.merge_frac",
       Ratio(b.scatter.merge_seconds - a.scatter.merge_seconds, exec_seconds),
       "ratio"},
      {"shard.degraded_queries",
       static_cast<double>(b.scatter.degraded_queries -
                           a.scatter.degraded_queries),
       "count"},
      {"engine.execute_ms_p50", Quantile(engine_ms, 0.5), "ms"},
      {"engine.execute_ms_p99", Quantile(engine_ms, 0.99), "ms"},
      {"engine.cpu_ms_per_query", Mean(engine_cpu_ms), "ms"},
      {"engine.rows_scanned_per_query", Ratio(rows, nmiss), "rows"},
      {"engine.probes_per_query", Ratio(probes, nmiss), "probes"},
      {"engine.online_checks_per_query", Ratio(checks, nmiss), "checks"},
      {"columnar.block_skip_ratio", Ratio(skipped, blocks), "ratio"},
      {"columnar.row_path_frac", Ratio(static_cast<double>(row_path), nmiss),
       "ratio"},
      {"wire.bytes_per_subquery", Ratio(wire_bytes, sends), "bytes"},
      {"wire.codec_us_p50", Quantile(codec_us, 0.5), "us"},
      {"net.socket_tax_us_per_frame", socket_tax_us, "us"},
      {"replica.attempts_per_send", Ratio(attempts, sends), "attempts"},
      {"replica.hedges_per_1k", Ratio(1000.0 * hedges, sends), "count"},
      {"replica.failovers", failovers, "count"},
      {"mutation.apply_ms_p50", Quantile(apply_ms, 0.5), "ms"},
      {"mutation.ack_overhead_ms_p50", Quantile(ack_ms, 0.5), "ms"},
      {"mutation.wal_append_ms_p50", wal_append_ms_p50, "ms"},
      {"mutation.structural_pairs_per_batch", Ratio(pairs, nb), "pairs"},
      {"mutation.cache_only_frac", Ratio(static_cast<double>(cache_only), nb),
       "ratio"},
      {"mutation.evicted_entries_per_batch", Ratio(evicted, nb), "entries"},
      {"mutation.compaction_rounds",
       static_cast<double>(traced.compaction_rounds), "count"},
      {"mutation.max_uncompacted_generations",
       static_cast<double>(traced.max_uncompacted), "count"},
      {"mutation.schedule_lag_ms_max", lag_max_ms, "ms"},
      {"apply_p50_ms", Quantile(due_ms, 0.5), "ms"},
      {"wal_bytes_per_op", Ratio(wal_bytes, ops), "bytes"},
      {"obs.trace_overhead_pct",
       100.0 * Ratio(reads.p50_ms - untraced_reads.p50_ms,
                     untraced_reads.p50_ms),
       "%"},
      {"obs.cpu_attributed_frac", Ratio(1e-9 * served_cpu_ns, cpu_s), "ratio"},
      {"proc.sys_cpu_frac", Ratio(sys_s, cpu_s), "ratio"},
      {"read_p99_ms", reads.p99_ms, "ms"},
  };
}

/// Median wall time of appending each scheduled batch to a side WAL.
double SideWalAppendMs(const std::string& path,
                       const std::vector<ScheduledBatch>& schedule) {
  if (schedule.empty()) return 0.0;
  std::remove(path.c_str());
  mutation::DeltaLog side;
  std::vector<mutation::MutationBatch> replayed;
  TSB_CHECK(side.Open(path, &replayed).ok());
  std::vector<double> ms;
  for (const ScheduledBatch& b : schedule) {
    const Clock::time_point t0 = Clock::now();
    TSB_CHECK(side.Append(b.batch).ok());
    ms.push_back(1e3 * Seconds(t0, Clock::now()));
  }
  side.Close();
  std::remove(path.c_str());
  return Quantile(ms, 0.5);
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct Streams {
  std::vector<ClientStream> clients;
  std::vector<ScheduledBatch> schedule;
};

Streams MakeStreams(const RunOptions& opt, const IdRanges& ids) {
  Streams s;
  const double secs = std::max(1.0, opt.seconds);
  switch (opt.workload) {
    case Workload::kReadZipf:
      s.clients = MakeZipfStreams(
          opt.seed, MakeCatalogue(opt.seed, ids), kClients,
          kZipfWarmupPerClient,
          static_cast<size_t>(kZipfRequestsPerSecond * secs));
      break;
    case Workload::kReadCold:
      s.clients = MakeColdStreams(
          opt.seed, ids, kClients, kColdWarmupPerClient,
          static_cast<size_t>(kColdRequestsPerSecond * secs));
      break;
    case Workload::kWriteMixed:
    case Workload::kWritePhased: {
      // write-mixed readers cycle over their streams until the writer
      // finishes; write-phased readers send theirs once, a slice per round.
      const bool phased = opt.workload == Workload::kWritePhased;
      s.clients = MakeZipfStreams(
          opt.seed, MakeCatalogue(opt.seed, ids), kClients - 1,
          kZipfWarmupPerClient,
          static_cast<size_t>(
              (phased ? kPhasedRequestsPerSecond : kZipfRequestsPerSecond) *
              secs));
      s.schedule = MakeWriteSchedule(
          opt.seed, ids,
          1 + static_cast<size_t>(std::lround(secs / kWriteIntervalSeconds)));
      break;
    }
  }
  return s;
}

void PrintDigests(const RunOptions& opt, const Streams& s) {
  std::printf("workload %s seed %llu\n", WorkloadName(opt.workload),
              static_cast<unsigned long long>(opt.seed));
  std::vector<std::string> all;
  for (size_t c = 0; c < s.clients.size(); ++c) {
    std::vector<std::string> lines = s.clients[c].warmup;
    lines.insert(lines.end(), s.clients[c].timed.begin(),
                 s.clients[c].timed.end());
    std::printf("digest client%zu %s (%zu lines)\n", c,
                DigestLines(lines).c_str(), lines.size());
    all.insert(all.end(), lines.begin(), lines.end());
  }
  std::printf("digest streams %s\n", DigestLines(all).c_str());
  if (!s.schedule.empty()) {
    std::printf("digest writer %s (%zu batches)\n",
                DigestSchedule(s.schedule).c_str(), s.schedule.size());
  }
}

/// Outcome of one pass over a fresh or existing deployment, with checks.
struct CheckedPass {
  PassResult pass;
  size_t attempted = 0;
  size_t failed = 0;  // Reads, batches, WAL and oracle grid.
  double peak_rss_mb = 0.0;  // Before the checks build their worlds.
  std::unique_ptr<ReferenceWorld> final_reference;  // At the last batch.
};

std::vector<mutation::MutationBatch> AckedHistory(
    const std::vector<ScheduledBatch>& schedule,
    const std::vector<BatchRecord>& batches) {
  std::vector<mutation::MutationBatch> acked;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (batches[i].ok) acked.push_back(schedule[i].batch);
  }
  return acked;
}

/// Write pass (write-mixed or write-phased) on `d`, with the WAL,
/// cross-generation, and oracle checks. Leaves `d` mutated.
CheckedPass WritePass(Deployment& d, const RunOptions& opt, const Streams& s,
                      bool traced) {
  CheckedPass out;
  const std::string wal_path =
      std::string(kRunDir) + "/" + WorkloadName(opt.workload) + ".wal";
  std::remove(wal_path.c_str());
  mutation::DeltaLog log;
  std::vector<mutation::MutationBatch> replayed;
  TSB_CHECK(log.Open(wal_path, &replayed).ok());
  out.pass = RunWritePass(d, s.clients, s.schedule, &log,
                          opt.workload == Workload::kWritePhased, traced);
  out.peak_rss_mb = PeakRssMb();
  log.Close();
  Progress("write pass done");

  for (size_t i = 0; i < out.pass.batches.size(); ++i) {
    const BatchRecord& b = out.pass.batches[i];
    std::printf("batch %zu %s: due %.3fs start %.3fs ack %.3fs apply %.1fms "
                "%zu restaged pairs %llu evicted%s\n",
                i, b.structural ? "structural" : "attribute", b.due_s,
                b.start_s, b.ack_s, 1e3 * b.apply_seconds, b.structural_pairs,
                static_cast<unsigned long long>(b.evicted),
                b.ok ? "" : " FAILED");
  }
  const std::vector<mutation::MutationBatch> acked =
      AckedHistory(s.schedule, out.pass.batches);
  const size_t batch_failures = s.schedule.size() - acked.size();
  const bool wal_ok = CheckWal(wal_path, acked, out.pass.batches,
                               opt.inject == "drop-wal");
  std::remove(wal_path.c_str());
  Progress("wal checked");
  out.final_reference = std::make_unique<ReferenceWorld>(d.params());
  const size_t read_failures = CheckReadsAcrossGenerations(
      &out.pass, acked, out.final_reference.get(),
      opt.inject == "wrong-answer");
  Progress("reads checked across generations");
  const size_t grid_mismatches = CheckOracleGrid(d, acked);
  Progress("oracle grid checked");
  for (const auto& client : out.pass.clients) out.attempted += client.size();
  out.attempted += s.schedule.size() + 8 * Pairs().size();
  out.failed =
      read_failures + batch_failures + grid_mismatches + (wal_ok ? 0 : 1);
  return out;
}

}  // namespace

int RunBenchmark(const RunOptions& opt) {
  Progress("run started");
  WorldParams params;
  params.seed = opt.seed;

  if (opt.digest_only) {
    // The streams depend on the seed and the generated world's ID ranges.
    ReferenceWorld world(params);
    PrintDigests(opt, MakeStreams(opt, ReadIdRanges(world.db())));
    return 0;
  }

  // Set-up, repeated; the last deployment serves the run.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;
  for (size_t i = 0; i < kSetups; ++i) {
    d.reset();
    d = std::make_unique<Deployment>(params, kRunDir, i);
    setups.push_back(d->times());
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };
  const double setup_s = median_of(&SetupTimes::total_s);
  std::printf("setups:");
  for (const SetupTimes& t : setups) std::printf(" %.3fs", t.total_s);
  std::printf("\n");
  Progress("set-ups done");

  const Streams streams = MakeStreams(opt, ReadIdRanges(d->db()));
  PrintDigests(opt, streams);
  std::fflush(stdout);

  const bool writes = opt.workload == Workload::kWriteMixed ||
                      opt.workload == Workload::kWritePhased;
  const bool inject_wrong = opt.inject == "wrong-answer";
  size_t attempted = 0;
  size_t failed = 0;

  // --- Untraced pass: the end-to-end metrics ------------------------------
  ReadSummary untraced;
  double peak_rss_mb = 0.0;
  std::unique_ptr<ReferenceWorld> reference;
  PassResult untraced_pass;
  if (writes) {
    CheckedPass checked = WritePass(*d, opt, streams, /*traced=*/false);
    untraced = SummarizeReads(checked.pass);
    peak_rss_mb = checked.peak_rss_mb;
    attempted += checked.attempted;
    failed += checked.failed;
    untraced_pass = std::move(checked.pass);
  } else {
    untraced_pass = RunReadPass(*d, streams.clients, /*traced=*/false);
    Progress("untraced read pass done");
    untraced = SummarizeReads(untraced_pass);
    peak_rss_mb = PeakRssMb();
  }

  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"read_qps", untraced.qps, "1/s"},
      {"read_p50_ms", untraced.p50_ms, "ms"},
      {"read_p95_ms", untraced.p95_ms, "ms"},
      {"read_cpu_ms", untraced.cpu_ms, "ms"},
  };
  {
    size_t hits = 0;
    for (const ReadRecord* r : untraced_pass.TimedReads()) {
      hits += r->from_cache;
    }
    std::printf("\nuntraced pass: %zu timed reads in %.3fs, "
                "%.1f%% from cache\n",
                untraced.reads, untraced_pass.wall_s(),
                100.0 * Ratio(static_cast<double>(hits),
                              static_cast<double>(untraced.reads)));
  }
  std::printf("rounds (read_qps, share from cache):");
  for (size_t k = 0; k < untraced.round_qps.size(); ++k) {
    std::printf(" %.0f/%.3f", untraced.round_qps[k],
                untraced.round_hit_share[k]);
  }
  std::printf("\npeak RSS after the timed pass: %.1f MB\n", peak_rss_mb);

  std::vector<Metric> layers;
  if (!opt.trace) {
    if (!writes) {
      reference = std::make_unique<ReferenceWorld>(params);
      std::vector<PassResult*> passes = {&untraced_pass};
      for (const auto& client : untraced_pass.clients) {
        attempted += client.size();
      }
      failed += CheckReadsStatic(passes, *reference, inject_wrong);
    }
  } else {
    // --- Traced pass on a fresh deployment: the per-layer ledger ---------
    if (writes) d.reset();  // The write schedule needs the unmutated world.
    if (d == nullptr) {
      d = std::make_unique<Deployment>(params, kRunDir, kSetups);
    }
    PassResult traced_pass;
    if (writes) {
      CheckedPass checked = WritePass(*d, opt, streams, /*traced=*/true);
      attempted += checked.attempted;
      failed += checked.failed;
      traced_pass = std::move(checked.pass);
      reference = std::move(checked.final_reference);
    } else {
      traced_pass = RunReadPass(*d, streams.clients, /*traced=*/true);
      Progress("traced read pass done");
      reference = std::make_unique<ReferenceWorld>(params);
      std::vector<PassResult*> passes = {&untraced_pass, &traced_pass};
      for (PassResult* p : passes) {
        for (const auto& client : p->clients) attempted += client.size();
      }
      failed += CheckReadsStatic(passes, *reference, inject_wrong);
    }

    const std::vector<const ReadRecord*> misses = TimedMisses(traced_pass);
    const std::vector<ReplaySample> replay =
        ReplayMisses(*d, *reference, misses, traced_pass.clients.size());
    Progress("replay done");
    size_t replay_mismatches = 0;
    for (const ReplaySample& s : replay) replay_mismatches += s.mismatch;
    attempted += replay.size();
    failed += replay_mismatches;
    const double socket_tax = SocketTaxMicros(*d, misses);
    Progress("socket tax measured");
    const double wal_append_ms =
        SideWalAppendMs(std::string(kRunDir) + "/side.wal", streams.schedule);
    layers = LayerMetrics(traced_pass, untraced, replay, socket_tax,
                          wal_append_ms);
    const std::vector<Metric> setup_layers = {
        {"biozon.generate_s", median_of(&SetupTimes::generate_s), "s"},
        {"core.build_s", median_of(&SetupTimes::build_s), "s"},
        {"core.prune_s", median_of(&SetupTimes::prune_s), "s"},
        {"engine.index_s", median_of(&SetupTimes::index_s), "s"},
        {"core.alltops_rows", static_cast<double>(setups.back().alltops_rows),
         "rows"},
    };
    layers.insert(layers.begin(), setup_layers.begin(), setup_layers.end());
    layers.push_back({"proc.peak_rss_mb", peak_rss_mb, "MB"});
    layers.push_back({"failed_frac",
                      Ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
                      "ratio"});

    // The read-path decomposition: reference engine time, plus what
    // scatter-gather adds, plus what the service adds, against the served
    // miss time. The residual is what the three do not account for.
    auto value = [&](const std::string& name) {
      for (const Metric& m : layers) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    const double engine_ms = value("engine.execute_ms_p50");
    const double tax_ms = value("shard.scatter_tax_ms_p50");
    const double overhead_ms = value("service.overhead_us_p50") / 1e3;
    const double miss_ms = value("service.miss_ms_p50");
    std::printf(
        "\nmiss decomposition (p50s, %zu replayed misses):\n"
        "  engine.execute %.4f ms + shard.scatter_tax %.4f ms + "
        "service.overhead %.4f ms = %.4f ms\n"
        "  service.miss_ms_p50 %.4f ms, residual %.4f ms\n",
        replay.size(), engine_ms, tax_ms, overhead_ms,
        engine_ms + tax_ms + overhead_ms, miss_ms,
        miss_ms - (engine_ms + tax_ms + overhead_ms));
  }

  const bool correct = failed == 0;
  PrintMetrics("end-to-end (untraced pass)", e2e);
  if (opt.trace) PrintMetrics("per-layer ledger (traced pass)", layers);
  std::printf("\nchecks: %zu operations, %zu failed -> %s\n", attempted, failed,
              correct ? "correct" : "INCORRECT");
  d.reset();
  reference.reset();
  PrintJson(correct, attempted, failed, opt.trace ? layers : e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
