// service: a real sched_server process on the paper machine, driven by one
// client in a closed loop over one pipe connection — a resource manager
// that waits for each decision before it sends the next event.
//
// The client plays the member's job log and failure trace as protocol
// events. Completes are computed from the start decisions (a kill cancels
// the pending complete; the restart re-arms it), failures carry
// "down":true and are followed by a repair after a fixed downtime, and a
// failure of a node that is already down is not sent. The server runs
// balancing with the adaptive predictor, --downfor and --no-migration, so
// this workload feeds the predictor's observe_failure/observe_repair path
// and bypasses migration.
//
// One session = one server spawn + the member's whole stream. A run repeats
// rounds (one session per member) for the measured time; every session of
// a member must return byte-identical decisions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/counters.hpp"
#include "obs/reader.hpp"
#include "predict/registry.hpp"
#include "sim/metrics.hpp"
#include "svc/protocol.hpp"
#include "torus/catalog.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using namespace bgl;

constexpr Dims kDims{4, 4, 8};
constexpr int kJobs = 15000;        ///< Jobs per member.
constexpr int kPinnedMembers = 1;   ///< Identical for every --seed.
constexpr int kSeededMembers = 1;   ///< Drawn from --seed.
constexpr int kSetupRepeats = 5;    ///< Input generations per run.
constexpr double kDowntime = 3600.0;  ///< Seconds from a failure to its repair.
constexpr double kAlpha = 0.1;        ///< The adaptive predictor's confidence.
/// Forecast-quality windows of the adaptive predictor's evaluation, s.
constexpr double kQualityWindow = 6.0 * 3600.0;

enum EventType { kSubmit, kComplete, kFail, kRepair, kNumTypes };
constexpr const char* kTypeNames[kNumTypes] = {"submit", "complete", "fail",
                                               "repair"};

std::vector<std::string> server_args(const Args& args, bool traced,
                                     const std::string& stats_out,
                                     const std::string& trace_out) {
  std::vector<std::string> a = {
      args.server, "--dims", "4x4x8", "--scheduler", "balancing",
      "--alpha", format_double(kAlpha, 3), "--predictor", "adaptive",
      "--downfor", "--no-migration", "--stats-out", stats_out};
  if (traced) {
    a.insert(a.end(), {"--profile", "--trace-out", trace_out});
  }
  return a;
}

/// A sched_server child with its stdin/stdout on pipes.
class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& argv) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      throw std::runtime_error("cannot create pipes");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> cargv;
      for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::perror("perfbench: execv sched_server");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    write_fd_ = to_child[1];
    read_fd_ = from_child[0];
  }

  ~ServerProcess() {
    close_input();
    if (read_fd_ >= 0) ::close(read_fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  void write_line(const std::string& line) {
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(write_fd_, p, left);
      if (n <= 0) throw std::runtime_error("write to sched_server failed");
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Next reply line (without the newline); false at end of stream.
  bool read_line(std::string& line) {
    while (true) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > (1u << 16)) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close_input() {
    if (write_fd_ >= 0) ::close(write_fd_);
    write_fd_ = -1;
  }

  /// Waits for exit; returns the peak RSS in MB, -1 on abnormal exit.
  double wait_exit() {
    int status = 0;
    rusage ru{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return -1.0;
    }
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Numeric value following `"key":` at or after `from`; NaN when absent.
double number_after(const std::string& text, const std::string& key,
                    std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const auto at = text.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

struct Session {
  std::size_t events = 0;
  std::size_t jobs = 0;
  double stream_s = 0.0;  ///< First event written → last reply read.
  double spawn_s = 0.0;   ///< Spawn → first (in-band stats) reply.
  double rss_mb = 0.0;
  std::vector<double> rtt_us[kNumTypes];
  std::uint64_t decision_hash = 1469598103934665603ULL;
  std::size_t kills = 0;
  std::size_t migrations = 0;
  std::size_t errors = 0;
  std::size_t skipped_failures = 0;
  std::vector<FailureEvent> sent_failures;
  double bounded_slowdown = 0.0;  ///< Client-computed mean.
  double utilization = 0.0;       ///< Client-computed ω_util.
  std::string stats_line;         ///< The server's end-of-stream stats.
  std::string stats_json;         ///< The server's --stats-out dump.
  bool ok = true;
};

/// Plays `m` through a fresh server. `trace_out` non-empty = traced session.
Session run_session(const Args& args, const Member& m,
                    const std::string& trace_out, Report& report) {
  const std::string stats_out = args.work_dir + "/service-" + m.label + ".stats.json";
  Session s;
  const double spawn0 = now_s();
  ServerProcess server(server_args(args, !trace_out.empty(), stats_out, trace_out));
  std::string line;
  server.write_line("{\"type\":\"stats\",\"t\":0}\n");
  if (!server.read_line(line) || !starts_with(line, "{\"type\":\"stats\"")) {
    throw std::runtime_error("sched_server did not answer its first request: " + line);
  }
  s.spawn_s = now_s() - spawn0;

  const std::vector<Job>& jobs = m.workload.jobs;
  const std::vector<FailureEvent>& fails = m.trace.events();
  struct Pending {
    double t;
    std::uint64_t job;
    std::uint64_t gen;
  };
  const auto later = [](const Pending& a, const Pending& b) {
    return a.t > b.t || (a.t == b.t && a.job > b.job);
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> pending(later);
  std::vector<std::uint64_t> gen(jobs.size(), 0);
  std::deque<std::pair<double, int>> repairs;  // time-ordered: fixed downtime
  std::vector<char> down(static_cast<std::size_t>(kDims.volume()), 0);
  std::size_t next_job = 0;
  std::size_t next_fail = 0;
  std::size_t finished = 0;
  double slowdown_sum = 0.0;
  double work = 0.0;
  double max_finish = 0.0;
  const MetricsConfig metrics;

  std::string out;
  std::vector<std::string> decisions;
  obs::TraceRecord record;
  const double stream0 = now_s();
  while (true) {
    while (!pending.empty() && pending.top().gen != gen[pending.top().job]) pending.pop();
    // Stop once every job has finished: trailing failures and repairs are
    // not sent (the simulator's exit rule). Jobs can still wait on down
    // nodes after the last complete, so repairs keep flowing until then.
    if (finished == jobs.size()) break;
    // Earliest of complete / repair / fail / submit; ties in that order.
    constexpr double kNone = -1.0;
    const double tc = pending.empty() ? kNone : pending.top().t;
    const double tr = repairs.empty() ? kNone : repairs.front().first;
    const double tf = next_fail < fails.size() ? fails[next_fail].time : kNone;
    const double ts = next_job < jobs.size() ? jobs[next_job].arrival : kNone;
    auto first = [](double a, std::initializer_list<double> rest) {
      if (a < 0.0) return false;
      for (const double b : rest) {
        if (b >= 0.0 && b < a) return false;
      }
      return true;
    };
    svc::Event e;
    EventType type;
    if (first(tc, {tr, tf, ts})) {
      type = kComplete;
      e.kind = svc::EventKind::kComplete;
      e.time = tc;
      e.job = pending.top().job;
      pending.pop();
      const Job& j = jobs[e.job];
      JobOutcome o;
      o.arrival = j.arrival;
      o.finish = tc;
      o.runtime = j.runtime;
      slowdown_sum += bounded_slowdown(o, metrics);
      work += static_cast<double>(j.size) * j.runtime;
      max_finish = std::max(max_finish, tc);
      ++finished;
    } else if (first(tr, {tf, ts})) {
      type = kRepair;
      e.kind = svc::EventKind::kRepair;
      e.time = tr;
      e.node = repairs.front().second;
      repairs.pop_front();
      down[static_cast<std::size_t>(e.node)] = 0;
    } else if (first(tf, {ts})) {
      const FailureEvent& f = fails[next_fail++];
      if (down[static_cast<std::size_t>(f.node)] != 0) {
        ++s.skipped_failures;
        continue;
      }
      type = kFail;
      e.kind = svc::EventKind::kFail;
      e.time = tf;
      e.node = f.node;
      e.down = true;
      s.sent_failures.push_back(f);
      down[static_cast<std::size_t>(f.node)] = 1;
      repairs.emplace_back(tf + kDowntime, f.node);
    } else if (ts >= 0.0) {
      type = kSubmit;
      const Job& j = jobs[next_job];
      e.kind = svc::EventKind::kSubmit;
      e.time = j.arrival;
      e.job = next_job++;
      e.size = j.size;
      e.estimate = j.estimate;
      e.runtime = j.runtime;
    } else {
      report.fail(m.label + ": stream stalled with " +
                  std::to_string(jobs.size() - finished) + " jobs unfinished");
      s.ok = false;
      break;
    }

    out.clear();
    svc::append_event_line(out, e);
    decisions.clear();
    const double t0 = now_s();
    server.write_line(out);
    while (true) {
      if (!server.read_line(line)) {
        throw std::runtime_error("sched_server closed its replies mid-stream");
      }
      if (starts_with(line, "{\"type\":\"ok\"")) break;
      if (starts_with(line, "{\"type\":\"error\"")) {
        ++s.errors;
        report.fail(m.label + ": server rejected " + out + " with " + line);
        break;
      }
      decisions.push_back(line);
    }
    s.rtt_us[type].push_back((now_s() - t0) * 1e6);
    ++s.events;

    for (const std::string& d : decisions) {
      for (const char c : d) {
        s.decision_hash = (s.decision_hash ^ static_cast<unsigned char>(c)) *
                          1099511628211ULL;
      }
      obs::TraceReader::parse_line(d, s.events, record);
      const auto job = static_cast<std::uint64_t>(record.require_int("job"));
      if (record.type_name() == "start") {
        pending.push(Pending{record.t() + jobs[job].runtime, job, gen[job]});
      } else if (record.type_name() == "kill") {
        ++s.kills;
        ++gen[job];
      } else {
        ++s.migrations;
      }
    }
  }
  server.close_input();
  while (server.read_line(line)) {
    if (starts_with(line, "{\"type\":\"stats\"")) s.stats_line = line;
  }
  s.stream_s = now_s() - stream0;
  s.rss_mb = server.wait_exit();
  if (s.rss_mb < 0.0) {
    report.fail(m.label + ": sched_server exited abnormally");
    s.ok = false;
  }
  s.stats_json = read_file(stats_out);
  std::filesystem::remove(stats_out);

  s.jobs = jobs.size();
  const double n = static_cast<double>(finished);
  s.bounded_slowdown = n > 0.0 ? slowdown_sum / n : 0.0;
  const double span = max_finish - (jobs.empty() ? 0.0 : jobs.front().arrival);
  s.utilization = span > 0.0 ? work / (span * kDims.volume()) : 0.0;

  // Output checks: no error replies, every job finished on both sides, and
  // the client's bounded slowdown equals the server's.
  obs::TraceRecord stats;
  obs::TraceReader::parse_line(s.stats_line, 1, stats);
  if (s.errors != 0 || stats.require_int("rejected") != 0) {
    report.fail(m.label + ": error replies in the session");
    s.ok = false;
  }
  if (finished != jobs.size() ||
      stats.require_int("finished") != static_cast<std::int64_t>(jobs.size()) ||
      stats.require_int("waiting") != 0 || stats.require_int("running") != 0) {
    report.fail(m.label + ": not every job finished (client " +
                std::to_string(finished) + " of " + std::to_string(jobs.size()) +
                "; server " + s.stats_line + ")");
    s.ok = false;
  }
  const std::size_t hist = s.stats_json.find("\"job.bounded_slowdown\":{");
  const double server_slowdown =
      hist == std::string::npos ? std::nan("")
                                : number_after(s.stats_json, "mean", hist);
  // --stats-out prints the histogram mean with 6 decimals.
  if (!(std::fabs(server_slowdown - s.bounded_slowdown) <= 1e-6)) {
    report.fail(m.label + ": client bounded slowdown " +
                std::to_string(s.bounded_slowdown) + " != server " +
                std::to_string(server_slowdown));
    s.ok = false;
  }
  if (s.migrations != 0) {
    report.fail(m.label + ": migrations under --no-migration");
    s.ok = false;
  }
  report.tally(s.events, s.ok);
  return s;
}

struct Setup {
  std::vector<Member> members;
  std::vector<double> generate_s;  ///< Median generation time per member.
  double workload_generate_s = 0.0;
  double failure_generate_s = 0.0;
};

Setup set_up(std::uint64_t seed, Report& report) {
  Setup s;
  std::vector<std::vector<double>> per_member;
  std::vector<double> wl, fail;
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::vector<Member> members =
        make_members(kDims, kJobs, kPinnedMembers, kSeededMembers, seed);
    per_member.resize(members.size());
    double wl_s = 0.0, fail_s = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      per_member[i].push_back(members[i].workload_generate_s +
                              members[i].failure_generate_s);
      wl_s += members[i].workload_generate_s;
      fail_s += members[i].failure_generate_s;
    }
    wl.push_back(wl_s);
    fail.push_back(fail_s);
    if (r == 0) {
      s.members = std::move(members);
    } else if (!same_inputs(s.members, members)) {
      report.fail("set-up " + std::to_string(r) + " generated different inputs");
    }
  }
  for (const auto& v : per_member) s.generate_s.push_back(median(v));
  s.workload_generate_s = median(wl);
  s.failure_generate_s = median(fail);
  return s;
}

void print_session(const Member& m, const Session& s) {
  std::printf(
      "session %-8s events=%zu wall=%.3fs events_per_s=%.1f spawn=%.4fs "
      "rss=%.1fMB decisions=%016llx bounded_slowdown=%.6f utilization=%.6f "
      "job_kills=%zu skipped_failures=%zu\n",
      m.label.c_str(), s.events, s.stream_s,
      static_cast<double>(s.events) / s.stream_s, s.spawn_s, s.rss_mb,
      static_cast<unsigned long long>(s.decision_hash), s.bounded_slowdown,
      s.utilization, s.kills, s.skipped_failures);
}

/// Every later session of a member must take the first one's decisions.
void check_same_decisions(const Member& m, const Session& first,
                          const Session& s, Report& report) {
  if (s.decision_hash != first.decision_hash) {
    report.fail(m.label + ": decisions differ from the member's first session");
  }
}

/// One session per member, in member order.
using Round = std::vector<Session>;

Round run_round(const Args& args, const Setup& setup,
                const std::vector<Round>& earlier, Report& report) {
  Round round;
  for (std::size_t i = 0; i < setup.members.size(); ++i) {
    const Member& m = setup.members[i];
    round.push_back(run_session(args, m, "", report));
    print_session(m, round.back());
    if (!earlier.empty()) check_same_decisions(m, earlier.front()[i], round.back(), report);
  }
  return round;
}

void untraced_run(const Args& args, Report& report) {
  const Setup setup = set_up(args.seed, report);
  const double start = now_s();
  std::vector<Round> rounds;
  while (true) {
    const double elapsed = now_s() - start;
    const double round_s = rounds.empty() ? 0.0 : elapsed / static_cast<double>(rounds.size());
    if (rounds.size() >= 2 && elapsed + round_s > args.seconds) break;
    rounds.push_back(run_round(args, setup, rounds, report));
  }

  // Each member's session time is its median over rounds (see the DES
  // workloads); round trips pool every session's samples.
  double jobs = 0.0, events = 0.0, stream_s = 0.0;
  std::vector<double> rtt, setup_s, rss;
  for (std::size_t i = 0; i < setup.members.size(); ++i) {
    std::vector<double> wall;
    for (const Round& r : rounds) {
      const Session& s = r[i];
      wall.push_back(s.stream_s);
      for (const auto& v : s.rtt_us) rtt.insert(rtt.end(), v.begin(), v.end());
      setup_s.push_back(setup.generate_s[i] + s.spawn_s);
      rss.push_back(s.rss_mb);
    }
    jobs += static_cast<double>(rounds.front()[i].jobs);
    events += static_cast<double>(rounds.front()[i].events);
    stream_s += median(wall);
  }
  const Session& pinned = rounds.front().front();
  report.set("jobs_per_s", jobs / stream_s, "jobs/s");
  report.set("events_per_s", events / stream_s, "events/s");
  report.set("rtt_p50_us", quantile(rtt, 0.50), "us");
  report.set("rtt_p99_us", quantile(rtt, 0.99), "us");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", median(rss), "MB");
  report.set("bounded_slowdown", pinned.bounded_slowdown, "ratio");
  report.set("utilization", pinned.utilization, "fraction");
  report.set("job_kills", static_cast<double>(pinned.kills), "count");
  std::printf("samples rounds=%zu rtt=%zu (client round trips, closed loop, 1 connection)\n",
              rounds.size(), rtt.size());
}

/// Folds the flat ph_count:/ph_total_ns:/ph_self_ns:<path> fields of the
/// server's stats line into `profile`.
void read_phases(const std::string& stats_line, Profile& profile) {
  std::map<std::string, std::array<std::uint64_t, 3>> nodes;
  const char* kinds[3] = {"\"ph_count:", "\"ph_total_ns:", "\"ph_self_ns:"};
  for (int k = 0; k < 3; ++k) {
    for (std::size_t at = stats_line.find(kinds[k]); at != std::string::npos;
         at = stats_line.find(kinds[k], at + 1)) {
      const std::size_t path0 = at + std::strlen(kinds[k]);
      const std::size_t quote = stats_line.find('"', path0);
      nodes[stats_line.substr(path0, quote - path0)][static_cast<std::size_t>(k)] =
          std::strtoull(stats_line.c_str() + quote + 2, nullptr, 10);
    }
  }
  for (const auto& [path, v] : nodes) profile.add_node(path, v[0], v[1], v[2]);
}

/// Folds what a traced session's server reported — phase tree, counters,
/// dropped spans, and (for the pinned member) decision-latency quantiles —
/// plus the forecast quality of its predictor into `profile`.
void add_session_profile(const Session& s, bool pinned, Profile& profile) {
  read_phases(s.stats_line, profile);
  const std::size_t counters = s.stats_json.find("\"counters\":{");
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const std::string name(obs::counter_name(static_cast<obs::Counter>(c)));
    const double v = number_after(s.stats_json, name, counters);
    if (!std::isnan(v)) profile.counters[name] += static_cast<std::uint64_t>(v);
  }
  profile.dropped_spans += static_cast<std::uint64_t>(
      number_after(s.stats_json, "dropped", s.stats_json.find("\"phases\":{")));
  if (pinned) {
    const std::size_t decision = s.stats_json.find("\"sched.decision_us\":{");
    profile.decision_us_p50 = number_after(s.stats_json, "p50", decision);
    profile.decision_us_p99 = number_after(s.stats_json, "p99", decision);
  }
  // The server scores its forecasts only in `metrics` trace events, and
  // those do not audit on a down/repair stream (see README.md, "Known
  // defect"), so the same predictor model is replayed over the failures
  // this session sent with the library's online evaluator instead.
  PredictorSpec spec;
  spec.model = PredictorModel::kAdaptive;
  spec.alpha = kAlpha;
  const auto predictor = make_predictor(spec, kDims.volume(), nullptr);
  const PredictionQuality q = evaluate_predictor_online(
      *predictor, FailureTrace(s.sent_failures, kDims.volume()), kQualityWindow,
      kQualityWindow);
  const auto tp = static_cast<std::uint64_t>(
      std::llround(q.precision * static_cast<double>(q.flagged)));
  profile.counters["pred.window_tp"] += tp;
  profile.counters["pred.window_fp"] += q.flagged - tp;
  profile.counters["pred.window_fn"] += q.failing - tp;
}

/// Audits a traced session's trace in strict mode and checks that its
/// sim_end agrees with the client; returns the trace's event count.
double check_session_trace(const std::string& path, const Member& m,
                           const Session& s, Report& report) {
  obs::AuditOptions strict;
  strict.strict = true;
  std::ifstream audit_in(path);
  const obs::AuditReport audit = obs::audit_trace(audit_in, strict);
  if (!audit.ok()) {
    report.fail(m.label + ": trace_audit --strict found " +
                std::to_string(audit.violations.size()) + " violations, first: " +
                obs::to_string(audit.violations.front().code) + " at line " +
                std::to_string(audit.violations.front().line) + ": " +
                audit.violations.front().message);
  }
  std::ifstream in(path);
  obs::TraceReader reader(in);
  obs::TraceRecord rec;
  bool sim_end = false;
  while (reader.next(rec)) {
    if (rec.type_name() != "sim_end") continue;
    sim_end = true;
    if (rec.require_num("avg_bounded_slowdown") != s.bounded_slowdown ||
        rec.require_int("job_kills") != static_cast<std::int64_t>(s.kills) ||
        rec.require_int("jobs_completed") != static_cast<std::int64_t>(s.jobs) ||
        std::fabs(rec.require_num("utilization") - s.utilization) > 1e-12) {
      report.fail(m.label + ": the server's sim_end disagrees with the client");
    }
  }
  if (!sim_end) report.fail(m.label + ": traced session wrote no sim_end");
  return static_cast<double>(audit.events);
}

/// One traced session per member (--profile, --trace-out). With `profile`
/// set, folds the servers' observability into it.
Round traced_round(const Args& args, const Setup& setup, const Round& bare,
                   Profile* profile, double& trace_events, Report& report) {
  Round round;
  for (std::size_t i = 0; i < setup.members.size(); ++i) {
    const Member& m = setup.members[i];
    const std::string path = args.work_dir + "/service-" + m.label + ".trace.jsonl";
    Session s = run_session(args, m, path, report);
    print_session(m, s);
    check_same_decisions(m, bare[i], s, report);
    const double events = check_session_trace(path, m, s, report);
    std::filesystem::remove(path);
    if (profile != nullptr) {
      add_session_profile(s, i == 0, *profile);
      trace_events += events;
    }
    round.push_back(std::move(s));
  }
  return round;
}

/// Alternates bare and traced rounds for the measured time; the per-layer
/// metrics come from the first traced round, the overhead from per-member
/// medians of both kinds, the per-type round trips from the bare rounds.
void traced_run(const Args& args, Report& report) {
  const Setup setup = set_up(args.seed, report);
  LayerMetrics layers;
  layers.set("workload.generate_s", setup.workload_generate_s);
  layers.set("failure.generate_s", setup.failure_generate_s);
  std::vector<double> catalog_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    const PartitionCatalog catalog(kDims);
    catalog_s.push_back(now_s() - t0);
  }
  layers.set("torus.catalog_build_s", median(catalog_s));

  const double start = now_s();
  std::vector<Round> bare, traced;
  bare.push_back(run_round(args, setup, bare, report));
  Profile profile;
  double trace_events = 0.0;
  while (true) {
    const double elapsed = now_s() - start;
    const double pairs = static_cast<double>(traced.size());
    if (!traced.empty() && elapsed * (pairs + 2.0) / (pairs + 0.5) > args.seconds) break;
    traced.push_back(traced_round(args, setup, bare.front(),
                                  traced.empty() ? &profile : nullptr,
                                  trace_events, report));
    bare.push_back(run_round(args, setup, bare, report));
  }

  add_profile_metrics(profile, layers, report);
  const Round& first = traced.front();
  double sent = 0.0, rtt_sum = 0.0, rtt_n = 0.0;
  for (const Session& s : first) {
    sent += static_cast<double>(s.events);
    for (const auto& v : s.rtt_us) {
      for (const double x : v) rtt_sum += x;
      rtt_n += static_cast<double>(v.size());
    }
  }
  if (layers.get("svc.event.count") != sent) {
    report.fail("svc.event.count " + std::to_string(layers.get("svc.event.count")) +
                " != events sent " + std::to_string(sent));
  }
  const double rtt_mean = rtt_n > 0.0 ? rtt_sum / rtt_n : 0.0;
  const double server_mean =
      sent > 0.0 ? static_cast<double>(profile.phases["svc.event"].total_ns) / 1e3 / sent
                 : 0.0;
  std::size_t rejected = 0;
  for (const std::vector<Round>* rounds : {&bare, &traced}) {
    for (const Round& r : *rounds) {
      for (const Session& s : r) rejected += s.errors;
    }
  }
  layers.set("svc.events", sent);
  layers.set("svc.rejected", static_cast<double>(rejected));
  layers.set("svc.rtt_us_mean", rtt_mean);
  layers.set("svc.server_us_mean", server_mean);
  layers.set("svc.transport_us_mean", rtt_mean - server_mean);
  for (int t = 0; t < kNumTypes; ++t) {
    std::vector<double> v;
    for (const Round& r : bare) {
      for (const Session& s : r) {
        v.insert(v.end(), s.rtt_us[t].begin(), s.rtt_us[t].end());
      }
    }
    layers.set(std::string("svc.rtt_us_p50.") + kTypeNames[t], quantile(v, 0.5));
  }
  double jobs = 0.0, bare_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < setup.members.size(); ++i) {
    std::vector<double> b, t;
    for (const Round& r : bare) b.push_back(r[i].stream_s);
    for (const Round& r : traced) t.push_back(r[i].stream_s);
    jobs += static_cast<double>(setup.members[i].workload.jobs.size());
    bare_s += median(b);
    traced_s += median(t);
  }
  layers.set("obs.untraced_jobs_per_s", jobs / bare_s);
  layers.set("obs.traced_jobs_per_s", jobs / traced_s);
  layers.set("obs.trace_overhead_pct", 100.0 * (traced_s / bare_s - 1.0));
  layers.set("obs.trace_events", trace_events);
  std::printf("samples pairs=%zu (bare + traced rounds)\n", traced.size());
  layers.print_table("service");
  layers.copy_to(report);
}

}  // namespace

void run_service_workload(const Args& args, Report& report) {
  if (args.trace) {
    traced_run(args, report);
  } else {
    untraced_run(args, report);
  }
}

}  // namespace pb
