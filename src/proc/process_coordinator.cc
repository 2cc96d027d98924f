#include "proc/process_coordinator.h"

#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <string_view>

#include "util/decimal.h"
#include "util/logging.h"

namespace tdr::proc {

namespace {

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendLine(std::string* out, const char* key, std::uint64_t value) {
  out->append(StrPrintf("%s=%llu\n", key,
                        static_cast<unsigned long long>(value)));
}

}  // namespace

std::string NodeReport::Serialize() const {
  std::string out;
  AppendLine(&out, "node", node);
  AppendLine(&out, "state_digest", state_digest);
  AppendLine(&out, "matrix_fp", matrix_fp);
  AppendLine(&out, "metrics_fp", metrics_fp);
  AppendLine(&out, "plan_fp", plan_fp);
  AppendLine(&out, "committed", committed);
  AppendLine(&out, "invariant_violations", invariant_violations);
  AppendLine(&out, "shards", owned_shard_digests.size());
  for (std::size_t i = 0; i < owned_shard_digests.size(); ++i) {
    out.append(StrPrintf(
        "shard=%zu:%llu\n", i,
        static_cast<unsigned long long>(owned_shard_digests[i])));
  }
  for (const auto& [name, value] : counters) {
    // The name goes in byte for byte (a %s would stop at a NUL).
    out.append("counter=").append(name);
    out.append(StrPrintf(":%llu\n", static_cast<unsigned long long>(value)));
  }
  return out;
}

bool NodeReport::Parse(const std::string& text, NodeReport* out,
                       std::string* error) {
  *out = NodeReport();
  std::uint64_t shards = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = StrPrintf("report line without '=': %s", line.c_str());
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string_view val = std::string_view(line).substr(eq + 1);
    std::uint64_t num = 0;
    if (key == "shard" || key == "counter") {
      // shard=<index>:<digest> and counter=<name>:<value>; a counter
      // name may itself hold ':', so it ends at the last one.
      const std::size_t colon =
          key == "shard" ? val.find(':') : val.rfind(':');
      if (colon == std::string_view::npos ||
          !ParseDecimalU64(val.substr(colon + 1), &num)) {
        *error = StrPrintf("malformed %s line: %s", key.c_str(),
                           line.c_str());
        return false;
      }
      if (key == "counter") {
        out->counters.emplace_back(std::string(val.substr(0, colon)), num);
        continue;
      }
      std::uint64_t idx = 0;
      if (!ParseDecimalU64(val.substr(0, colon), &idx) ||
          idx != out->owned_shard_digests.size()) {
        *error = StrPrintf("shard lines out of order at: %s", line.c_str());
        return false;
      }
      out->owned_shard_digests.push_back(num);
      continue;
    }
    if (!ParseDecimalU64(val, &num)) {
      *error = StrPrintf("non-numeric value in: %s", line.c_str());
      return false;
    }
    if (key == "node") {
      if (num > UINT32_MAX) {
        *error = StrPrintf("node id out of range in: %s", line.c_str());
        return false;
      }
      out->node = static_cast<std::uint32_t>(num);
    } else if (key == "state_digest") {
      out->state_digest = num;
    } else if (key == "matrix_fp") {
      out->matrix_fp = num;
    } else if (key == "metrics_fp") {
      out->metrics_fp = num;
    } else if (key == "plan_fp") {
      out->plan_fp = num;
    } else if (key == "committed") {
      out->committed = num;
    } else if (key == "invariant_violations") {
      out->invariant_violations = num;
    } else if (key == "shards") {
      shards = num;
    } else {
      *error = StrPrintf("unknown report key: %s", key.c_str());
      return false;
    }
  }
  if (out->owned_shard_digests.size() != shards) {
    *error = StrPrintf("report declared %llu shards, carried %zu",
                       static_cast<unsigned long long>(shards),
                       out->owned_shard_digests.size());
    return false;
  }
  return true;
}

bool ProcessCoordinator::NodeContext::Barrier(std::string* error) {
  Frame drained;
  drained.kind = FrameKind::kDrained;
  drained.origin = node_;
  drained.dest = kCoordinatorId;
  if (!control_->Send(kCoordinatorId, drained) ||
      !control_->FlushAll(30000)) {
    *error = StrPrintf("drained handshake send failed: %s",
                       control_->error().c_str());
    return false;
  }
  Frame proceed;
  if (!control_->WaitFrame(kCoordinatorId, &proceed, 120000)) {
    *error = StrPrintf("no proceed from coordinator: %s",
                       control_->error().c_str());
    return false;
  }
  if (proceed.kind != FrameKind::kProceed) {
    *error = StrPrintf("expected proceed, got %s",
                       proceed.ToString().c_str());
    return false;
  }
  return true;
}

void ProcessCoordinator::NodeContext::Fail(const std::string& why) {
  TDR_LOG_ERROR("proc child %u failing: %s", node_, why.c_str());
  Frame err;
  err.kind = FrameKind::kError;
  err.origin = node_;
  err.dest = kCoordinatorId;
  err.payload = why;
  control_->Send(kCoordinatorId, err);
  control_->FlushAll(10000);
  ::_exit(1);
}

namespace {

/// Child-side main: builds transports over the fds this child keeps,
/// waits for its config, runs the body, ships the report, exits. Never
/// returns.
[[noreturn]] void ChildMain(std::uint32_t node, std::uint32_t num_nodes,
                            std::vector<SocketTransport::PeerEndpoint> data,
                            int control_fd,
                            const ProcessCoordinator::ChildBody& body) {
  SocketTransport control({{kCoordinatorId, control_fd}},
                          StrPrintf("child-%u-ctl", node));
  SocketTransport transport(std::move(data), StrPrintf("child-%u", node));
  Frame config;
  if (!control.WaitFrame(kCoordinatorId, &config, 120000) ||
      config.kind != FrameKind::kConfig) {
    TDR_LOG_ERROR("proc child %u: no config frame: %s", node,
                  control.error().c_str());
    ::_exit(2);
  }
  ProcessCoordinator::NodeContext ctx(node, num_nodes,
                                      std::move(config.payload),
                                      &transport, &control);
  if (transport.failed()) ctx.Fail(transport.error());
  NodeReport report = body(ctx);
  Frame out;
  out.kind = FrameKind::kReport;
  out.origin = node;
  out.dest = kCoordinatorId;
  out.payload = report.Serialize();
  if (!control.Send(kCoordinatorId, out) || !control.FlushAll(30000)) {
    ::_exit(3);
  }
  ::_exit(0);
}

void KillAll(const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

/// Reaps every child, SIGKILLing any that outlives the deadline.
/// Appends a diagnosis for abnormal exits.
void ReapAll(const std::vector<pid_t>& pids, std::int64_t deadline_ms,
             std::string* abnormal) {
  std::vector<pid_t> left = pids;
  bool killed = false;
  while (true) {
    bool any = false;
    for (pid_t& pid : left) {
      if (pid <= 0) continue;
      any = true;
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid) {
        if (WIFSIGNALED(status) &&
            !(killed && WTERMSIG(status) == SIGKILL)) {
          abnormal->append(StrPrintf("; child pid %d killed by signal %d",
                                     static_cast<int>(pid),
                                     WTERMSIG(status)));
        } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
                   WEXITSTATUS(status) != 1) {
          // Exit 1 is NodeContext::Fail, already reported via kError.
          abnormal->append(StrPrintf("; child pid %d exited %d",
                                     static_cast<int>(pid),
                                     WEXITSTATUS(status)));
        }
        pid = -1;
      } else if (got < 0 && errno != EINTR) {
        pid = -1;
      }
    }
    if (!any) return;
    if (NowMs() >= deadline_ms && !killed) {
      abnormal->append("; SIGKILLed unresponsive children");
      KillAll(left);
      killed = true;
      deadline_ms = NowMs() + 5000;
    }
    ::usleep(2000);
  }
}

}  // namespace

ProcessCoordinator::Result ProcessCoordinator::Run(const Options& options,
                                                   const ChildBody& body) {
  Result result;
  const std::uint32_t n = options.num_nodes;
  if (n < 2) {
    result.error = "proc backend needs at least 2 nodes";
    return result;
  }
  // One stream socketpair per node pair (data) and per child (control),
  // all created before any fork so every child can inherit exactly the
  // ends it needs.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<int, int>>
      pair_fds;
  std::vector<std::pair<int, int>> ctl_fds(n, {-1, -1});  // {parent, child}
  std::vector<int> all_fds;
  auto fail_setup = [&](const std::string& why) {
    for (int fd : all_fds) ::close(fd);
    result.error = why;
    return result;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
        return fail_setup(StrPrintf("socketpair(%u,%u): %s", i, j,
                                    strerror(errno)));
      }
      pair_fds[{i, j}] = {sv[0], sv[1]};
      all_fds.push_back(sv[0]);
      all_fds.push_back(sv[1]);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
      return fail_setup(StrPrintf("control socketpair(%u): %s", i,
                                  strerror(errno)));
    }
    ctl_fds[i] = {sv[0], sv[1]};
    all_fds.push_back(sv[0]);
    all_fds.push_back(sv[1]);
  }

  // Forked children inherit stdio buffers; flush so diagnostics are not
  // duplicated into every child.
  ::fflush(nullptr);
  std::vector<pid_t> pids(n, -1);
  for (std::uint32_t node = 0; node < n; ++node) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      KillAll(pids);
      std::string reap;
      ReapAll(pids, NowMs() + 5000, &reap);
      return fail_setup(StrPrintf("fork child %u: %s", node,
                                  strerror(errno)));
    }
    if (pid == 0) {
      // Child: keep this node's end of each of its pair sockets and its
      // control socket; close everything else.
      std::vector<SocketTransport::PeerEndpoint> data;
      for (auto& [key, fds] : pair_fds) {
        if (key.first == node) {
          data.push_back({key.second, fds.first});
          ::close(fds.second);
        } else if (key.second == node) {
          data.push_back({key.first, fds.second});
          ::close(fds.first);
        } else {
          ::close(fds.first);
          ::close(fds.second);
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        ::close(ctl_fds[i].first);
        if (i != node) ::close(ctl_fds[i].second);
      }
      ChildMain(node, n, std::move(data), ctl_fds[node].second, body);
    }
    pids[node] = pid;
  }
  // Parent: close all child-side ends.
  for (auto& [key, fds] : pair_fds) {
    ::close(fds.first);
    ::close(fds.second);
  }
  for (std::uint32_t i = 0; i < n; ++i) ::close(ctl_fds[i].second);

  std::vector<SocketTransport::PeerEndpoint> ctl_peers;
  for (std::uint32_t i = 0; i < n; ++i) {
    ctl_peers.push_back({i, ctl_fds[i].first});
  }
  SocketTransport control(std::move(ctl_peers), "coordinator");

  auto abort_run = [&](std::string why) {
    KillAll(pids);
    std::string reap;
    ReapAll(pids, NowMs() + 5000, &reap);
    result.error = why + reap;
    return result;
  };

  for (std::uint32_t node = 0; node < n; ++node) {
    Frame cfg;
    cfg.kind = FrameKind::kConfig;
    cfg.origin = kCoordinatorId;
    cfg.dest = node;
    cfg.payload = options.config;
    if (!control.Send(node, cfg)) {
      return abort_run(StrPrintf("config send to child %u: %s", node,
                                 control.error().c_str()));
    }
  }
  if (!control.FlushAll(options.phase_timeout_ms)) {
    return abort_run(StrPrintf("config flush: %s", control.error().c_str()));
  }

  // Phase 1: all children report drained (or the first kError wins).
  for (std::uint32_t node = 0; node < n; ++node) {
    Frame f;
    if (!control.WaitFrame(node, &f, options.phase_timeout_ms)) {
      return abort_run(StrPrintf("child %u never drained: %s", node,
                                 control.error().c_str()));
    }
    if (f.kind == FrameKind::kError) {
      return abort_run(StrPrintf("child %u failed: %s", node,
                                 f.payload.c_str()));
    }
    if (f.kind != FrameKind::kDrained) {
      return abort_run(StrPrintf("child %u sent %s while draining", node,
                                 f.ToString().c_str()));
    }
  }
  // Phase 2: release the barrier, collect reports.
  for (std::uint32_t node = 0; node < n; ++node) {
    Frame go;
    go.kind = FrameKind::kProceed;
    go.origin = kCoordinatorId;
    go.dest = node;
    if (!control.Send(node, go)) {
      return abort_run(StrPrintf("proceed send to child %u: %s", node,
                                 control.error().c_str()));
    }
  }
  if (!control.FlushAll(options.phase_timeout_ms)) {
    return abort_run(StrPrintf("proceed flush: %s",
                               control.error().c_str()));
  }
  result.reports.resize(n);
  for (std::uint32_t node = 0; node < n; ++node) {
    Frame f;
    if (!control.WaitFrame(node, &f, options.phase_timeout_ms)) {
      return abort_run(StrPrintf("child %u never reported: %s", node,
                                 control.error().c_str()));
    }
    if (f.kind == FrameKind::kError) {
      return abort_run(StrPrintf("child %u failed: %s", node,
                                 f.payload.c_str()));
    }
    if (f.kind != FrameKind::kReport) {
      return abort_run(StrPrintf("child %u sent %s instead of a report",
                                 node, f.ToString().c_str()));
    }
    std::string parse_error;
    if (!NodeReport::Parse(f.payload, &result.reports[node],
                           &parse_error)) {
      return abort_run(StrPrintf("child %u report unparsable: %s", node,
                                 parse_error.c_str()));
    }
    if (result.reports[node].node != node) {
      return abort_run(StrPrintf("child %u reported as node %u", node,
                                 result.reports[node].node));
    }
  }
  std::string abnormal;
  ReapAll(pids, NowMs() + options.phase_timeout_ms, &abnormal);
  if (!abnormal.empty()) {
    result.error = "children exited abnormally" + abnormal;
    return result;
  }
  result.ok = true;
  return result;
}

bool ProcessCoordinator::ValidateReports(
    const std::vector<NodeReport>& reports, std::string* error) {
  if (reports.empty()) {
    *error = "no reports";
    return false;
  }
  const NodeReport& first = reports.front();
  for (std::size_t i = 1; i < reports.size(); ++i) {
    const NodeReport& r = reports[i];
    if (r.state_digest != first.state_digest) {
      *error = StrPrintf(
          "state digest split-brain: node 0 -> %016llx, node %u -> %016llx",
          static_cast<unsigned long long>(first.state_digest), r.node,
          static_cast<unsigned long long>(r.state_digest));
      return false;
    }
    if (r.matrix_fp != first.matrix_fp) {
      *error = StrPrintf("shard matrix fp mismatch at node %u", r.node);
      return false;
    }
    if (r.metrics_fp != first.metrics_fp) {
      *error = StrPrintf("metrics fp mismatch at node %u", r.node);
      return false;
    }
    if (r.plan_fp != first.plan_fp) {
      *error = StrPrintf("fault plan fp mismatch at node %u", r.node);
      return false;
    }
    if (r.committed != first.committed) {
      *error = StrPrintf("committed count mismatch at node %u", r.node);
      return false;
    }
    if (r.owned_shard_digests.size() != first.owned_shard_digests.size()) {
      *error = StrPrintf("shard count mismatch at node %u", r.node);
      return false;
    }
  }
  return true;
}

std::vector<std::vector<std::uint64_t>>
ProcessCoordinator::AssembleShardMatrix(
    const std::vector<NodeReport>& reports) {
  std::vector<std::vector<std::uint64_t>> matrix;
  if (reports.empty()) return matrix;
  const std::size_t shards = reports.front().owned_shard_digests.size();
  matrix.assign(shards, std::vector<std::uint64_t>(reports.size(), 0));
  for (const NodeReport& r : reports) {
    for (std::size_t s = 0; s < shards && s < r.owned_shard_digests.size();
         ++s) {
      matrix[s][r.node] = r.owned_shard_digests[s];
    }
  }
  return matrix;
}

std::vector<std::pair<std::string, std::uint64_t>>
ProcessCoordinator::MergeCounters(const std::vector<NodeReport>& reports) {
  std::map<std::string, std::uint64_t> merged;
  for (const NodeReport& r : reports) {
    for (const auto& [name, value] : r.counters) merged[name] += value;
  }
  return {merged.begin(), merged.end()};
}

}  // namespace tdr::proc
