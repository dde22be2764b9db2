// ckr_serve's --metrics-json flag, run as a child process: a small run
// writes the process-wide metric registry — the daemon's metrics, the
// index's CKR_OBS_* counters and the sharded build's stage timers — whose
// key set is pinned here, and an unwritable path is a usage error before
// any work starts.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace {

// Runs ckr_serve with `args`, stdout and stderr discarded; returns its
// exit code, or -1 if it did not exit normally.
int RunServe(const std::string& args) {
  const std::string cmd =
      std::string(CKR_SERVE_BINARY) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The metric names under each top-level group of a SnapshotJson() blob:
// the group keys sit at an indent of two, the metric keys at four.
std::map<std::string, std::set<std::string>> KeySet(const std::string& json) {
  std::map<std::string, std::set<std::string>> keys;
  std::istringstream in(json);
  std::string line, group;
  while (std::getline(in, line)) {
    const size_t quote = line.find('"');
    if (quote == std::string::npos) continue;
    const std::string name =
        line.substr(quote + 1, line.find('"', quote + 1) - quote - 1);
    if (quote == 2) {
      group = name;
      keys[group];
    } else if (quote == 4) {
      keys[group].insert(name);
    }
  }
  return keys;
}

// The value of counter `name` in a SnapshotJson() blob, or -1 if absent.
long long CounterValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + key.size());
}

TEST(CkrServeMetricsJsonTest, WritesTheRegistryWithTheGoldenKeySet) {
  const std::string path = testing::TempDir() + "ckr_serve_metrics.json";
  ASSERT_EQ(RunServe("--docs 300 --requests 60 --metrics-json " + path), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream json;
  json << in.rdbuf();
  const std::map<std::string, std::set<std::string>> want = {
      {"counters",
       {
#if !defined(CKR_OBS_DISABLED)
           // The index's hooks; the kill switch compiles them out.
           "ckr.index.postings_scored", "ckr.index.search_docs_touched",
           "ckr.index.search_terms", "ckr.index.searches",
#endif
           "ckr.serve.admitted", "ckr.serve.completed",
           "ckr.serve.no_snapshot", "ckr.serve.partial",
           "ckr.serve.pop_parks", "ckr.serve.pop_spin_hits",
           "ckr.serve.shed_deadline", "ckr.serve.shed_queue_full",
           "ckr.serve.snapshot_swaps"}},
      {"gauges", {"ckr.serve.queue_depth"}},
      {"histograms",
       {
#if !defined(CKR_OBS_DISABLED)
           // The sharded build's stages, timed by the same hooks.
           "ckr.serve.build.finalize_seconds",
           "ckr.serve.build.ingest_seconds",
           "ckr.serve.build.stats_seconds",
#endif
           "ckr.serve.latency_seconds", "ckr.serve.queue_seconds",
           "ckr.serve.rejected_latency_seconds"}},
  };
  EXPECT_EQ(KeySet(json.str()), want) << json.str();
  // Every request of the run is counted.
  EXPECT_NE(json.str().find("\"ckr.serve.completed\": 60"), std::string::npos)
      << json.str();
  // Each was picked up once: by a spinning worker or a woken one.
  EXPECT_EQ(CounterValue(json.str(), "ckr.serve.pop_spin_hits") +
                CounterValue(json.str(), "ckr.serve.pop_parks"),
            60)
      << json.str();
#if !defined(CKR_OBS_DISABLED)
  // And every shard leg of every request: 60 requests on 4 shards.
  EXPECT_NE(json.str().find("\"ckr.index.searches\": 240"), std::string::npos)
      << json.str();
#endif
  std::remove(path.c_str());
}

TEST(CkrServeMetricsJsonTest, UnwritablePathIsAUsageError) {
  EXPECT_EQ(RunServe("--metrics-json /nonexistent-dir/metrics.json"), 2);
  EXPECT_EQ(RunServe("--metrics-json"), 2);  // No path.
}

}  // namespace
