// Fixture-driven self-tests for ckr_lint: each testdata file carries
// known violations (or none); the expected (rule, line) pairs here are
// the linter's contract. Fixtures are linted under virtual src/ paths so
// path-scoped rules (R2/R3 src-only, R1's bench allowlist) are exercised
// independently of where testdata lives on disk.
#include "tools/ckr_lint.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace ckr {
namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(CKR_LINT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using RuleLine = std::pair<std::string, int>;

std::multiset<RuleLine> RuleLines(const std::vector<Violation>& vs) {
  std::multiset<RuleLine> out;
  for (const auto& v : vs) out.insert({v.rule, v.line});
  return out;
}

TEST(CkrLintTest, R1FlagsEveryNondeterminismSource) {
  auto vs = LintContent("src/r1_nondeterminism.cc",
                        ReadFixture("r1_nondeterminism.cc"));
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{{"R1", 8},
                                                    {"R1", 12},
                                                    {"R1", 16},
                                                    {"R1", 20},
                                                    {"R1", 25},
                                                    {"R1", 26}}));
}

TEST(CkrLintTest, R1ClockAllowedInBench) {
  // The same content under bench/ keeps the rand/srand/random_device
  // violations but drops the clock ones: measuring is bench's job.
  auto vs = LintContent("bench/r1_nondeterminism.cc",
                        ReadFixture("r1_nondeterminism.cc"));
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{
                               {"R1", 8}, {"R1", 12}, {"R1", 16}, {"R1", 20}}));
}

TEST(CkrLintTest, R1FlagsRawClockOnServingPath) {
  // The serving daemon's deadlines ride the injected ckr::Clock; a raw
  // steady_clock::now() under src/serve must be flagged so deadline and
  // latency logic stays drivable by a fake clock in tests.
  const std::string content = ReadFixture("r1_serve_clock.cc");
  auto vs = LintContent("src/serve/r1_serve_clock.cc", content);
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{{"R1", 9}}));
}

TEST(CkrLintTest, R2FlagsExceptionConstructsInSrcOnly) {
  const std::string content = ReadFixture("r2_exceptions.cc");
  auto vs = LintContent("src/r2_exceptions.cc", content);
  EXPECT_EQ(RuleLines(vs),
            (std::multiset<RuleLine>{{"R2", 7}, {"R2", 9}, {"R2", 11}}));
  // Outside src/ the Status-only discipline does not apply (tests may
  // exercise exception behavior of third-party code).
  EXPECT_TRUE(LintContent("tests/r2_exceptions.cc", content).empty());
}

TEST(CkrLintTest, R3FlagsMissingNodiscardInSrcHeaders) {
  const std::string content = ReadFixture("r3_missing_nodiscard.h");
  auto vs = LintContent("src/r3_missing_nodiscard.h", content);
  EXPECT_EQ(RuleLines(vs),
            (std::multiset<RuleLine>{{"R3", 14}, {"R3", 18}, {"R3", 22}}));
  // Not a header: out of scope.
  EXPECT_TRUE(LintContent("src/r3_missing_nodiscard.cc", content).empty());
}

TEST(CkrLintTest, R4FlagsHashOrderIterationInSerializationTu) {
  auto vs = LintContent("src/r4_unordered_serialization.cc",
                        ReadFixture("r4_unordered_serialization.cc"));
  EXPECT_EQ(RuleLines(vs),
            (std::multiset<RuleLine>{{"R4", 22}, {"R4", 25}}));
}

TEST(CkrLintTest, R4RequiresBinaryIoInclude) {
  // The identical loops without a binary_io.h include are not
  // serialization-adjacent, so R4 stays quiet.
  std::string content = ReadFixture("r4_unordered_serialization.cc");
  const std::string include_line = "#include \"common/binary_io.h\"\n";
  auto at = content.find(include_line);
  ASSERT_NE(at, std::string::npos);
  content.erase(at, include_line.size());
  EXPECT_TRUE(
      LintContent("src/r4_unordered_serialization.cc", content).empty());
}

TEST(CkrLintTest, R4CoversBlockIndexSerializationHeaders) {
  // The block-index headers expose AppendTo/Serialize, so including them
  // arms R4 exactly like a binary_io.h include does.
  const std::string fixture = ReadFixture("r4_unordered_serialization.cc");
  const std::string include_line = "#include \"common/binary_io.h\"\n";
  for (const char* header :
       {"index/block_postings.h", "index/block_max_index.h"}) {
    std::string content = fixture;
    auto at = content.find(include_line);
    ASSERT_NE(at, std::string::npos);
    content.replace(at, include_line.size(),
                    std::string("#include \"") + header + "\"\n");
    auto vs = LintContent("src/r4_unordered_serialization.cc", content);
    EXPECT_EQ(RuleLines(vs),
              (std::multiset<RuleLine>{{"R4", 22}, {"R4", 25}}))
        << header;
  }
}

TEST(CkrLintTest, R4ReadsTheTusOwnHeader) {
  // The .cc declares no container and includes no binary_io.h; both come
  // from its own header, which LintPath reads beside it.
  auto vs = LintPath(std::string(CKR_LINT_TESTDATA_DIR) + "/r4_own_header.cc");
  ASSERT_TRUE(vs.ok()) << vs.status().ToString();
  EXPECT_EQ(RuleLines(*vs), (std::multiset<RuleLine>{{"R4", 10}, {"R4", 13}}));
  // The same through LintContent with the header passed in...
  const std::string content = ReadFixture("r4_own_header.cc");
  const std::string header = ReadFixture("r4_own_header.h");
  EXPECT_EQ(RuleLines(LintContent("src/r4_own_header.cc", content, nullptr,
                                  header)),
            (std::multiset<RuleLine>{{"R4", 10}, {"R4", 13}}));
  // ...and without it the .cc alone is not a serialization TU.
  EXPECT_TRUE(LintContent("src/r4_own_header.cc", content).empty());
}

TEST(CkrLintTest, R5FlagsBannedFunctions) {
  auto vs = LintContent("src/r5_banned_functions.cc",
                        ReadFixture("r5_banned_functions.cc"));
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{
                               {"R5", 8}, {"R5", 12}, {"R5", 16}, {"R5", 20}}));
}

TEST(CkrLintTest, R6FlagsUndisciplinedSyncMembers) {
  const std::string content = ReadFixture("r6_unguarded_members.cc");
  auto vs = LintContent("src/r6_unguarded_members.cc", content);
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{{"R6", 16},
                                                    {"R6", 17},
                                                    {"R6", 18},
                                                    {"R6", 22},
                                                    {"R6", 24},
                                                    {"R6", 29}}));
  // The guard-discipline contract binds library code only; tests and
  // benches may hold loose state.
  EXPECT_TRUE(LintContent("tests/r6_unguarded_members.cc", content).empty());
}

TEST(CkrLintTest, R7FlagsImplicitSeqCstOps) {
  const std::string content = ReadFixture("r7_memory_order.cc");
  auto vs = LintContent("src/r7_memory_order.cc", content);
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{
                               {"R7", 10}, {"R7", 11}, {"R7", 12}, {"R7", 15}}));
  EXPECT_TRUE(LintContent("bench/r7_memory_order.cc", content).empty());
}

TEST(CkrLintTest, SignatureModulePathIsCoveredByR1R6R7) {
  // A hashed prefilter's contract hinges on deterministic bit positions
  // (R1) and cleanly-disciplined rejection counters (R6/R7); this fixture
  // plants the canonical violation of each under a virtual src/index/
  // path, proving the rules bind in that directory. The whole-tree lint
  // test covers the real src/index/ sources.
  const std::string content = ReadFixture("sig_prefilter_bad.cc");
  auto vs = LintContent("src/index/doc_signature_bad.cc", content);
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{
                               {"R1", 16}, {"R7", 18}, {"R6", 23}}));
  // The same content under tests/ keeps only the determinism rule: R6/R7
  // bind library code, R1 binds everywhere (reproducibility contract).
  auto test_vs = LintContent("tests/doc_signature_bad.cc", content);
  EXPECT_EQ(RuleLines(test_vs), (std::multiset<RuleLine>{{"R1", 16}}));
}

TEST(CkrLintTest, R8FlagsLockOrderInversions) {
  const std::string content = ReadFixture("r8_lock_order.cc");
  auto vs = LintContent("src/r8_lock_order.cc", content);
  // Line 19 inverts through the transitive closure of the two declared
  // edges; line 23 inverts a direct edge via the MutexLock form.
  EXPECT_EQ(RuleLines(vs),
            (std::multiset<RuleLine>{{"R8", 19}, {"R8", 23}}));
}

TEST(CkrLintTest, R8OnlyBindsDeclaredLocks) {
  // Neutralizing the declaration marker (same length, so lines hold)
  // empties the hierarchy and the identical nesting is no violation:
  // R8 enforces declared order, it does not guess one.
  std::string content = ReadFixture("r8_lock_order.cc");
  size_t at;
  while ((at = content.find("ckr-lock-order:")) != std::string::npos) {
    content.replace(at, 15, "ckr-lock-nixed:");
  }
  EXPECT_TRUE(LintContent("src/r8_lock_order.cc", content).empty());
}

TEST(CkrLintTest, LockOrderRegistryIsGlobalAcrossFiles) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ckr_lint_xfile" / "src";
  fs::create_directories(dir);
  const std::string header = "// ckr-lock-order: fine_mu < coarse_mu\n";
  const std::string body =
      "#include <mutex>\n"
      "void Bad(std::mutex& fine_mu, std::mutex& coarse_mu) {\n"
      "  std::lock_guard<std::mutex> a(coarse_mu);\n"
      "  std::lock_guard<std::mutex> b(fine_mu);\n"
      "}\n";
  const std::string order_h = (dir / "order.h").string();
  const std::string use_cc = (dir / "use.cc").string();
  std::ofstream(order_h, std::ios::binary) << header;
  std::ofstream(use_cc, std::ios::binary) << body;

  // The declaration lives in one file, the inversion in another: only
  // the two-pass run can connect them.
  LintRunResult run = LintFiles({order_h, use_cc}, 1);
  ASSERT_EQ(run.violations.size(), 1u);
  EXPECT_EQ(run.violations[0].rule, "R8");
  EXPECT_EQ(run.violations[0].file, use_cc);
  EXPECT_EQ(run.violations[0].line, 4);
  EXPECT_TRUE(run.errors.empty());

  // Single-file mode sees no declarations and stays silent.
  EXPECT_TRUE(LintContent("src/use.cc", body).empty());
}

TEST(CkrLintTest, ParallelLintIsByteIdenticalToSerial) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ckr_lint_par" / "src";
  fs::create_directories(dir);
  std::vector<std::string> paths;
  for (const char* fixture :
       {"r1_nondeterminism.cc", "r5_banned_functions.cc",
        "r6_unguarded_members.cc", "r7_memory_order.cc", "r8_lock_order.cc",
        "clean.cc", "suppressed.cc"}) {
    const std::string dst = (dir / fixture).string();
    std::ofstream(dst, std::ios::binary) << ReadFixture(fixture);
    paths.push_back(dst);
  }
  const LintRunResult serial = LintFiles(paths, 1);
  EXPECT_FALSE(serial.violations.empty());
  for (unsigned jobs : {2u, 4u, 8u}) {
    const LintRunResult parallel = LintFiles(paths, jobs);
    EXPECT_EQ(LintReportJson(serial), LintReportJson(parallel))
        << "jobs=" << jobs;
  }
}

TEST(CkrLintTest, JsonReportIsDeterministicBytes) {
  LintRunResult r;
  r.files = 2;
  r.violations.push_back({"src/a.cc", 3, "R5", "uses \"atoi\""});
  r.errors.push_back("src/missing.cc: cannot open");
  EXPECT_EQ(LintReportJson(r),
            "{\"errors\":[\"src/missing.cc: cannot open\"],\"files\":2,"
            "\"violations\":[{\"file\":\"src/a.cc\",\"line\":3,"
            "\"message\":\"uses \\\"atoi\\\"\",\"rule\":\"R5\"}]}\n");
}

TEST(CkrLintTest, LintFilesReportsUnreadablePaths) {
  LintRunResult run = LintFiles({"src/definitely_not_here.cc"}, 1);
  ASSERT_EQ(run.errors.size(), 1u);
  EXPECT_NE(run.errors[0].find("definitely_not_here"), std::string::npos);
  EXPECT_FALSE(run.clean());
}

TEST(CkrLintTest, LockOrderSpecClosesTransitively) {
  LockOrderSpec spec;
  spec.AddEdge("a", "b");
  spec.AddEdge("b", "c");
  spec.Finalize();
  EXPECT_TRUE(spec.Declared("a"));
  EXPECT_TRUE(spec.Declared("c"));
  EXPECT_FALSE(spec.Declared("d"));
  EXPECT_TRUE(spec.Before("a", "b"));
  EXPECT_TRUE(spec.Before("a", "c"));
  EXPECT_FALSE(spec.Before("c", "a"));
  EXPECT_FALSE(spec.Before("b", "a"));
}

TEST(CkrLintTest, CleanFixtureHasNoViolations) {
  auto vs = LintContent("src/clean.cc", ReadFixture("clean.cc"));
  for (const auto& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(CkrLintTest, SuppressionsSilenceEachForm) {
  auto vs = LintContent("src/suppressed.cc", ReadFixture("suppressed.cc"));
  for (const auto& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(CkrLintTest, SuppressionIsRuleScoped) {
  // allow(R1) must not silence an R5 violation on the same line.
  const std::string content =
      "int f(const char* s) {\n"
      "  return atoi(s);  // ckr-lint: allow(R1)\n"
      "}\n";
  auto vs = LintContent("src/x.cc", content);
  EXPECT_EQ(RuleLines(vs), (std::multiset<RuleLine>{{"R5", 2}}));
}

TEST(CkrLintTest, CommentsAndStringsAreNotCode) {
  const std::string content =
      "// rand() in a comment\n"
      "/* std::random_device in a block\n   comment */\n"
      "const char* s = \"throw strcpy(\";\n"
      "const char* r = R\"(try { rand(); })\";\n";
  EXPECT_TRUE(LintContent("src/x.cc", content).empty());
}

TEST(CkrLintTest, FormatViolationIsFileLineRuleMessage) {
  Violation v{"src/a.cc", 12, "R1", "msg"};
  EXPECT_EQ(FormatViolation(v), "src/a.cc:12: [R1] msg");
}

TEST(CkrLintTest, ClassifyPathUnderstandsRepoLayout) {
  EXPECT_EQ(ClassifyPath("src/common/rng.cc"), FileKind::kSrc);
  EXPECT_EQ(ClassifyPath("/root/repo/src/common/rng.cc"), FileKind::kSrc);
  EXPECT_EQ(ClassifyPath("bench/bench_offline_perf.cc"), FileKind::kBench);
  EXPECT_EQ(ClassifyPath("tests/core_test.cc"), FileKind::kTests);
  EXPECT_EQ(ClassifyPath("examples/quickstart.cpp"), FileKind::kOther);
}

// The acceptance gate as a test: the real src/ tree must lint clean, so a
// regression that introduces a violation fails in ctest, not just in the
// check_all.sh script.
TEST(CkrLintTest, RepoSrcTreeIsClean) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(CKR_LINT_SOURCE_DIR);
  ASSERT_TRUE(fs::is_directory(root / "src"));
  size_t files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    auto result = LintPath(entry.path().string());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& v : *result) ADD_FAILURE() << FormatViolation(v);
    ++files;
  }
  EXPECT_GT(files, 50u);  // Sanity: the walk actually saw the tree.
}

// The same gate through the two-pass runner: the whole tree (src, bench,
// tests, tools — what CI lints) must be clean against the *global*
// lock-order registry, which single-file LintPath cannot see.
TEST(CkrLintTest, RepoTreeIsCleanUnderGlobalLockOrderRegistry) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(CKR_LINT_SOURCE_DIR);
  std::vector<std::string> paths;
  for (const char* dir : {"src", "bench", "tests", "tools"}) {
    ASSERT_TRUE(fs::is_directory(root / dir)) << dir;
    for (const auto& entry :
         fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string p = entry.path().string();
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      if (p.find("testdata") != std::string::npos) continue;
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  const LintRunResult run = LintFiles(paths, 2);
  for (const auto& e : run.errors) ADD_FAILURE() << e;
  for (const auto& v : run.violations) ADD_FAILURE() << FormatViolation(v);
  EXPECT_GT(run.files, 100u);
}

TEST(CkrLintTest, RealClockUsesLineScopedSuppressionNotAnExemption) {
  // src/obs/real_clock.cc is the one sanctioned steady_clock::now call
  // site in src/. It must lint clean via a single line-scoped allow(R1)
  // comment — and the same content with that comment stripped must be
  // flagged, proving the linter gained no hidden path exemption for obs.
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(CKR_LINT_SOURCE_DIR) / "src" / "obs" / "real_clock.cc";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string content = buf.str();
  EXPECT_TRUE(LintContent("src/obs/real_clock.cc", content).empty());

  const std::string suppression = "// ckr-lint: allow(R1)";
  const auto at = content.find(suppression);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(content.find(suppression, at + 1), std::string::npos)
      << "real_clock.cc should need exactly one suppression";
  content.erase(at, suppression.size());
  auto vs = LintContent("src/obs/real_clock.cc", content);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "R1");
}

}  // namespace
}  // namespace lint
}  // namespace ckr
