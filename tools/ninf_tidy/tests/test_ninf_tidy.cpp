// ninf-tidy checker tests: each check has a flagging fixture (every
// seeded violation reported), a clean fixture (zero diagnostics), and
// a suppression fixture (audited NINF_TIDY_SUPPRESS honored).  The
// fixtures are parsed through the same front end the CLI uses.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "model.h"

namespace {

using ninf_tidy::CheckOptions;
using ninf_tidy::Diagnostic;
using ninf_tidy::Project;

std::string fixturePath(const std::string& name) {
  return std::string(NINF_TIDY_FIXTURE_DIR) + "/" + name;
}

Project load(const std::vector<std::string>& fixtures) {
  std::vector<ninf_tidy::FileModel> models;
  for (const auto& name : fixtures) {
    std::ifstream in(fixturePath(name));
    EXPECT_TRUE(in.good()) << "missing fixture " << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    models.push_back(ninf_tidy::parseFile(fixturePath(name), ss.str()));
  }
  return ninf_tidy::buildProject(std::move(models));
}

std::vector<Diagnostic> run(const std::string& fixture,
                            const std::string& check) {
  CheckOptions options;
  options.checks = {check};
  return ninf_tidy::runChecks(load({fixture}), options);
}

int countMessages(const std::vector<Diagnostic>& diags,
                  const std::string& needle) {
  int n = 0;
  for (const auto& d : diags) {
    if (d.message.find(needle) != std::string::npos) ++n;
  }
  return n;
}

// ---------------------------------------------------- reactor-blocking

TEST(ReactorBlocking, FlagsBlockingReachableFromReactorContext) {
  const auto diags = run("reactor_blocking_pos.cpp", "reactor-blocking");
  EXPECT_GE(diags.size(), 4u);
  EXPECT_EQ(countMessages(diags, "non-leaf lock class 'fixture.pending'"), 1);
  EXPECT_GE(countMessages(diags, "NINF_BLOCKING API 'blockingSend'"), 2)
      << "both the annotated entry point and the postSolo lambda reach it";
  EXPECT_EQ(countMessages(diags, "waits on CondVar 'done_cv_'"), 1);
  for (const auto& d : diags) EXPECT_EQ(d.check, "reactor-blocking");
}

TEST(ReactorBlocking, CleanOnDisciplinedReactorCode) {
  const auto diags = run("reactor_blocking_neg.cpp", "reactor-blocking");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(ReactorBlocking, HonorsAuditedSuppression) {
  const auto diags = run("reactor_blocking_suppressed.cpp",
                         "reactor-blocking");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// ------------------------------------------------------ codec-symmetry

TEST(CodecSymmetry, FlagsEncodeOnlyField) {
  const auto diags = run("codec_symmetry_pos.cpp", "codec-symmetry");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, "codec-symmetry");
  EXPECT_NE(diags[0].message.find("Lopsided"), std::string::npos);
  EXPECT_NE(diags[0].message.find("missing 'u64'"), std::string::npos);
}

TEST(CodecSymmetry, CleanOnSymmetricCodecs) {
  const auto diags = run("codec_symmetry_neg.cpp", "codec-symmetry");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(CodecSymmetry, FlagsDroppedOptionalWordAfterQualifiedOperator) {
  const auto diags =
      run("codec_symmetry_optional_pos.cpp", "codec-symmetry");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("Ack::encode"), std::string::npos);
  EXPECT_NE(diags[0].message.find("extra 'u32'"), std::string::npos);
}

TEST(CodecSymmetry, CleanOnMatchingOptionalWord) {
  const auto diags =
      run("codec_symmetry_optional_neg.cpp", "codec-symmetry");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(CodecSymmetry, HonorsAuditedSuppression) {
  const auto diags = run("codec_symmetry_suppressed.cpp", "codec-symmetry");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// ------------------------------------------------------- pool-lifetime

TEST(PoolLifetime, FlagsCopiesEscapesAndStaticStorage) {
  const auto diags = run("pool_lifetime_pos.cpp", "pool-lifetime");
  EXPECT_EQ(countMessages(diags, "by copy"), 1);
  EXPECT_EQ(countMessages(diags, "dangles once the buffer is released"), 1);
  EXPECT_EQ(countMessages(diags, "bound to named pointer 'held'"), 1);
  EXPECT_EQ(countMessages(diags, "static storage duration"), 1);
  EXPECT_EQ(diags.size(), 4u);
}

TEST(PoolLifetime, CleanOnMoveDiscipline) {
  const auto diags = run("pool_lifetime_neg.cpp", "pool-lifetime");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(PoolLifetime, HonorsAuditedSuppression) {
  const auto diags = run("pool_lifetime_suppressed.cpp", "pool-lifetime");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// -------------------------------------------------- metrics-under-lock

TEST(MetricsUnderLock, FlagsUpdatesInsideCriticalSections) {
  const auto diags = run("metrics_under_lock_pos.cpp", "metrics-under-lock");
  EXPECT_EQ(countMessages(diags, "metric update 'depth_.set()'"), 1);
  EXPECT_EQ(countMessages(diags, "obs::counter() registry access"), 1);
  EXPECT_EQ(countMessages(diags, "call to 'bumpDepth()'"), 1);
  EXPECT_EQ(diags.size(), 3u);
}

TEST(MetricsUnderLock, CleanOnHoistedUpdates) {
  const auto diags = run("metrics_under_lock_neg.cpp", "metrics-under-lock");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

TEST(MetricsUnderLock, HonorsAuditedSuppression) {
  const auto diags = run("metrics_under_lock_suppressed.cpp",
                         "metrics-under-lock");
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// --------------------------------------------------- suppression audit

TEST(SuppressionAudit, RejectsEmptyOrBogusJustifications) {
  const std::string src = R"cpp(
    #define NINF_TIDY_SUPPRESS(check, reason)
    void f() {
      NINF_TIDY_SUPPRESS("reactor-blocking", "");
      NINF_TIDY_SUPPRESS("no-such-check", "a perfectly fine sentence");
      NINF_TIDY_SUPPRESS("pool-lifetime", "short");
    }
  )cpp";
  std::vector<ninf_tidy::FileModel> models;
  models.push_back(ninf_tidy::parseFile("audit.cpp", src));
  const auto diags =
      ninf_tidy::validateSuppressions(ninf_tidy::buildProject(
          std::move(models)));
  EXPECT_EQ(diags.size(), 3u);
}

TEST(SuppressionAudit, AcceptsJustifiedKnownChecks) {
  const auto project = load({"reactor_blocking_suppressed.cpp",
                             "codec_symmetry_suppressed.cpp",
                             "pool_lifetime_suppressed.cpp",
                             "metrics_under_lock_suppressed.cpp"});
  const auto diags = ninf_tidy::validateSuppressions(project);
  EXPECT_TRUE(diags.empty()) << diags.front().message;
}

// ------------------------------------------------------- parser smoke

TEST(Model, ResolvesQualifiedNamesAcrossDeclAndDef) {
  const std::string header = R"cpp(
    namespace ninf::server {
    class Reactor {
     public:
      void loop() NINF_REACTOR_CONTEXT;
    };
    }  // namespace ninf::server
  )cpp";
  const std::string impl = R"cpp(
    namespace ninf::server {
    void Reactor::loop() { helper(); }
    }  // namespace ninf::server
  )cpp";
  std::vector<ninf_tidy::FileModel> models;
  models.push_back(ninf_tidy::parseFile("reactor.h", header));
  models.push_back(ninf_tidy::parseFile("reactor.cpp", impl));
  const auto project = ninf_tidy::buildProject(std::move(models));

  const auto* def = project.findQualified("Reactor", "loop");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->reactor_context)
      << "annotation on the declaration must cover the definition";
}

}  // namespace
