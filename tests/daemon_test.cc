// svcd daemon (cli/daemon.h): socket serving, the NDJSON protocol's error
// handling, the RunClient exit-code contract, checkpoint write failures,
// and the checkpoint/resume drills.  A daemon restarted from its
// checkpoint after admissions without releases, with or without
// survivability, must report the same placements and backup groups and
// make the same next decisions as one that never stopped.  After a
// release, restore re-adds the per-link sums in id order, so their
// low-order bits (and later decisions) may differ; no test here claims
// otherwise.
#include "cli/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace svc::cli {
namespace {

std::string TempPath(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

// Serves a Daemon on its own thread and joins it on destruction.  Tests
// end the serve loop either with a client "shutdown" command or Stop().
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonConfig config)
      : daemon_(std::move(config)),
        thread_([this] { status_ = daemon_.Serve(); }) {}

  ~DaemonHarness() {
    daemon_.Stop();
    if (thread_.joinable()) thread_.join();
  }

  // True once the daemon accepts connections (bounded wait).
  bool WaitReady(const std::string& socket_path) {
    for (int attempt = 0; attempt < 500; ++attempt) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path.c_str(),
                   sizeof addr.sun_path - 1);
      const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return false;
      const bool up =
          connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0;
      close(fd);
      if (up) return true;
      usleep(10 * 1000);
    }
    return false;
  }

  util::Status Join() {
    if (thread_.joinable()) thread_.join();
    return status_;
  }

  Daemon& daemon() { return daemon_; }

 private:
  Daemon daemon_;
  util::Status status_;
  std::thread thread_;
};

// Drives the daemon with a command script; returns RunClient's exit code
// and captures the printed output.
int Drive(const std::string& socket_path, const std::string& script,
          std::string* output) {
  std::istringstream in(script);
  std::ostringstream out;
  const int code = RunClient(socket_path, in, out);
  *output = out.str();
  return code;
}

DaemonConfig BaseConfig(const std::string& socket_path,
                        const std::string& checkpoint_path = "") {
  const sim::Scenario* scenario = sim::FindScenario("daemon_default");
  EXPECT_NE(scenario, nullptr);
  DaemonConfig config;
  config.scenario = *scenario;
  config.socket_path = socket_path;
  config.checkpoint_path = checkpoint_path;
  config.checkpoint_every = 1;
  return config;
}

TEST(RunClient, ConnectionFailureReturnsTwo) {
  std::string output;
  const int code =
      Drive(TempPath("svcd_no_such.sock"), "health\n", &output);
  EXPECT_EQ(code, 2);
  EXPECT_NE(output.find("error: connect"), std::string::npos) << output;
}

TEST(RunClient, EmptySocketPathReturnsTwo) {
  std::string output;
  EXPECT_EQ(Drive("", "health\n", &output), 2);
}

TEST(Daemon, ServesCommandsAndReportsFailures) {
  const std::string socket_path = TempPath("svcd_serve.sock");
  DaemonHarness harness(BaseConfig(socket_path));
  ASSERT_TRUE(harness.WaitReady(socket_path));

  std::string output;
  EXPECT_EQ(Drive(socket_path,
                  "admit 1 homogeneous 6 100 50\n"
                  "# a comment the client strips\n"
                  "health\n",
                  &output),
            0);
  EXPECT_NE(output.find("admit 1"), std::string::npos) << output;

  // A failing interpreter command flips the exit code but keeps serving.
  EXPECT_EQ(Drive(socket_path, "bogus-command\n", &output), 1);
  EXPECT_EQ(Drive(socket_path, "health\n", &output), 0);

  EXPECT_EQ(Drive(socket_path, "shutdown\n", &output), 0);
  EXPECT_NE(output.find("shutting down"), std::string::npos);
  EXPECT_TRUE(harness.Join().ok());
  EXPECT_GE(harness.daemon().requests_served(), 5);
}

// Connects a raw NDJSON client to `socket_path`; -1 on failure.
int Connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 &&
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Sends one request line and returns the response line.
std::string RoundTrip(int fd, const std::string& request) {
  const std::string line = request + "\n";
  if (write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    return "";
  }
  std::string reply;
  char c;
  while (read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  return reply;
}

TEST(Daemon, MalformedRequestKeepsTheConnectionServing) {
  const std::string socket_path = TempPath("svcd_malformed.sock");
  DaemonHarness harness(BaseConfig(socket_path));
  ASSERT_TRUE(harness.WaitReady(socket_path));
  const int fd = Connect(socket_path);
  ASSERT_GE(fd, 0);

  EXPECT_NE(RoundTrip(fd, "this is not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(RoundTrip(fd, "{\"id\":7}").find("\"ok\":false"),
            std::string::npos);
  // An id is echoed only when it is an integer the reply can carry
  // exactly; any other id is an error response.
  for (const char* id : {"1e300", "2.5", "9007199254740993", "\"seven\"",
                         "null"}) {
    SCOPED_TRACE(id);
    const std::string reply = RoundTrip(
        fd, std::string("{\"cmd\":\"health\",\"id\":") + id + "}");
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("must be an integer"), std::string::npos) << reply;
    EXPECT_EQ(reply.find("\"id\":"), std::string::npos) << reply;
  }

  // The connection is still good: a valid request succeeds and echoes id.
  for (const char* id : {"9", "-9007199254740991", "9007199254740991"}) {
    SCOPED_TRACE(id);
    const std::string reply = RoundTrip(
        fd, std::string("{\"cmd\":\"health\",\"id\":") + id + "}");
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    EXPECT_NE(reply.find(std::string("\"id\":") + id + ","),
              std::string::npos)
        << reply;
  }
  close(fd);
}

// Checkpoint restore is strict: a mistyped, out-of-range, or unknown
// member, in the daemon's own fields or in a tenant record, stops svcd
// from starting instead of being skipped or truncated.
TEST(Daemon, MalformedCheckpointIsRefused) {
  const std::string socket_path = TempPath("svcd_strict.sock");
  const std::string checkpoint = TempPath("svcd_strict.ckpt");
  std::remove(checkpoint.c_str());
  std::string ignored;
  {
    DaemonHarness harness(BaseConfig(socket_path, checkpoint));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path,
                    "admit 1 homogeneous 6 100 50\n"
                    "fail machine 4\n"
                    "shutdown\n",
                    &ignored),
              0);
    EXPECT_TRUE(harness.Join().ok());
  }
  std::ifstream in(checkpoint);
  const std::string good((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_NE(good.find("\"failed\":[{\"vertex\":4,\"kind\":\"machine\"}]"),
            std::string::npos)
      << good;

  struct Case {
    std::string from, to, path;
  };
  const std::vector<Case> cases = {
      {"\"vertex\":4,", "\"vertex\":4294967300,",
       "checkpoint.failed[0].vertex"},
      {"\"vertex\":4,", "\"vertex\":4.5,", "checkpoint.failed[0].vertex"},
      {"\"kind\":\"machine\"", "\"kind\":\"rack\"",
       "checkpoint.failed[0].kind"},
      {"\"policy\":\"reallocate\"", "\"policy\":7", "checkpoint.policy"},
      {"\"survivable\":false", "\"survivable\":false,\"extra\":1",
       "checkpoint.extra: unknown key"},
      {"\"place\":[", "\"place\":[0,", "checkpoint.tenants[0].place[0]"},
      {"\"cordoned\":[]", "\"cordoned\":[-3]", "checkpoint.cordoned[0]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.to);
    std::string text = good;
    const size_t pos = text.find(c.from);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, c.from.size(), c.to);
    std::ofstream(checkpoint, std::ios::trunc) << text;
    DaemonHarness harness(BaseConfig(socket_path, checkpoint));
    harness.daemon().Stop();  // a daemon that does start returns at once
    const util::Status status = harness.Join();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_NE(status.message().find(c.path), std::string::npos)
        << status.message();
  }

  // The untouched checkpoint still restores.
  std::ofstream(checkpoint, std::ios::trunc) << good;
  DaemonHarness harness(BaseConfig(socket_path, checkpoint));
  ASSERT_TRUE(harness.WaitReady(socket_path));
  EXPECT_EQ(Drive(socket_path, "assert live 1\nshutdown\n", &ignored), 0);
  EXPECT_TRUE(harness.Join().ok());
  std::remove(checkpoint.c_str());
}

// The acceptance drill: admit 1..2, stop, resume from the checkpoint,
// admit 3 — and separately admit 1..3 on a daemon that never stopped.
// Tenant 3's placement (the full interpreter output) must be identical,
// and the restored state must remember tenants 1..2.
TEST(Daemon, ResumesFromCheckpointWithIdenticalDecisions) {
  const std::string socket_path = TempPath("svcd_resume.sock");
  const std::string resumed_ckpt = TempPath("svcd_resume.ckpt");
  const std::string straight_ckpt = TempPath("svcd_straight.ckpt");
  std::remove(resumed_ckpt.c_str());
  std::remove(straight_ckpt.c_str());

  const std::string first_two =
      "admit 1 homogeneous 6 100 50\n"
      "admit 2 homogeneous 8 200 120\n";
  const std::string third = "admit 3 homogeneous 4 300 90\n";

  std::string ignored;
  {
    DaemonHarness harness(BaseConfig(socket_path, resumed_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path, first_two + "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }

  std::string resumed_third;
  {
    DaemonHarness harness(BaseConfig(socket_path, resumed_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    // Restored state remembers tenant 1: re-admitting it must fail.
    EXPECT_EQ(Drive(socket_path, "admit 1 homogeneous 6 100 50\n", &ignored),
              1);
    ASSERT_EQ(Drive(socket_path, third, &resumed_third), 0);
    ASSERT_EQ(Drive(socket_path, "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }

  std::string straight_third;
  {
    DaemonHarness harness(BaseConfig(socket_path, straight_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path, first_two, &ignored), 0);
    ASSERT_EQ(Drive(socket_path, third, &straight_third), 0);
    ASSERT_EQ(Drive(socket_path, "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }

  EXPECT_FALSE(resumed_third.empty());
  EXPECT_EQ(resumed_third, straight_third);
  std::remove(resumed_ckpt.c_str());
  std::remove(straight_ckpt.c_str());
}

// The first primary machine of a `show placement` line.  The braces list
// the backup machine too ("placement 1: 6 VMs under vertex 2 {m3:4, m5:1,
// m6:1, m7:4} backup m3:4"), so it is skipped.
std::string PrimaryHost(const std::string& output, const std::string& id) {
  const std::regex line_re("placement " + id +
                           ": [^{]*\\{([^}]*)\\}(?: backup m([0-9]+))?");
  std::smatch line;
  if (!std::regex_search(output, line, line_re)) return "";
  const std::string hosts = line[1];
  const std::regex host_re("m([0-9]+):");
  for (std::sregex_iterator it(hosts.begin(), hosts.end(), host_re), end;
       it != end; ++it) {
    if ((*it)[1].str() != line[2].str()) return (*it)[1];
  }
  return "";
}

// The survivable drill: with survivability on and the switchover policy,
// admit three tenants, stop, resume from the checkpoint.  Every placement
// (backup groups included) and a drain of tenant 1's first primary host
// must read exactly as on a daemon that never stopped — the drain moves
// the tenant through its backup group on both.
TEST(Daemon, ResumesSurvivableTenantsWithTheirBackupGroups) {
  const std::string socket_path = TempPath("svcd_survivable.sock");
  const std::string resumed_ckpt = TempPath("svcd_survivable.ckpt");
  const std::string straight_ckpt = TempPath("svcd_survivable_straight.ckpt");
  std::remove(resumed_ckpt.c_str());
  std::remove(straight_ckpt.c_str());

  const std::string admits =
      "survivable on\n"
      "policy switchover\n"
      "admit 1 homogeneous 6 100 50\n"
      "admit 2 deterministic 4 90\n"
      "allocator hetero-heuristic\n"
      "admit 3 heterogeneous 300:150 20:5 80:40\n"
      "allocator svc-dp\n";
  const std::string show =
      "show placement 1\nshow placement 2\nshow placement 3\n";

  std::string ignored;
  {
    DaemonHarness harness(BaseConfig(socket_path, resumed_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path, admits + "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }

  std::string straight_show, straight_drain;
  {
    DaemonHarness harness(BaseConfig(socket_path, straight_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path, admits + show, &straight_show), 0);
    const std::string host = PrimaryHost(straight_show, "1");
    ASSERT_FALSE(host.empty()) << straight_show;
    ASSERT_EQ(Drive(socket_path, "drain " + host + "\n", &straight_drain), 0);
    ASSERT_EQ(Drive(socket_path, "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }
  EXPECT_NE(straight_show.find("backup m"), std::string::npos)
      << straight_show;
  EXPECT_NE(straight_drain.find("(1 via backup)"), std::string::npos)
      << straight_drain;

  std::string resumed_show, resumed_drain;
  {
    DaemonHarness harness(BaseConfig(socket_path, resumed_ckpt));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path, show, &resumed_show), 0);
    const std::string host = PrimaryHost(resumed_show, "1");
    ASSERT_EQ(Drive(socket_path, "drain " + host + "\n", &resumed_drain), 0);
    ASSERT_EQ(Drive(socket_path, "shutdown\n", &ignored), 0);
    EXPECT_TRUE(harness.Join().ok());
  }
  // The straight run's output starts with the admissions.
  EXPECT_EQ(resumed_show,
            straight_show.substr(straight_show.find("placement 1:")));
  EXPECT_EQ(resumed_drain, straight_drain);
  std::remove(resumed_ckpt.c_str());
  std::remove(straight_ckpt.c_str());
}

// A checkpoint that cannot be written is not silent: the forced command
// reports it, the periodic one is counted, and Serve() returns the failed
// shutdown checkpoint.
TEST(Daemon, UnwritableCheckpointFailsLoudly) {
  const std::string socket_path = TempPath("svcd_unwritable.sock");
  const std::string checkpoint =
      TempPath("svcd_no_such_dir") + "/svcd.ckpt";
  obs::SetMetricsEnabled(true);
  const auto errors = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::Global().Collect();
    for (const auto& c : snapshot.counters) {
      if (c.name == "daemon/checkpoint_errors") return c.value;
    }
    return static_cast<decltype(snapshot.counters[0].value)>(0);
  };
  const auto before = errors();
  DaemonHarness harness(BaseConfig(socket_path, checkpoint));
  ASSERT_TRUE(harness.WaitReady(socket_path));
  std::string output;
  // The admission itself succeeds; only its checkpoint fails.
  EXPECT_EQ(Drive(socket_path, "admit 1 homogeneous 6 100 50\n", &output), 0);
  EXPECT_EQ(Drive(socket_path, "checkpoint\n", &output), 1);
  EXPECT_NE(output.find("not written"), std::string::npos) << output;
  ASSERT_EQ(Drive(socket_path, "shutdown\n", &output), 0);
  const util::Status status = harness.Join();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(checkpoint), std::string::npos)
      << status.message();
  // Periodic (after the admit), forced, and shutdown.
  EXPECT_EQ(errors(), before + 3);
  obs::SetMetricsEnabled(false);
}

TEST(Daemon, CheckpointForDifferentScenarioIsRejected) {
  const std::string socket_path = TempPath("svcd_mismatch.sock");
  const std::string checkpoint = TempPath("svcd_mismatch.ckpt");
  std::remove(checkpoint.c_str());

  std::string ignored;
  {
    DaemonHarness harness(BaseConfig(socket_path, checkpoint));
    ASSERT_TRUE(harness.WaitReady(socket_path));
    ASSERT_EQ(Drive(socket_path,
                    "admit 1 homogeneous 6 100 50\n"
                    "shutdown\n",
                    &ignored),
              0);
    EXPECT_TRUE(harness.Join().ok());
  }

  DaemonConfig other = BaseConfig(socket_path, checkpoint);
  other.scenario.admission.epsilon = 0.25;  // different config hash
  DaemonHarness harness(std::move(other));
  const util::Status status = harness.Join();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("different scenario"), std::string::npos)
      << status.ToText();
  std::remove(checkpoint.c_str());
}

TEST(Daemon, EmptyScenarioNameFailsValidation) {
  DaemonConfig config = BaseConfig(TempPath("svcd_invalid.sock"));
  config.scenario.name.clear();
  Daemon daemon(std::move(config));
  EXPECT_FALSE(daemon.Serve().ok());
}

TEST(Daemon, ForcedCheckpointCommandWritesTheFile) {
  const std::string socket_path = TempPath("svcd_force.sock");
  const std::string checkpoint = TempPath("svcd_force.ckpt");
  std::remove(checkpoint.c_str());
  DaemonHarness harness(BaseConfig(socket_path, checkpoint));
  ASSERT_TRUE(harness.WaitReady(socket_path));

  std::string output;
  ASSERT_EQ(Drive(socket_path, "checkpoint\n", &output), 0);
  EXPECT_NE(output.find("checkpoint"), std::string::npos);
  std::ifstream in(checkpoint);
  EXPECT_TRUE(static_cast<bool>(in));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("scenario_hash"), std::string::npos);

  ASSERT_EQ(Drive(socket_path, "shutdown\n", &output), 0);
  EXPECT_TRUE(harness.Join().ok());
  std::remove(checkpoint.c_str());
}

}  // namespace
}  // namespace svc::cli
