/**
 * @file
 * End-to-end tests of the serving stack (src/serve/): protocol
 * round-trips, a real daemon on a loopback ephemeral port, the
 * determinism contract (server fingerprint == local compile), the
 * persistent disk tier across a server restart, structured error
 * responses, deadline enforcement under load, fair admission keeping a
 * sweep from starving an interactive client, graceful drain, and the
 * daemon's resource bounds (finished sessions release their fds; fd
 * exhaustion pauses accept instead of ending it; oversized circuits
 * and clock-overflowing deadlines are rejected up front).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "serve/compile_client.h"
#include "serve/compile_server.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

namespace fs = std::filesystem;

/** Self-deleting scratch directory for disk-tier tests. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        static int counter = 0;
        path_ = fs::temp_directory_path() /
                ("mussti_serve_test_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter++));
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** The stats counter `key`, or -1 when the response lacks it. */
long long
counter(const ServeResponse &stats, const std::string &key)
{
    for (const auto &entry : stats.stats)
        if (entry.first == key)
            return entry.second;
    return -1;
}

/** Open file descriptors of this process. */
std::size_t
openFdCount()
{
    std::size_t count = 0;
    for (const auto &entry : fs::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++count;
    }
    return count;
}

/**
 * Poll `done` every 10 ms for up to 10 s; false on timeout. Returns the
 * last value polled: asking again could see a state that has moved on.
 */
template <typename Pred>
bool
eventually(Pred done)
{
    for (int i = 0; i < 1000; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

ServeRequest
familyRequest(const std::string &family, int qubits,
              const std::string &client = "test")
{
    ServeRequest request;
    request.type = ServeRequestType::Compile;
    request.client = client;
    request.family = family;
    request.qubits = qubits;
    return request;
}

TEST(ServeProtocol, RequestRoundTripsEveryField)
{
    ServeRequest request;
    request.type = ServeRequestType::Compile;
    request.id = 42;
    request.client = "sweeper";
    request.family = "qaoa";
    request.qubits = 96;
    request.device = "eml:modules=4,cap=32";
    request.backend = "mussti";
    request.hasSeed = true;
    request.seed = (1ull << 63) + 12345; // past 2^53: must survive JSON
    request.deadlineMs = 2500;

    ServeRequest decoded;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded));
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.client, request.client);
    EXPECT_EQ(decoded.family, request.family);
    EXPECT_EQ(decoded.qubits, request.qubits);
    EXPECT_EQ(decoded.device, request.device);
    EXPECT_EQ(decoded.backend, request.backend);
    EXPECT_TRUE(decoded.hasSeed);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.deadlineMs, request.deadlineMs);

    ServeRequest qasm;
    qasm.qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
    qasm.name = "bell";
    ASSERT_TRUE(decodeRequest(encodeRequest(qasm), decoded));
    EXPECT_EQ(decoded.qasm, qasm.qasm);
    EXPECT_EQ(decoded.name, "bell");

    ServeRequest stats;
    stats.type = ServeRequestType::Stats;
    stats.id = 7;
    ASSERT_TRUE(decodeRequest(encodeRequest(stats), decoded));
    EXPECT_EQ(decoded.type, ServeRequestType::Stats);
    EXPECT_EQ(decoded.id, 7u);
}

TEST(ServeProtocol, ResponseRoundTripsBothArms)
{
    ServeResponse success;
    success.id = 9;
    success.ok = true;
    success.fingerprint = 0xdeadbeefcafef00dull; // > 2^53 as well
    success.executionTimeUs = 123.5;
    success.log10Fidelity = -0.25;
    success.shuttles = 17;
    success.swapInsertions = 4;

    ServeResponse decoded;
    ASSERT_TRUE(decodeResponse(encodeResponse(success), decoded));
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.id, 9u);
    EXPECT_EQ(decoded.fingerprint, success.fingerprint);
    EXPECT_DOUBLE_EQ(decoded.executionTimeUs, 123.5);
    EXPECT_DOUBLE_EQ(decoded.log10Fidelity, -0.25);
    EXPECT_EQ(decoded.shuttles, 17);
    EXPECT_EQ(decoded.swapInsertions, 4);

    ServeResponse failure;
    failure.id = 10;
    failure.ok = false;
    failure.error = {"InvalidInput", "serve.no-circuit", "no circuit"};
    ASSERT_TRUE(decodeResponse(encodeResponse(failure), decoded));
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.error.category, "InvalidInput");
    EXPECT_EQ(decoded.error.code, "serve.no-circuit");
    EXPECT_EQ(decoded.error.message, "no circuit");

    ServeResponse stats;
    stats.id = 11;
    stats.ok = true;
    stats.stats = {{"jobs_executed", 5}, {"cache_disk_hits", 2}};
    ASSERT_TRUE(decodeResponse(encodeResponse(stats), decoded));
    ASSERT_EQ(decoded.stats.size(), 2u);
    EXPECT_EQ(decoded.stats[0].first, "jobs_executed");
    EXPECT_EQ(decoded.stats[0].second, 5);
    EXPECT_EQ(decoded.stats[1].second, 2);
}

TEST(ServeProtocol, AttemptsKeyIsGoneButOlderFramesStillDecode)
{
    // The service never retries, so no response reports an attempt
    // count; neither arm emits the key.
    ServeResponse success;
    success.id = 1;
    success.ok = true;
    ServeResponse failure;
    failure.id = 2;
    failure.error = {"Transient", "fault.injected", "injected"};
    EXPECT_EQ(encodeResponse(success).find("\"attempts\""),
              std::string::npos);
    EXPECT_EQ(encodeResponse(failure).find("\"attempts\""),
              std::string::npos);

    // A frame from an older server still carries "attempts"; the
    // decoder skips it like any unknown key.
    ServeResponse decoded;
    ASSERT_TRUE(decodeResponse(
        "{\"id\":3,\"ok\":true,\"attempts\":3,"
        "\"fingerprint\":\"0x2a\",\"shuttles\":5}",
        decoded));
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.id, 3u);
    EXPECT_EQ(decoded.fingerprint, 0x2au);
    EXPECT_EQ(decoded.shuttles, 5);
    ASSERT_TRUE(decodeResponse(
        "{\"id\":4,\"ok\":false,\"error\":{\"category\":\"Transient\","
        "\"code\":\"fault.injected\",\"message\":\"m\"},"
        "\"attempts\":3}",
        decoded));
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.id, 4u);
    EXPECT_EQ(decoded.error.code, "fault.injected");
}

TEST(ServeProtocol, MalformedPayloadsAreRejectedNotFatal)
{
    const std::vector<std::string> garbage = {
        "",
        "not json",
        "{",
        "[1,2,3]",
        "{\"type\":\"compile\"",               // truncated
        "{\"type\":\"compile\",\"id\":\"x\"}", // id not numeric
        "{\"id\":-1}",                          // wraps to 2^64-1
        "{\"id\":1.5}",
        "{\"id\":18446744073709551616}",        // 2^64
    };
    for (const std::string &text : garbage) {
        ServeRequest request;
        EXPECT_FALSE(decodeRequest(text, request)) << text;
        ServeResponse response;
        EXPECT_FALSE(decodeResponse(text, response)) << text;
    }
    // Request-specific poison: fields a response decoder would merely
    // skip as unknown keys.
    const std::vector<std::string> badRequests = {
        "{\"type\":\"teleport\",\"id\":1}", // unknown type
        "{\"type\":\"compile\",\"id\":1,\"seed\":\"12z\"}",
        // Integers are checked, not cast: no wrap, no truncation, no
        // undefined out-of-range float-to-int conversion.
        "{\"type\":\"compile\",\"id\":1,\"qubits\":4294967297}",
        "{\"type\":\"compile\",\"id\":1,\"qubits\":1e300}",
        "{\"type\":\"compile\",\"id\":1,\"qubits\":3.7}",
        "{\"type\":\"compile\",\"id\":1,\"deadline_ms\":1e300}",
        "{\"type\":\"compile\",\"id\":1,\"deadline_ms\":2.5}",
        // u64 strings are digits only: no sign, space or octal zero.
        "{\"type\":\"compile\",\"id\":1,\"seed\":\"-5\"}",
        "{\"type\":\"compile\",\"id\":1,\"seed\":\" 7\"}",
        "{\"type\":\"compile\",\"id\":1,\"seed\":\"+7\"}",
        "{\"type\":\"compile\",\"id\":1,\"seed\":\"010\"}",
    };
    for (const std::string &text : badRequests) {
        ServeRequest request;
        EXPECT_FALSE(decodeRequest(text, request)) << text;
    }
    const std::vector<std::string> badResponses = {
        "{\"id\":1,\"ok\":true,\"shuttles\":4294967297}",
        "{\"id\":1,\"ok\":true,\"shuttles\":1e300}",
        "{\"id\":1,\"ok\":true,\"swap_insertions\":3.7}",
        "{\"id\":1,\"ok\":true,\"stats\":{\"jobs_executed\":1e300}}",
        "{\"id\":1,\"ok\":true,\"stats\":{\"jobs_executed\":0.5}}",
        "{\"id\":1,\"ok\":true,\"fingerprint\":\"-1\"}",
    };
    for (const std::string &text : badResponses) {
        ServeResponse response;
        EXPECT_FALSE(decodeResponse(text, response)) << text;
    }

    // Unknown keys are skipped, not fatal: forward compatibility.
    ServeRequest request;
    EXPECT_TRUE(decodeRequest(
        "{\"type\":\"compile\",\"id\":3,\"family\":\"ghz\","
        "\"qubits\":8,\"future_knob\":{\"a\":[1,2]}}",
        request));
    EXPECT_EQ(request.family, "ghz");
    EXPECT_EQ(request.qubits, 8);
}

TEST(ServeFraming, OneSendPerFrame)
{
    // A SOCK_SEQPACKET socket keeps each send() as one record, so the
    // first record's size shows how many sends a frame took. Prefix and
    // payload in two sends let Nagle hold the payload on TCP until the
    // peer's delayed ACK.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
    // A record must fit the send buffer whole; ask for room for 1 MB
    // and cap the payload at what the host grants.
    const int want = 4 << 20;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &want, sizeof want);
    int granted = 0;
    socklen_t len = sizeof granted;
    ASSERT_EQ(::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &granted, &len),
              0);
    const std::size_t large =
        std::min<std::size_t>(1u << 20, static_cast<std::size_t>(granted) / 2);

    std::vector<char> record(large + 64);
    for (const std::size_t size : {std::size_t{0}, large}) {
        const std::string payload(size, 'x');
        ASSERT_TRUE(writeFrame(fds[0], payload)) << size << " bytes";
        const ssize_t got = ::recv(fds[1], record.data(), record.size(), 0);
        EXPECT_EQ(got, static_cast<ssize_t>(4 + payload.size()))
            << size << "-byte payload";
    }
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Serve, CompileMatchesALocalCompileBitForBit)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 2;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    const ServeResponse response =
        client.await(client.send(familyRequest("qft", 16)));
    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;

    // The determinism contract: a daemon compile is bit-identical to a
    // local one — same fingerprint, same headline metrics.
    const CompileResult local =
        makeMusstiBackend()->compile(makeBenchmark("qft", 16));
    EXPECT_EQ(response.fingerprint, resultFingerprint(local));
    EXPECT_DOUBLE_EQ(response.executionTimeUs,
                     local.metrics.executionTimeUs);
    EXPECT_DOUBLE_EQ(response.log10Fidelity,
                     local.metrics.log10Fidelity());
    EXPECT_EQ(response.shuttles, local.metrics.shuttleCount);

    // Same request again: served from the result cache, same answer.
    const ServeResponse again =
        client.await(client.send(familyRequest("qft", 16)));
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.fingerprint, response.fingerprint);

    const ServeResponse stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(counter(stats, "jobs_executed"), 1);
    EXPECT_GE(counter(stats, "cache_hits"), 1);
    EXPECT_GE(counter(stats, "admission_completed"), 2);
    // 19 counters, none for retries: the service never retries.
    EXPECT_EQ(stats.stats.size(), 19u);
    EXPECT_EQ(counter(stats, "jobs_retried"), -1);

    server.stop();
}

TEST(Serve, EveryBackendMatchesItsLocalCompile)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 2;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // One backend x device rule on both sides: the served fingerprint
    // is the local makeBackend() compile's, grid baselines included.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"mussti", "eml:hetero=2.1.2-2.1.1,cap=16"},
        {"murali", "grid:4x3,cap=16"},
        {"dai", "grid:4x3,cap=16"},
        {"mqt", "grid:4x3,cap=16"},
    };
    for (const auto &[backend, device] : cases) {
        ServeRequest request = familyRequest("qft", 24);
        request.backend = backend;
        request.device = device;
        const ServeResponse response = client.await(client.send(request));
        ASSERT_TRUE(response.ok) << backend << " on " << device << ": "
                                 << response.error.code << ": "
                                 << response.error.message;

        const CompileResult local =
            makeBackend(backend, DeviceRegistry::parse(device))
                ->compile(makeBenchmark("qft", 24));
        EXPECT_EQ(response.fingerprint, resultFingerprint(local))
            << backend << " on " << device;
        EXPECT_EQ(response.shuttles, local.metrics.shuttleCount)
            << backend << " on " << device;
    }

    server.stop();
}

TEST(Serve, SeededCompilesMatchTheSeededLocalPath)
{
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest request = familyRequest("qaoa", 24);
    request.hasSeed = true;
    request.seed = (1ull << 60) + 99; // u64-clean through the wire
    const ServeResponse response = client.await(client.send(request));
    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;

    const CompileResult local = makeMusstiBackend()->compileSeeded(
        makeBenchmark("qaoa", 24), request.seed);
    EXPECT_EQ(response.fingerprint, resultFingerprint(local));

    server.stop();
}

TEST(Serve, WarmRestartServesFromThePersistentTier)
{
    ScratchDir dir;
    std::uint64_t cold = 0;
    {
        CompileServerConfig config;
        config.port = 0;
        config.diskCachePath = dir.str();
        CompileServer server(config);
        ASSERT_TRUE(server.start());
        CompileClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        const ServeResponse response =
            client.await(client.send(familyRequest("ghz", 20)));
        ASSERT_TRUE(response.ok);
        cold = response.fingerprint;
        server.stop();
    }

    // A fresh daemon on the same cache directory answers bit-identically
    // WITHOUT compiling: the disk tier survives the process.
    CompileServerConfig config;
    config.port = 0;
    config.diskCachePath = dir.str();
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const ServeResponse warm =
        client.await(client.send(familyRequest("ghz", 20)));
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.fingerprint, cold);

    const ServeResponse stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(counter(stats, "jobs_executed"), 0);
    EXPECT_GE(counter(stats, "cache_disk_hits"), 1);

    server.stop();
}

TEST(Serve, StructuredErrorsComeBackOverTheWire)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Unknown benchmark family -> InvalidInput from the workload layer.
    const ServeResponse family =
        client.await(client.send(familyRequest("warpdrive", 8)));
    EXPECT_FALSE(family.ok);
    EXPECT_EQ(family.error.category, "InvalidInput");

    // No circuit at all.
    ServeRequest empty;
    empty.client = "test";
    const ServeResponse none = client.await(client.send(empty));
    EXPECT_FALSE(none.ok);
    EXPECT_EQ(none.error.code, "serve.no-circuit");

    // MUSS-TI backend pointed at a grid device spec.
    ServeRequest mismatch = familyRequest("ghz", 8);
    mismatch.device = "grid:8x8";
    mismatch.backend = "mussti";
    const ServeResponse wrong = client.await(client.send(mismatch));
    EXPECT_FALSE(wrong.ok);
    EXPECT_EQ(wrong.error.code, "serve.device-mismatch");

    // The session survives every bad request above.
    const ServeResponse okStill =
        client.await(client.send(familyRequest("ghz", 8)));
    EXPECT_TRUE(okStill.ok);

    server.stop();
}

TEST(Serve, OutOfRangeQubitsAreRejectedBeforeBuilding)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest wide;
    wide.client = "test";
    wide.qasm = "OPENQASM 2.0;\nqreg q[" +
                std::to_string(kMaxServeQubits + 1) + "];\ncx q[0],q[1];\n";
    for (const ServeRequest &request :
         {familyRequest("ghz", kMaxServeQubits + 1), familyRequest("ghz", -1),
          wide}) {
        const ServeResponse response = client.await(client.send(request));
        EXPECT_FALSE(response.ok);
        EXPECT_EQ(response.error.category, "InvalidInput");
        EXPECT_EQ(response.error.code, "serve.qubits-out-of-range");
    }

    // Nothing out of range reached the service; 0 still means the
    // 32-qubit default.
    const ServeResponse fallback =
        client.await(client.send(familyRequest("ghz", 0)));
    ASSERT_TRUE(fallback.ok)
        << fallback.error.code << ": " << fallback.error.message;
    EXPECT_EQ(fallback.fingerprint,
              resultFingerprint(
                  makeMusstiBackend()->compile(makeBenchmark("ghz", 32))));
    EXPECT_EQ(counter(client.stats(), "admission_submitted"), 1);

    server.stop();
}

TEST(Serve, AnOverflowingDeadlineIsRejectedNotTimedOut)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // About 317 years: now() + deadline would wrap the clock.
    ServeRequest huge = familyRequest("ghz", 8);
    huge.deadlineMs = 10000000000000LL;
    const ServeResponse rejected = client.await(client.send(huge));
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error.category, "InvalidInput");
    EXPECT_EQ(rejected.error.code, "serve.bad-deadline");

    // A long deadline the clock can hold (100 years) is no deadline
    // pressure at all.
    ServeRequest patient = familyRequest("ghz", 8);
    patient.deadlineMs = 100LL * 365 * 24 * 3600 * 1000;
    const ServeResponse served = client.await(client.send(patient));
    EXPECT_TRUE(served.ok)
        << served.error.code << ": " << served.error.message;

    server.stop();
}

TEST(Serve, ABlownDeadlineIsAStructuredTimeout)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Park the single worker, then queue a 1 ms-deadline job behind it:
    // by the time a worker frees up the deadline is long gone. Both come
    // from one client, whose queue is FIFO: were they two clients and
    // both still queued, DRR would rightly start the cheap job first.
    const std::uint64_t blocker = client.send(familyRequest("qv", 64));
    ServeRequest urgent = familyRequest("ghz", 8);
    urgent.deadlineMs = 1;
    const ServeResponse late = client.await(client.send(urgent));
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.error.category, "Timeout");
    EXPECT_TRUE(client.await(blocker).ok);

    server.stop();
}

TEST(Serve, ASweepCannotStarveAnInteractiveClient)
{
    // Two workers; the sweep's in-flight budget is 1, so however deep
    // its queue, one worker always remains for the interactive client —
    // the admission lever the fairness story hangs on.
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 2;
    config.cacheCapacity = 0; // every job pays full compile cost
    config.admission.maxInFlightPerClient = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient sweep;
    ASSERT_TRUE(sweep.connect("127.0.0.1", server.port()));
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        ServeRequest request = familyRequest("qft", 24, "sweep");
        request.hasSeed = true;
        request.seed = 1000 + i;
        ids.push_back(sweep.send(request));
    }

    CompileClient interactive;
    ASSERT_TRUE(interactive.connect("127.0.0.1", server.port()));
    ServeRequest request = familyRequest("ghz", 8, "interactive");
    request.deadlineMs = 10000;
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResponse response =
        interactive.await(interactive.send(request));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);

    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;
    EXPECT_LT(elapsed.count(), 10000);

    for (const std::uint64_t id : ids)
        EXPECT_TRUE(sweep.await(id).ok);

    server.stop();
}

TEST(Serve, GracefulStopStreamsCancelledForQueuedWork)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    config.admission.maxInFlightPerClient = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint64_t> ids;
    ids.push_back(client.send(familyRequest("qv", 64)));
    for (int i = 0; i < 4; ++i) {
        ServeRequest request = familyRequest("ghz", 8);
        request.hasSeed = true;
        request.seed = 2000 + i;
        ids.push_back(client.send(request));
    }
    // Let the reader thread ingest the frames, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.stop();

    // Every job resolves exactly once: finished in-flight work is ok,
    // still-queued work streams a structured Cancelled — and even a
    // torn connection degrades to a synthetic Cancelled, never a hang.
    int ok = 0, cancelled = 0;
    for (const std::uint64_t id : ids) {
        const ServeResponse response = client.await(id);
        if (response.ok) {
            ++ok;
        } else {
            EXPECT_EQ(response.error.category, "Cancelled")
                << response.error.code;
            ++cancelled;
        }
    }
    EXPECT_EQ(ok + cancelled, 5);
    EXPECT_GE(ok, 1); // the in-flight blocker was never abandoned
}

TEST(Serve, FinishedSessionsReleaseTheirFds)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    const std::size_t baseline = openFdCount();
    for (int i = 0; i < 300; ++i) {
        CompileClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port())) << i;
        if (i % 50 == 0) { // Some sessions carry traffic first.
            EXPECT_TRUE(client.stats().ok);
        }
    }

    // Each session closes its socket once the peer hangs up, so the
    // count returns to the baseline rather than growing by 300.
    EXPECT_TRUE(eventually([&] { return openFdCount() <= baseline; }))
        << openFdCount() << " fds open, baseline " << baseline;

    // Still serving after all that churn.
    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(client.await(client.send(familyRequest("ghz", 8))).ok);
    server.stop();
}

TEST(Serve, AcceptSurvivesFdExhaustion)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    // The socket is made while fds are still available; connecting it
    // needs no new one.
    const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(raw, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));

    // Cap the fd table at the lowest free slot: nothing new can open,
    // so the daemon's accept fails with EMFILE while the cap holds.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(lowest_free);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
    const int connected = ::connect(
        raw, reinterpret_cast<const sockaddr *>(&addr), sizeof addr);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_EQ(connected, 0);

    // The connection that arrived during the exhaustion is served once
    // fds are back (bounded wait: a dead accept loop fails, not hangs).
    timeval timeout{10, 0};
    ::setsockopt(raw, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ServeRequest request = familyRequest("ghz", 8);
    request.id = 1;
    ASSERT_TRUE(writeFrame(raw, encodeRequest(request)));
    std::string payload;
    ASSERT_TRUE(readFrame(raw, payload));
    ServeResponse response;
    ASSERT_TRUE(decodeResponse(payload, response));
    EXPECT_EQ(response.id, 1u);
    EXPECT_TRUE(response.ok);
    ::close(raw);

    // And so are new ones.
    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(client.await(client.send(familyRequest("ghz", 8))).ok);
    server.stop();
}

} // namespace
} // namespace mussti
