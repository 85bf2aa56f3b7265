#include "serve/compile_server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "serve/framing.h"
#include "workloads/workloads.h"

namespace mussti {

namespace {

CompileServiceConfig
serviceConfigOf(const CompileServerConfig &config)
{
    CompileServiceConfig service;
    service.numThreads = config.numThreads;
    service.cacheCapacity = config.cacheCapacity;
    service.diskCachePath = config.diskCachePath;
    service.diskCacheCapacity = config.diskCacheCapacity;
    service.admission = config.admission;
    return service;
}

ServeResponse
errorResponse(std::uint64_t id, const MusstiError &error)
{
    ServeResponse response;
    response.id = id;
    response.ok = false;
    response.error.category = error.categoryName();
    response.error.code = error.code();
    response.error.message = error.message();
    return response;
}

} // namespace

CompileServer::CompileServer(const CompileServerConfig &config)
    : config_(config), service_(serviceConfigOf(config))
{}

CompileServer::~CompileServer()
{
    stop();
}

bool
CompileServer::start()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    // Loopback only: the daemon has no auth story; remote use belongs
    // behind a tunnel. A full backlog drops SYNs, which clients feel as
    // 1 s retransmits, so a burst of connects gets the system maximum.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, SOMAXCONN) != 0) {
        ::close(fd);
        return false;
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = static_cast<int>(ntohs(bound.sin_port));

    listenFd_ = fd;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
CompileServer::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_)
        return;
    stopped_ = true;
    stopping_.store(true);

    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Drain the service before cutting sessions: queued jobs stream
    // Cancelled responses, running jobs finish and stream results.
    service_.shutdown();

    std::unique_lock<std::mutex> lock(sessionsMutex_);
    for (const int fd : readers_)
        ::shutdown(fd, SHUT_RD);
    readersLeft_.wait(lock, [this] { return readers_.empty(); });
}

CompileServer::Session::~Session()
{
    ::close(fd);
}

void
CompileServer::acceptLoop()
{
    while (!stopping_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM || errno == ECONNABORTED) {
                // Out of fds or memory, or the peer gave up: transient.
                // The pending connection stays queued; retry once
                // finishing sessions had a moment to close theirs.
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            break; // Listen socket shut down by stop().
        }
        // Responses are whole frames; Nagle would only hold one back.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        if (stopping_.load()) {
            ::close(fd); // Lost the race against stop().
            break;
        }
        readers_.insert(fd);
        auto session = std::make_shared<Session>(fd);
        std::thread([this, session] { sessionLoop(session); }).detach();
    }
}

void
CompileServer::sessionLoop(const SessionPtr &session)
{
    std::string payload;
    while (readFrame(session->fd, payload))
        handleFrame(session, payload);

    // EOF or cut read side. Jobs still pending keep the session, and
    // with it the write side, until their responses are out. Leaving
    // readers_ is this thread's last touch of the server: stop() may
    // return the moment the lock drops.
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    readers_.erase(session->fd);
    readersLeft_.notify_all();
}

void
CompileServer::handleFrame(const SessionPtr &session,
                           const std::string &payload)
{
    ServeRequest request;
    if (!decodeRequest(payload, request)) {
        sendResponse(*session,
                     errorResponse(request.id,
                                   MusstiError(ErrorCategory::InvalidInput,
                                               "serve.bad-frame",
                                               "unparseable request frame")));
        return;
    }
    if (request.type == ServeRequestType::Stats)
        handleStats(*session, request.id);
    else
        handleCompile(session, std::move(request));
}

void
CompileServer::handleCompile(const SessionPtr &session, ServeRequest request)
{
    std::optional<CompileRequest> job;
    try {
        // Bad requests are the client's problem, reported on the wire;
        // keep their fatal() chatter out of the daemon's stderr.
        ScopedFatalSilence quiet(true);
        job = buildRequest(request);
    } catch (...) {
        sendResponse(*session,
                     errorResponse(request.id, describeCurrentException()));
        return;
    }

    const std::uint64_t id = request.id;
    service_.submitWithCallback(
        std::move(*job), [session, id](CompileOutcome outcome) {
            ServeResponse response;
            if (outcome.ok()) {
                const CompileResult &result = *outcome.result;
                response.id = id;
                response.ok = true;
                response.fingerprint = resultFingerprint(result);
                response.executionTimeUs = result.metrics.executionTimeUs;
                response.log10Fidelity = result.metrics.log10Fidelity();
                response.shuttles = result.metrics.shuttleCount;
                response.swapInsertions = result.swapInsertions;
            } else {
                response = errorResponse(id, *outcome.error);
            }
            sendResponse(*session, response);
        });
}

void
CompileServer::handleStats(Session &session, std::uint64_t id)
{
    const CompileService::CacheStats cache = service_.cacheStats();
    const AdmissionStats admission = service_.admissionStats();
    ServeResponse response;
    response.id = id;
    response.ok = true;
    auto put = [&response](const char *key, auto value) {
        response.stats.emplace_back(key, static_cast<long long>(value));
    };
    put("jobs_executed", service_.jobsExecuted());
    put("cache_hits", service_.cacheHits());
    put("cache_mem_hits", cache.memoryTier.hits);
    put("cache_mem_misses", cache.memoryTier.misses);
    put("cache_mem_evictions", cache.memoryTier.evictions);
    put("cache_disk_hits", cache.diskTier.hits);
    put("cache_disk_misses", cache.diskTier.misses);
    put("cache_disk_evictions", cache.diskTier.evictions);
    put("cache_disk_corrupt", cache.diskTier.corrupt);
    put("jobs_failed", cache.jobsFailed);
    put("jobs_timed_out", cache.jobsTimedOut);
    put("jobs_cancelled", cache.jobsCancelled);
    put("admission_submitted", admission.submitted);
    put("admission_dispatched", admission.dispatched);
    put("admission_completed", admission.completed);
    put("admission_cancelled_queued", admission.cancelledQueued);
    put("admission_queued", admission.queuedJobs);
    put("admission_in_flight", admission.inFlightJobs);
    put("admission_active_clients", admission.activeClients);
    sendResponse(session, response);
}

void
CompileServer::sendResponse(Session &session, const ServeResponse &response)
{
    const std::string payload = encodeResponse(response);
    std::lock_guard<std::mutex> lock(session.writeMutex);
    // A failed write means the peer is gone; its jobs still complete
    // (cache-warm for the next asker) — nothing to do here.
    writeFrame(session.fd, payload);
}

CompileRequest
CompileServer::buildRequest(const ServeRequest &request) const
{
    // Bounded before anything is built: makeBenchmark is O(n^2) gates
    // on the reader thread for some families.
    auto requireServable = [](long long qubits) {
        if (qubits < 0 || qubits > kMaxServeQubits)
            fatalCoded("serve.qubits-out-of-range",
                       "circuit of " + std::to_string(qubits) +
                           " qubits is outside [0, " +
                           std::to_string(kMaxServeQubits) + "]");
    };
    Circuit circuit(1);
    if (!request.qasm.empty()) {
        circuit = fromQasm(request.qasm,
                           request.name.empty() ? "qasm" : request.name);
        requireServable(circuit.numQubits());
    } else if (!request.family.empty()) {
        requireServable(request.qubits);
        circuit = makeBenchmark(request.family,
                                request.qubits > 0 ? request.qubits : 32);
    } else {
        fatalCoded("serve.no-circuit",
                   "compile request names neither a benchmark family "
                   "nor inline QASM");
    }

    // makeBackend is the one backend x device rule, shared with
    // compile_cli: a served compile is configured exactly like a local
    // one, which the determinism contract depends on.
    auto backend = makeBackend(
        request.backend.empty() ? "mussti" : request.backend,
        request.device.empty() ? DeviceRegistry::specOf(EmlConfig{})
                               : DeviceRegistry::parse(request.device));

    CompileRequest job{std::move(backend), std::move(circuit), {}, {}, {},
                       request.client};
    if (request.hasSeed)
        job.seed = request.seed;
    if (request.deadlineMs > 0) {
        // now() + deadline must not wrap the clock's nanosecond count
        // (about 292 years of headroom), or it lands in the past.
        using Clock = std::chrono::steady_clock;
        const Clock::time_point now = Clock::now();
        if (request.deadlineMs >
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::time_point::max() - now)
                .count())
            fatalCoded("serve.bad-deadline",
                       "deadline_ms " + std::to_string(request.deadlineMs) +
                           " is beyond what the clock can represent");
        job.deadline = now + std::chrono::milliseconds(request.deadlineMs);
    }
    return job;
}

} // namespace mussti
