/**
 * @file
 * serve-cached and serve-mixed: an in-process CompileServer on
 * loopback, driven through CompileClient connections.
 *
 * CompileClient::await has no timeout, so every request runs under a
 * DeadlineGuard: a request that misses its deadline counts as failed,
 * and the guard stops the server, which closes the connections and so
 * unblocks every waiting client.
 */
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include <unistd.h>

#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "core/compile_service.h"
#include "serve/compile_client.h"
#include "serve/compile_server.h"
#include "serve/protocol.h"
#include "runners.h"

namespace perfbench {

using mussti::CompileClient;
using mussti::ServeRequest;
using mussti::ServeResponse;

namespace {

constexpr auto kRequestDeadline = std::chrono::seconds(10);

/** Sweep requests kept outstanding: the admission in-flight budget. */
constexpr std::size_t kSweepWindow = 4;

/** Interactive open loop: arrival rate and connections serving it. */
constexpr double kInteractiveRate = 10.0;
constexpr int kInteractiveConnections = 4;

/** Throughput is the median completion rate over slices this long. */
constexpr double kRateSliceSeconds = 2.0;

/** Cached requests timed per circuit for service.hit_ms. */
constexpr int kHitSamples = 21;

const char *const kHost = "127.0.0.1";

/**
 * Deadline guard over blocking client calls. Each client thread owns a
 * slot and marks when its awaited request was sent; a monitor thread
 * stops the server once any slot is older than kRequestDeadline.
 */
class DeadlineGuard
{
  public:
    DeadlineGuard(mussti::CompileServer &server, std::size_t slots)
        : server_(server), since_(slots), thread_([this] { monitor(); })
    {}

    ~DeadlineGuard()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            quit_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    DeadlineGuard(const DeadlineGuard &) = delete;
    DeadlineGuard &operator=(const DeadlineGuard &) = delete;

    void begin(std::size_t slot, Clock::time_point sent = Clock::now())
    {
        since_[slot].store(sent.time_since_epoch().count());
    }

    void end(std::size_t slot) { since_[slot].store(0); }

    bool fired() const { return fired_.load(); }

  private:
    void monitor()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!quit_) {
            wake_.wait_for(lock, std::chrono::milliseconds(10));
            const auto now = Clock::now().time_since_epoch().count();
            const auto limit =
                std::chrono::duration_cast<Clock::duration>(kRequestDeadline)
                    .count();
            for (const auto &slot : since_) {
                const auto sent = slot.load();
                if (sent != 0 && now - sent > limit && !fired_.load()) {
                    fired_.store(true);
                    std::cerr << "perfbench: a request missed its "
                                 "deadline; stopping the server\n";
                    server_.stop();
                }
            }
        }
    }

    mussti::CompileServer &server_;
    std::vector<std::atomic<Clock::rep>> since_;
    std::atomic<bool> fired_{false};
    std::mutex mutex_;
    std::condition_variable wake_;
    bool quit_ = false;
    std::thread thread_; ///< Last: uses every member above.
};

struct ServeState
{
    Oracle oracle;
    std::vector<WorkCircuit> families; ///< Served family requests.
    std::vector<WorkCircuit> medium;   ///< serve-mixed sweep circuits.
    std::vector<std::string> qasm;     ///< Their QASM text.
    std::string diskDir;               ///< serve-mixed disk tier.
    std::unique_ptr<mussti::CompileServer> server;
};

ServeRequest
familyRequest(const WorkCircuit &work, const std::string &client)
{
    ServeRequest request;
    request.client = client;
    splitKey(work.key, request.family, request.qubits);
    return request;
}

/** One request/response exchange as a client thread saw it. */
struct Exchange
{
    ServeResponse response;
    Clock::time_point sent;
    Clock::time_point received;
};

/** What one measured window saw; client threads append under mutex. */
struct ServeWindow
{
    std::mutex mutex;
    std::vector<double> latencyMs;
    std::vector<std::vector<double>> rttByFamily; ///< From send.
    std::vector<double> lateMs;
    std::vector<double> encodeUs;
    std::vector<double> decodeUs;
    std::vector<double> responseBytes;
    std::uint64_t salt = 0; ///< Keeps sweep seeds distinct per window.
    Clock::time_point start;
    Clock::time_point end;
    std::vector<Clock::time_point> completions; ///< Throughput operations.
    long long queuedMax = 0;

    /**
     * Operations completed per second: the window is cut into
     * kRateSliceSeconds slices, each slice's rate is its completions
     * over the time they span, and the median slice rate is reported,
     * so a burst of load from outside the benchmark moves it less than
     * a mean would.
     */
    double throughput() const
    {
        const double seconds =
            std::chrono::duration<double>(end - start).count();
        const std::size_t slices = std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / kRateSliceSeconds));
        std::vector<std::vector<Clock::time_point>> in_slice(slices);
        for (const Clock::time_point &at : completions) {
            const double offset =
                std::chrono::duration<double>(at - start).count();
            if (offset >= 0.0 && at <= end)
                in_slice[std::min(slices - 1, static_cast<std::size_t>(
                                                  offset / seconds * slices))]
                    .push_back(at);
        }
        std::vector<double> rates;
        for (std::vector<Clock::time_point> &times : in_slice) {
            if (times.size() < 2)
                continue;
            std::sort(times.begin(), times.end());
            const double span =
                std::chrono::duration<double>(times.back() - times.front())
                    .count();
            if (span > 0.0)
                rates.push_back((times.size() - 1) / span);
        }
        return percentile(rates, 50);
    }
};

/**
 * Send one request and await its response under the guard. Traced
 * exchanges also time encodeRequest and decodeResponse on the same
 * payloads, outside the round trip.
 */
Exchange
exchange(CompileClient &client, const ServeRequest &request,
         DeadlineGuard &guard, std::size_t slot, ServeWindow *traced)
{
    if (traced != nullptr) {
        const auto t0 = Clock::now();
        const std::string text = mussti::encodeRequest(request);
        const double us = msSince(t0) * 1000.0;
        std::lock_guard<std::mutex> lock(traced->mutex);
        traced->encodeUs.push_back(us);
    }
    Exchange result;
    result.sent = Clock::now();
    guard.begin(slot, result.sent);
    result.response = client.await(client.send(request));
    result.received = Clock::now();
    guard.end(slot);
    if (traced != nullptr) {
        const std::string text = mussti::encodeResponse(result.response);
        const auto t0 = Clock::now();
        ServeResponse decoded;
        mussti::decodeResponse(text, decoded);
        const double us = msSince(t0) * 1000.0;
        std::lock_guard<std::mutex> lock(traced->mutex);
        traced->decodeUs.push_back(us);
        traced->responseBytes.push_back(static_cast<double>(text.size()));
    }
    return result;
}

/** Book one served response against the reference. */
bool
bookResponse(const std::string &key, const Exchange &exchange,
             const Oracle &oracle, Report &report)
{
    const ServeResponse &response = exchange.response;
    const bool in_time =
        exchange.received - exchange.sent <= kRequestDeadline;
    if (!response.ok) {
        report.attempt(false, key + ": " + response.error.code + ": " +
                                  response.error.message);
        return false;
    }
    if (!in_time) {
        report.attempt(false, key + ": missed the request deadline");
        return false;
    }
    const bool ok = oracle.matches(key, response);
    if (!ok)
        report.wrong(key + ": served fingerprint differs from the "
                           "reference");
    report.attempt(ok);
    return ok;
}

/**
 * Set up a server: build the circuits (and, for serve-mixed, their QASM
 * and a fresh disk-tier directory), load the references, start the
 * server and warm its cache with the family requests.
 */
ServeState
serveSetup(bool mixed, const std::string &reference, int rep,
           double &build_ms, Report &report, Tracer &tracer)
{
    ServeState state;
    const auto t0 = Clock::now();
    state.families = servedFamilies();
    if (mixed)
        state.medium = mediumCircuits();
    build_ms = msSince(t0);
    tracer.add("workloads.build", t0, Clock::now());
    for (const WorkCircuit &work : state.medium)
        state.qasm.push_back(mussti::toQasm(work.circuit));

    std::string error;
    if (!state.oracle.load(reference, error))
        throw std::runtime_error(error);

    mussti::CompileServerConfig config;
    config.numThreads = 2;
    if (mixed) {
        namespace fs = std::filesystem;
        const fs::path dir = fs::absolute(".bench_build/perfbench-tmp") /
                             ("disk-" + std::to_string(::getpid()) + "-" +
                              std::to_string(rep));
        fs::remove_all(dir);
        fs::create_directories(dir);
        state.diskDir = dir.string();
        config.diskCachePath = state.diskDir;
    }
    state.server = std::make_unique<mussti::CompileServer>(config);
    if (!state.server->start())
        throw std::runtime_error("compile server failed to start");

    CompileClient client;
    if (!client.connect(kHost, state.server->port()))
        throw std::runtime_error("cannot connect to the compile server");
    DeadlineGuard guard(*state.server, 1);
    for (const WorkCircuit &work : state.families) {
        const Exchange ex =
            exchange(client, familyRequest(work, "warm"), guard, 0, nullptr);
        if (!bookResponse(work.key, ex, state.oracle, report))
            throw std::runtime_error("cache warm-up failed on " + work.key);
    }
    return state;
}

/** Stats counters of the server, by name. */
std::map<std::string, long long>
serverStats(mussti::CompileServer &server)
{
    std::map<std::string, long long> stats;
    CompileClient client;
    if (!client.connect(kHost, server.port()))
        return stats;
    DeadlineGuard guard(server, 1);
    guard.begin(0);
    const ServeResponse response = client.stats("stats");
    guard.end(0);
    for (const auto &[name, value] : response.stats)
        stats[name] = value;
    return stats;
}

/** Polls admission_queued during a traced window. */
void
pollQueue(mussti::CompileServer &server, Clock::time_point end,
          DeadlineGuard &guard, std::size_t slot, ServeWindow &window)
{
    CompileClient client;
    if (!client.connect(kHost, server.port()))
        return;
    while (Clock::now() < end && !guard.fired()) {
        guard.begin(slot);
        const ServeResponse response = client.stats("stats");
        guard.end(slot);
        for (const auto &[name, value] : response.stats) {
            if (name == "admission_queued") {
                std::lock_guard<std::mutex> lock(window.mutex);
                window.queuedMax = std::max(window.queuedMax, value);
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

/**
 * serve-cached: two persistent connections in a closed loop, each
 * sending family requests round-robin over the warmed circuits. The
 * seed sets each client's first circuit and start offset.
 */
void
cachedClient(ServeState &state, const Options &options, int k,
             Clock::time_point start, Clock::time_point end,
             DeadlineGuard &guard, ServeWindow &window, Report &report,
             Tracer &tracer)
{
    CompileClient client;
    if (!client.connect(kHost, state.server->port())) {
        report.attempt(false, "cannot connect to the compile server");
        return;
    }
    const std::uint64_t salt = mix64(options.seed ^ (0xc11e47ULL + k));
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(salt % 20000));
    const std::size_t n = state.families.size();
    for (std::size_t i = salt % n; Clock::now() < end && !guard.fired();
         ++i) {
        const WorkCircuit &work = state.families[i % n];
        const Exchange ex =
            exchange(client, familyRequest(work, "cached-" + std::to_string(k)),
                     guard, k, tracer.enabled() ? &window : nullptr);
        const bool ok = bookResponse(work.key, ex, state.oracle, report);
        tracer.add("serve.request", ex.sent, ex.received, -1,
                   (static_cast<std::uint64_t>(k) << 32) | i);
        if (!ok)
            continue;
        const double rtt = msBetween(ex.sent, ex.received);
        std::lock_guard<std::mutex> lock(window.mutex);
        window.latencyMs.push_back(rtt);
        window.rttByFamily[i % n].push_back(rtt);
        window.completions.push_back(ex.received);
    }
}

/**
 * serve-mixed sweep client: keeps kSweepWindow cold compiles of the
 * medium suite outstanding, each sent as inline QASM with its own seed,
 * so every one misses both cache tiers and is stored in both.
 */
void
sweepClient(ServeState &state, const Options &options, Clock::time_point end,
            DeadlineGuard &guard, std::size_t slot, ServeWindow &window,
            Report &report, Tracer &tracer)
{
    CompileClient client;
    if (!client.connect(kHost, state.server->port())) {
        report.attempt(false, "cannot connect to the compile server");
        return;
    }
    struct Pending
    {
        std::uint64_t id = 0;
        std::size_t circuit = 0;
        Clock::time_point sent;
    };
    std::deque<Pending> outstanding;
    const std::size_t n = state.medium.size();
    for (std::uint64_t i = 0;;) {
        while (outstanding.size() < kSweepWindow && Clock::now() < end &&
               !guard.fired()) {
            ServeRequest request;
            request.client = "sweep";
            const std::size_t circuit = (options.seed + i) % n;
            request.qasm = state.qasm[circuit];
            request.name = state.medium[circuit].key;
            request.hasSeed = true;
            request.seed = mix64(mix64(options.seed + window.salt) ^ i);
            const auto sent = Clock::now();
            outstanding.push_back({client.send(request), circuit, sent});
            ++i;
        }
        if (outstanding.empty())
            break;
        Pending next = outstanding.front();
        outstanding.pop_front();
        Exchange ex;
        ex.sent = next.sent;
        guard.begin(slot, next.sent);
        ex.response = client.await(next.id);
        ex.received = Clock::now();
        guard.end(slot);
        const std::string &key = state.medium[next.circuit].key;
        tracer.add("serve.sweep_request", ex.sent, ex.received, -1,
                   (1ULL << 40) | next.id);
        if (bookResponse(key, ex, state.oracle, report)) {
            std::lock_guard<std::mutex> lock(window.mutex);
            window.completions.push_back(ex.received);
        }
    }
}

/**
 * serve-mixed interactive client: cached family requests arriving in
 * an open loop at kInteractiveRate, served by a pool of connections.
 * Each request is timed from when it was due; the seed sets the phase
 * of the arrival schedule.
 */
void
interactiveClients(ServeState &state, const Options &options,
                   Clock::time_point start, Clock::time_point end,
                   DeadlineGuard &guard, std::size_t first_slot,
                   ServeWindow &window, Report &report,
                   Tracer &tracer)
{
    struct Due
    {
        std::size_t index = 0;
        Clock::time_point at;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Due> queue;
    bool generated = false;

    auto worker = [&](std::size_t slot) {
        CompileClient client;
        const bool connected = client.connect(kHost, state.server->port());
        const std::size_t n = state.families.size();
        for (;;) {
            Due due;
            {
                std::unique_lock<std::mutex> lock(mutex);
                ready.wait(lock, [&] { return generated || !queue.empty(); });
                if (queue.empty())
                    return;
                due = queue.front();
                queue.pop_front();
            }
            const WorkCircuit &work = state.families[due.index % n];
            if (!connected || guard.fired()) {
                report.attempt(false, work.key + ": not sent");
                continue;
            }
            const Exchange ex =
                exchange(client, familyRequest(work, "interactive"), guard,
                         slot, tracer.enabled() ? &window : nullptr);
            tracer.add("serve.request", due.at, ex.received, -1,
                       (2ULL << 40) | due.index);
            if (!bookResponse(work.key, ex, state.oracle, report))
                continue;
            std::lock_guard<std::mutex> lock(window.mutex);
            window.latencyMs.push_back(msBetween(due.at, ex.received));
            window.lateMs.push_back(msBetween(due.at, ex.sent));
            window.rttByFamily[due.index % n].push_back(
                msBetween(ex.sent, ex.received));
        }
    };
    std::vector<std::thread> workers;
    for (int c = 0; c < kInteractiveConnections; ++c)
        workers.emplace_back(worker, first_slot + c);

    const auto period = std::chrono::duration<double>(1.0 / kInteractiveRate);
    const double phase =
        static_cast<double>(mix64(options.seed ^ 0xa77ULL) % 1000) / 1000.0;
    for (std::size_t k = 0;; ++k) {
        const auto at =
            start + std::chrono::duration_cast<Clock::duration>(
                        period * (phase + static_cast<double>(k)));
        if (at >= end || guard.fired())
            break;
        std::this_thread::sleep_until(at);
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back({k, at});
        }
        ready.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        generated = true;
    }
    ready.notify_all();
    for (std::thread &thread : workers)
        thread.join();
}

/** One measured window of either serve workload. */
void
serveWindow(ServeState &state, bool mixed, const Options &options,
            double seconds, ServeWindow &window, Report &report,
            Tracer &tracer)
{
    window.rttByFamily.assign(state.families.size(), {});
    const std::size_t slots = mixed ? 2 + kInteractiveConnections : 3;
    DeadlineGuard guard(*state.server, slots);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    window.start = start;
    window.end = end;
    std::vector<std::thread> threads;
    if (tracer.enabled())
        threads.emplace_back([&] {
            pollQueue(*state.server, end, guard, 0, window);
        });
    if (mixed) {
        threads.emplace_back([&] {
            sweepClient(state, options, end, guard, 1, window,
                        report, tracer);
        });
        interactiveClients(state, options, start, end, guard, 2, window,
                           report, tracer);
    } else {
        for (int k = 1; k <= 2; ++k)
            threads.emplace_back([&, k] {
                cachedClient(state, options, k, start, end, guard, window,
                             report, tracer);
            });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::cerr << "perfbench: " << window.latencyMs.size()
              << " timed requests, " << window.completions.size()
              << " throughput operations in " << seconds << " s\n";
}

/**
 * Compile the workload's distinct circuits on a local CompileService
 * configured like the server's, for the once-per-run checks; when
 * tracing, time cached submits on it for service.hit_ms.
 */
void
localChecks(const ServeState &state, const ServeWindow *traced,
            Report &report, Tracer &tracer)
{
    mussti::CompileServiceConfig config;
    config.numThreads = 2;
    mussti::CompileService service(config);
    const auto backend = mussti::makeMusstiBackend(mussti::MusstiConfig{});

    std::vector<const WorkCircuit *> circuits;
    for (const WorkCircuit &work : state.families)
        circuits.push_back(&work);
    for (const WorkCircuit &work : state.medium)
        circuits.push_back(&work);
    std::vector<mussti::CompileOutcome> outcomes;
    for (const WorkCircuit *work : circuits)
        outcomes.push_back(
            service.submitOutcome({backend, work->circuit, {}, {}, {}})
                .get());
    std::vector<DistinctResult> distinct;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        if (!outcomes[i].ok()) {
            report.wrong(circuits[i]->key + ": local compile failed");
            continue;
        }
        distinct.push_back(
            {circuits[i]->key, &circuits[i]->circuit, &*outcomes[i].result});
    }
    checkDistinct(distinct, state.oracle, report, tracer);

    if (traced == nullptr)
        return;
    double hit_ms = 0.0;
    double transport_ms = 0.0;
    for (std::size_t f = 0; f < state.families.size(); ++f) {
        std::vector<double> hits;
        for (int s = 0; s < kHitSamples; ++s) {
            mussti::CompileRequest request{
                backend, state.families[f].circuit, {}, {}, {}};
            // Shared, so the worker may still be inside set_value when
            // get() returns and this iteration ends.
            auto done = std::make_shared<std::promise<Clock::time_point>>();
            auto ready = done->get_future();
            const auto t0 = Clock::now();
            service.submitWithCallback(
                std::move(request), [done](mussti::CompileOutcome) {
                    done->set_value(Clock::now());
                });
            const auto t1 = ready.get();
            tracer.add("service.hit", t0, t1);
            hits.push_back(msBetween(t0, t1));
        }
        const double hit = percentile(hits, 50);
        hit_ms += hit;
        transport_ms += percentile(traced->rttByFamily[f], 50) - hit;
    }
    const double n = static_cast<double>(state.families.size());
    report.set("service.hit_ms", hit_ms / n);
    report.set("serve.transport_ms", transport_ms / n);
}

/** Per-layer metrics of a traced serve window. */
void
reportServeLayers(const ServeWindow &window,
                  const std::map<std::string, long long> &before,
                  const std::map<std::string, long long> &after,
                  double untraced_throughput, Report &report)
{
    auto delta = [&](const std::string &name) {
        const auto a = after.find(name);
        const auto b = before.find(name);
        return static_cast<double>(
            (a == after.end() ? 0 : a->second) -
            (b == before.end() ? 0 : b->second));
    };
    const double mem_lookups =
        delta("cache_mem_hits") + delta("cache_mem_misses");
    const double disk_lookups =
        delta("cache_disk_hits") + delta("cache_disk_misses");
    report.set("cache.mem_lookups", mem_lookups);
    report.set("cache.mem_hit_ratio",
               mem_lookups > 0 ? delta("cache_mem_hits") / mem_lookups : 0.0);
    report.set("cache.disk_lookups", disk_lookups);
    report.set("cache.disk_hit_ratio",
               disk_lookups > 0 ? delta("cache_disk_hits") / disk_lookups
                                : 0.0);
    report.set("cache.mem_evictions", delta("cache_mem_evictions"));
    report.set("cache.disk_evictions", delta("cache_disk_evictions"));
    report.set("cache.disk_corrupt", delta("cache_disk_corrupt"));
    report.set("admission.submitted", delta("admission_submitted"));
    report.set("admission.completed", delta("admission_completed"));
    report.set("admission.queued_max", window.queuedMax);
    report.set("serve.encode_us", percentile(window.encodeUs, 50));
    report.set("serve.decode_us", percentile(window.decodeUs, 50));
    double bytes = 0.0;
    for (double b : window.responseBytes)
        bytes += b;
    report.set("serve.response_bytes",
               window.responseBytes.empty()
                   ? 0.0
                   : bytes / window.responseBytes.size());
    report.set("bench.generator_late_ms_p90", percentile(window.lateMs, 90));
    report.set("bench.latency_samples", window.latencyMs.size());
    report.set("bench.trace_overhead_share",
               window.throughput() > 0.0
                   ? untraced_throughput / window.throughput() - 1.0
                   : 0.0);
}

void
runServe(bool mixed, const Options &options, const std::string &reference,
         Report &report, Tracer &tracer)
{
    int rep = 0;
    std::vector<std::string> disk_dirs;
    auto setup = [&](double &build_ms) {
        ServeState state =
            serveSetup(mixed, reference, rep++, build_ms, report, tracer);
        disk_dirs.push_back(state.diskDir);
        return state;
    };
    ServeState state = timedSetup<ServeState>(setup, report, tracer);

    Tracer off(false);
    ServeWindow untraced;
    serveWindow(state, mixed, options, untracedSeconds(options), untraced,
                report, off);
    report.set("throughput_per_s", untraced.throughput());
    report.set("latency_ms_p50", percentile(untraced.latencyMs, 50));
    report.set("latency_ms_p90", percentile(untraced.latencyMs, 90));

    ServeWindow traced;
    traced.salt = 1;
    if (options.trace) {
        const auto before = serverStats(*state.server);
        serveWindow(state, mixed, options, options.seconds, traced, report,
                    tracer);
        const auto after = serverStats(*state.server);
        reportServeLayers(traced, before, after, untraced.throughput(),
                          report);
        double parse_ms = 0.0;
        for (std::size_t i = 0; i < state.qasm.size(); ++i) {
            const auto t0 = Clock::now();
            const mussti::Circuit parsed =
                mussti::fromQasm(state.qasm[i], state.medium[i].key);
            const auto t1 = Clock::now();
            tracer.add("circuit.qasm_parse", t0, t1);
            parse_ms += msBetween(t0, t1);
            if (parsed.twoQubitCount() !=
                state.medium[i].circuit.twoQubitCount())
                report.wrong(state.medium[i].key +
                             ": QASM round trip changed the circuit");
        }
        report.set("circuit.qasm_parse_ms", parse_ms);
    }
    state.server->stop();
    localChecks(state, options.trace ? &traced : nullptr, report, tracer);
    state.server.reset();
    for (const std::string &dir : disk_dirs)
        if (!dir.empty())
            std::filesystem::remove_all(dir);
}

} // namespace

void
runServeCached(const Options &options, const std::string &reference,
               Report &report, Tracer &tracer)
{
    runServe(false, options, reference, report, tracer);
}

void
runServeMixed(const Options &options, const std::string &reference,
              Report &report, Tracer &tracer)
{
    runServe(true, options, reference, report, tracer);
}

} // namespace perfbench
