#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/resource.h>

#include "arch/device_registry.h"
#include "core/config.h"
#include "dag/dag.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace perfbench {

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ------------------------------------------------------------- Report

void
Report::attempt(bool ok, const std::string &why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (!why.empty())
            log("failed: " + why);
    }
}

void
Report::log(const std::string &why)
{
    if (logged_++ < 10)
        std::cerr << "perfbench: " << why << "\n";
}

void
Report::wrong(const std::string &why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    correct_ = false;
    log("WRONG: " + why);
}

void
Report::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_[name] = value;
}

bool
Report::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.count(name) != 0;
}

std::uint64_t
Report::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
}

std::uint64_t
Report::failedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

bool
Report::correct() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return correct_;
}

std::string
Report::json(
    const std::vector<std::pair<std::string, std::string>> &wanted) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        const auto it = metrics_.find(wanted[i].first);
        const double value = it == metrics_.end() ? 0.0 : it->second;
        char text[64];
        // A non-finite value is not JSON; it only arises from a run
        // that already failed, so report it as 0.
        std::snprintf(text, sizeof text, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        out << (i == 0 ? "" : ", ") << "\"" << wanted[i].first
            << "\": {\"value\": " << text << ", \"unit\": \""
            << wanted[i].second << "\"}";
    }
    out << "}}";
    return out.str();
}

// ------------------------------------------------------------- Tracer

int
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) < spans_.size())
            children[parent].push_back(static_cast<int>(i));
    }

    std::map<std::string, LayerTime> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (int child : children[i]) {
            const auto from = std::max(spans_[child].start, span.start);
            const auto to = std::min(spans_[child].end, span.end);
            if (from < to)
                cover.emplace_back(from, to);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        Clock::time_point reach = span.start;
        for (const auto &[from, to] : cover) {
            const auto begin = std::max(from, reach);
            if (to > begin) {
                covered += msBetween(begin, to);
                reach = to;
            }
        }
        LayerTime &layer = layers[span.name];
        const double total = msBetween(span.start, span.end);
        ++layer.count;
        layer.totalMs += total;
        layer.selfMs += std::max(0.0, total - covered);
    }
    return layers;
}

void
Tracer::printLayerTimes(std::ostream &out) const
{
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %8s %12s %12s\n", "span",
                  "count", "total_ms", "self_ms");
    out << line;
    for (const auto &[name, layer] : layerTimes()) {
        std::snprintf(line, sizeof line, "%-28s %8zu %12.3f %12.3f\n",
                      name.c_str(), layer.count, layer.totalMs,
                      layer.selfMs);
        out << line;
    }
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point epoch = Clock::time_point::max();
    for (const Span &span : spans_)
        epoch = std::min(epoch, span.start);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char event[512];
        std::snprintf(
            event, sizeof event,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
            ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
            "\"parent\": %d, \"request\": %" PRIu64 "}}%s\n",
            span.name.c_str(), span.request,
            msBetween(epoch, span.start) * 1000.0,
            msBetween(span.start, span.end) * 1000.0, i, span.parent,
            span.request, i + 1 < spans_.size() ? "," : "");
        out << event;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------- circuits

namespace {

std::vector<WorkCircuit>
fromSpecs(const std::vector<mussti::BenchmarkSpec> &specs)
{
    std::vector<WorkCircuit> circuits;
    for (const mussti::BenchmarkSpec &spec : specs)
        circuits.push_back(
            {spec.family + ":" + std::to_string(spec.numQubits),
             mussti::makeBenchmark(spec.family, spec.numQubits)});
    return circuits;
}

} // namespace

std::vector<WorkCircuit>
suiteCircuits()
{
    std::vector<mussti::BenchmarkSpec> specs = mussti::smallScaleSuite();
    for (const auto &suite :
         {mussti::mediumScaleSuite(), mussti::largeScaleSuite()})
        specs.insert(specs.end(), suite.begin(), suite.end());
    return fromSpecs(specs);
}

std::vector<WorkCircuit>
mediumCircuits()
{
    return fromSpecs(mussti::mediumScaleSuite());
}

std::vector<WorkCircuit>
deepCircuits()
{
    std::vector<WorkCircuit> circuits = fromSpecs({{"qft", 256}, {"qv", 96}});
    circuits.push_back({"ising:128x16", mussti::makeIsing(128, 16)});
    return circuits;
}

std::vector<WorkCircuit>
servedFamilies()
{
    return fromSpecs({{"ghz", 64}, {"adder", 576}, {"qft", 128}});
}

void
splitKey(const std::string &key, std::string &family, int &qubits)
{
    const std::size_t colon = key.find(':');
    family = key.substr(0, colon);
    qubits = std::stoi(key.substr(colon + 1));
}

// ------------------------------------------------------------- Oracle

bool
Oracle::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open reference file " + path;
        return false;
    }
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, fingerprint, fidelity;
        Reference ref;
        if (!(fields >> key >> fingerprint >> ref.shuttles >> fidelity)) {
            error = path + ":" + std::to_string(line_no) + ": malformed";
            return false;
        }
        ref.fingerprint = std::stoull(fingerprint, nullptr, 16);
        ref.log10Fidelity = std::stod(fidelity);
        refs_[key] = ref;
    }
    if (refs_.empty()) {
        error = "reference file " + path + " holds no entries";
        return false;
    }
    return true;
}

const Reference *
Oracle::find(const std::string &key) const
{
    const auto it = refs_.find(key);
    return it == refs_.end() ? nullptr : &it->second;
}

bool
Oracle::matches(const std::string &key,
                const mussti::CompileResult &result) const
{
    const Reference *ref = find(key);
    return ref != nullptr &&
           mussti::resultFingerprint(result) == ref->fingerprint &&
           result.metrics.shuttleCount == ref->shuttles &&
           result.metrics.log10Fidelity() == ref->log10Fidelity;
}

bool
Oracle::matches(const std::string &key,
                const mussti::ServeResponse &response) const
{
    const Reference *ref = find(key);
    return ref != nullptr && response.ok &&
           response.fingerprint == ref->fingerprint &&
           response.shuttles == ref->shuttles;
}

std::string
validateSchedule(const mussti::CompileResult &result, int num_qubits)
{
    const auto device = mussti::DeviceRegistry::createEml(
        mussti::MusstiConfig{}.device, num_qubits);
    const mussti::ScheduleValidator validator(*device);
    const mussti::ValidationReport report =
        validator.validate(result.schedule, result.lowered);
    return report.valid ? std::string() : report.firstError;
}

void
checkDistinct(const std::vector<DistinctResult> &results,
              const Oracle &oracle, Report &report, Tracer &tracer)
{
    long long lowered_2q = 0;
    double dag_ms = 0.0;
    double fingerprint_ms = 0.0;
    double validate_ms = 0.0;
    int shuttles = 0;
    double log10_fidelity = 0.0;
    for (const DistinctResult &entry : results) {
        const mussti::CompileResult &result = *entry.result;
        lowered_2q += result.lowered.twoQubitCount();

        auto t0 = Clock::now();
        { const mussti::DependencyDag dag(result.lowered); }
        auto t1 = Clock::now();
        tracer.add("dag.build", t0, t1);
        dag_ms += msBetween(t0, t1);

        t0 = Clock::now();
        const std::uint64_t fingerprint = mussti::resultFingerprint(result);
        t1 = Clock::now();
        tracer.add("core.fingerprint", t0, t1);
        fingerprint_ms += msBetween(t0, t1);
        const Reference *ref = oracle.find(entry.key);
        if (ref == nullptr || ref->fingerprint != fingerprint)
            report.wrong(entry.key + ": fingerprint differs from the "
                                     "reference");

        t0 = Clock::now();
        const std::string error =
            validateSchedule(result, entry.circuit->numQubits());
        t1 = Clock::now();
        tracer.add("sim.validate", t0, t1);
        validate_ms += msBetween(t0, t1);
        if (!error.empty())
            report.wrong(entry.key + ": invalid schedule: " + error);

        shuttles += result.metrics.shuttleCount;
        log10_fidelity += result.metrics.log10Fidelity();
    }
    report.set("circuit.lowered_2q_gates", lowered_2q);
    report.set("dag.build_ms", dag_ms);
    report.set("core.fingerprint_ms",
               results.empty() ? 0.0 : fingerprint_ms / results.size());
    report.set("sim.validate_ms", validate_ms);
    report.set("shuttles_total", shuttles);
    report.set("neg_log10_fidelity_total", -log10_fidelity);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
