/**
 * @file
 * The four workloads. Each runner sets up (kSetupReps times, reporting
 * the median as setup_s), measures for the requested time, checks every
 * output, and fills the report: the end-to-end metrics from an untraced
 * window and, when tracing, the per-layer metrics from a second, traced
 * window.
 */
#ifndef PERFBENCH_RUNNERS_H
#define PERFBENCH_RUNNERS_H

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

void runSuiteBatch(const Options &options, const std::string &reference,
                   Report &report, Tracer &tracer);
void runDeepCompile(const Options &options, const std::string &reference,
                    Report &report, Tracer &tracer);
void runServeCached(const Options &options, const std::string &reference,
                    Report &report, Tracer &tracer);
void runServeMixed(const Options &options, const std::string &reference,
                   Report &report, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_RUNNERS_H
