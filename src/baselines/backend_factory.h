/**
 * @file
 * Construction of named compiler backends.
 *
 * The one place that knows every concrete compiler and which device
 * family each one targets. compile_cli, lint_cli, the compile daemon
 * and the device tuner resolve a (backend name, device spec) pair
 * through makeBackend() and then talk only to the ICompilerBackend
 * interface, so a served compile is configured exactly like a local
 * one. Adding a backend = adding a branch here (plus the backend
 * itself), nothing else.
 */
#ifndef MUSSTI_BASELINES_BACKEND_FACTORY_H
#define MUSSTI_BASELINES_BACKEND_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "arch/device_registry.h"
#include "arch/grid_device.h"
#include "core/backend.h"
#include "core/config.h"
#include "sim/params.h"

namespace mussti {

/** The MUSS-TI compiler as a shareable backend. */
std::shared_ptr<const ICompilerBackend>
makeMusstiBackend(const MusstiConfig &config = {},
                  const PhysicalParams &params = {});

/**
 * A grid baseline by name: "murali" [55], "dai" [13], or "mqt" [70]
 * (case-insensitive). fatal() on unknown names.
 */
std::shared_ptr<const ICompilerBackend>
makeGridBackend(const std::string &which, const GridConfig &grid,
                const PhysicalParams &params = {});

/**
 * The backend `name` (case-insensitive: "mussti" or a grid baseline) on
 * the device `spec`. MUSS-TI compiles on the spec's EML device with the
 * rest of `config`; a grid baseline on the spec's grid. A backend whose
 * device family differs from the spec's is InvalidInput with code
 * `serve.device-mismatch`; an unknown grid name is fatal().
 */
std::shared_ptr<const ICompilerBackend>
makeBackend(const std::string &name, const DeviceSpec &spec,
            MusstiConfig config = {}, const PhysicalParams &params = {});

/** The grid baseline names makeGridBackend() accepts. */
std::vector<std::string> gridBackendNames();

} // namespace mussti

#endif // MUSSTI_BASELINES_BACKEND_FACTORY_H
