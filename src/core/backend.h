/**
 * @file
 * The uniform compiler-backend interface.
 *
 * A backend is a named, configured compiler: circuit in, CompileResult
 * out. MUSS-TI (core/compiler.h) and every grid baseline
 * (baselines/grid_compiler_base.h) implement it, so bench drivers, the
 * CLI, and the CompileService never special-case a compiler type.
 * Backends are immutable after construction and safe to share across
 * threads; every compile() call builds private state.
 */
#ifndef MUSSTI_CORE_BACKEND_H
#define MUSSTI_CORE_BACKEND_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/pipeline.h"

namespace mussti {

struct SchedulerWorkspace; // core/scheduler_workspace.h

/**
 * The per-call inputs of ICompilerBackend::compile. Every field is
 * optional, and none changes the result: a compile with any mix of
 * them set is bit-identical to a plain compile(circuit) under the same
 * seed. Every member has an initializer, so a designated-initializer
 * call (`compile(c, {.seed = s})`) names only the fields it sets.
 */
struct CompileOptions
{
    /**
     * RNG seed for stochastic passes (the CompileService's per-job
     * seeding hook); unset = the backend's configured seed.
     * Deterministic backends ignore it.
     */
    std::optional<std::uint64_t> seed{};

    /**
     * Donated scheduler arena. The CompileService keeps one per worker
     * thread, so consecutive jobs reuse warm buffers instead of
     * re-growing them. Purely an allocation cache; backends without a
     * scheduler hot path ignore it.
     */
    std::shared_ptr<SchedulerWorkspace> workspace{};

    /**
     * Delta-compilation exchange: resume candidates in, captured
     * checkpoints out (see DeltaCompileIO). Backends without a delta
     * path ignore the candidates and capture nothing.
     */
    DeltaCompileIO *delta = nullptr;

    /**
     * Deadline/cancellation control, checkpointed at entry, at every
     * pass boundary and inside the scheduler's routing loop.
     */
    const JobControl *control = nullptr;
};

/** A configured compiler behind a uniform interface. */
class ICompilerBackend
{
  public:
    virtual ~ICompilerBackend() = default;

    /** Stable backend identifier ("mussti", "murali", "dai", "mqt"). */
    virtual const std::string &name() const = 0;

    /**
     * Digest of everything besides the circuit and the per-job seed that
     * determines the output: backend identity, configuration, and
     * physical parameters. One third of the service's cache key.
     */
    virtual std::uint64_t configDigest() const = 0;

    /**
     * Compile a circuit. Checkpoints `options.control` and resets the
     * delta outputs once here, so no backend has to.
     */
    CompileResult
    compile(Circuit circuit, const CompileOptions &options = {}) const
    {
        if (options.control != nullptr)
            options.control->checkpoint();
        if (options.delta != nullptr) {
            options.delta->captured.clear();
            options.delta->resumed = false;
        }
        return doCompile(std::move(circuit), options);
    }

    /** compile() with the configured seed replaced. */
    CompileResult
    compileSeeded(Circuit circuit, std::uint64_t seed) const
    {
        return compile(std::move(circuit), {.seed = seed});
    }

  protected:
    /** The backend's compile; compile() has already run its checks. */
    virtual CompileResult
    doCompile(Circuit circuit, const CompileOptions &options) const = 0;
};

} // namespace mussti

#endif // MUSSTI_CORE_BACKEND_H
